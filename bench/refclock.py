"""Wall time converted to a fixed reference speed.

On a shared host other tenants slow the whole machine down, by up to
about 1.9x, in phases that last from a few seconds to longer than a
run; the process's CPU time stretches with its wall time.  So the
benchmark runs a fixed reference loop, its own code that uses none of
the program, right before and right after every unit of work it times,
and reports the unit's wall time scaled by ``REFERENCE_S / reference
time``: the seconds the unit would take on a host where the reference
loop takes ``REFERENCE_S``.  A program that gets faster moves only the
wall time, never the reference time.  The raw wall time of every pass
and every reference loop stays in the run's record.

The correction is partial.  Contention slows kinds of pure-Python work
by different factors: in 150-s traces on the 2-vCPU Xeon host this was
built on, log time of an order-40 eta term against log time of the
loop below had slopes of 0.7 to 0.9, and of a cold ``berger ek`` 0.7,
so a run spent wholly in a slow phase still reads somewhat low.  Per
sample, scaling cut the coefficient of variation from 0.16 to 0.11
(eta) and from 0.18 to 0.13 (``berger ek``), and the medians of 38-s
windows spread by 0.02 to 0.04 instead of 0.13 to 0.16 (interquartile
range over median).
"""
import statistics
import time
from fractions import Fraction as F

#: what one reference loop takes at reference speed: about its time on
#: the quiet 2-vCPU Xeon host this benchmark was built on
REFERENCE_S = 0.05


def reference_loop() -> None:
    """Fixed pure-Python work, about 50 ms on the quiet host, in five
    kinds of about 10 ms each: arithmetic on small Fractions, on
    Fractions whose denominators grow, on big integers, a bytecode loop
    on small integers, and dict and str churn.  Contention slows each
    kind by a different factor; the mix tracks the program better than
    any one kind does."""
    for rep in range(2):
        for a in range(1, 41):
            s = F(rep)
            for b in range(1, 41):
                s += F(a, b) * F(b, a + b)
    s = F(0)
    for i in range(1, 1400):
        s += F(i % 13 + 1, i * i + 1)
    x, y, n = 7 ** 3000, 11 ** 2900, 0
    for _ in range(200):
        n += x * y % 1000003
    n = 0
    for i in range(140000):
        n += i * i & 7
    table = {}
    for i in range(65000):
        table[i % 997] = (i, str(i))


#: a reference loop runs once the units timed since the last one add up
#: to this much wall time, so that short calls do not spend most of a
#: run in reference loops
GROUP_S = 0.25


class Clock:
    """Times named units of work, with a reference loop after each group
    of units that adds up to ``GROUP_S`` and at every :meth:`flush`.
    Every unit of a group is scaled by the mean of the two reference
    loops around the group."""

    def __init__(self):
        #: wall time of every reference loop run so far, in order
        self.refs = []
        #: per unit name, the reference-speed time of every unit that
        #: returned, once a reference loop has followed it
        self.timings = {}
        #: raw and reference-speed time of every unit scaled so far
        self.units_raw = self.units_s = 0.0
        self._group = []
        self.reference()

    def reference(self) -> float:
        """Run the reference loop; scale the group of units before it."""
        t0 = time.perf_counter()
        reference_loop()
        seconds = time.perf_counter() - t0
        factor = 2 * REFERENCE_S / (self.refs[-1] + seconds) if self.refs else 0
        for name, raw in self._group:
            if name is not None:
                self.timings.setdefault(name, []).append(raw * factor)
            self.units_raw += raw
            self.units_s += raw * factor
        self._group = []
        self.refs.append(seconds)
        return seconds

    def time(self, name: str, fn):
        """``fn()``, timed as a unit called ``name``.  A unit that raises
        still counts in ``units_raw`` and ``units_s`` but not in
        ``timings``."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except BaseException:
            self._close_unit(None, time.perf_counter() - t0)
            raise
        self._close_unit(name, time.perf_counter() - t0)
        return result

    def _close_unit(self, name, raw: float) -> None:
        self._group.append((name, raw))
        if sum(r for _, r in self._group) >= GROUP_S:
            self.reference()

    def flush(self) -> None:
        """Close the open group with a reference loop, if there is one."""
        if self._group:
            self.reference()


def at_reference_speed(raw: float, refs: list) -> float:
    """``raw`` seconds of work scaled by the mean of the reference loops
    run around and during it."""
    return raw * REFERENCE_S / statistics.fmean(refs)
