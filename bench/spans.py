"""Per-layer tracing from outside the program.

:func:`install` replaces each traced layer function with a wrapper that
records a span: its calls, and its self time, which is its wall time
minus the part covered by the spans it encloses.  The wrapper replaces
the function at every binding berger code can reach it through: module
globals (``eta`` imports ``ahat_series`` by name, ``assembly`` and
``cli`` import ``det``), class attributes (``__radd__ = __add__``), and
default arguments (``check_jacobi(..., bracket_fn=bracket)``).
Functions behind ``lru_cache`` are wrapped outside the cache, so a call
answered from the cache still counts; the caches' own hit counts are
read from ``cache_info()``.

Spans live in memory and are written out once, by :meth:`Tracer.record`.
There is one thread, so a single stack is the whole call tree.
"""
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

#: the 17 named checks of ``berger verify --suite all``
CHECK_NAMES = (
    "jacobi-identity", "structure-constants", "octonion-laws",
    "clifford-relations", "volume-element", "bracket-cayley",
    "operator-blocks", "isotropy-commutation", "minimal-polynomial",
    "spectral-gap", "eta-pole-cancellation", "eta-values",
    "characteristic-form", "secondary-integral", "secondary-sign-sweep",
    "tensor-split", "invariant-value",
)

CLI, ETA, ALG = "cli-session", "eta-sweep", "algebra-certs"

#: span -> the workloads predicted to call it
SPANS = {
    "cli.main": (CLI,),
    "assembly.compute_ek": (CLI,),
    "assembly.verify": (CLI,),
    **{"assembly.check." + name: (CLI,) for name in CHECK_NAMES},
    "eta.weyl_sum": (CLI, ETA),
    "eta.local_term": (CLI, ETA),
    "series.ahat_series": (CLI, ETA),
    "series.reciprocal": (CLI, ETA),
    "series.mul": (CLI, ETA),
    "series.exp": (CLI, ETA),
    "matrix.matmul": (CLI, ALG),
    "matrix.addsub": (CLI, ALG),
    "matrix.det": (CLI, ALG),
    "matrix.tensor": (CLI, ALG),
    "matrix.apply": (CLI, ALG),
    "liealg.structure_constants": (CLI, ALG),
    "liealg.bracket": (CLI, ALG),
    "liealg.check_jacobi": (CLI, ALG),
    "octonion.deformation_operator": (CLI, ALG),
    "octonion.minimal_polynomial_check": (CLI, ALG),
    "octonion.commutes_with_lifted_isotropy": (CLI, ALG),
    "octonion.mul": (CLI, ALG),
    "forms.pontryagin_form": (CLI, ALG),
    "forms.invariant_d": (CLI, ALG),
    "forms.secondary_integral": (CLI, ALG),
    "rep.klimyk_tensor": (CLI, ALG),
    "rep.freudenthal": (CLI, ALG),
    "rep.branch": (CLI, ALG),
}

#: call counters without a span: their time is their callers' self time
COUNTERS = {"scalar.add": (CLI, ALG), "scalar.mul": (CLI, ALG),
            "scalar.inverse": (CLI, ALG)}

#: spans whose distinct inputs are counted, for ``<span>.distinct_frac``
DISTINCT = ("eta.weyl_sum", "series.ahat_series")

#: lru caches pooled into ``<name>.cache_hit_frac``
CACHES = ("octonion", "forms", "rep.freudenthal")

#: every per-layer metric: (name, unit, better)
PER_LAYER = (
    [(s + suffix, unit, "lower") for s in SPANS
     for suffix, unit in ((".calls", "count"), (".self_s", "s"))]
    + [(c + ".calls", "count", "lower") for c in COUNTERS]
    + [(s + ".distinct_frac", "ratio", "higher") for s in DISTINCT]
    + [("matrix.matmul.products", "count", "lower")]
    + [(c + ".cache_hit_frac", "ratio", "higher") for c in CACHES]
    + [("trace.run_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
)


class Tracer:
    """Spans and counters of one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.keys = {name: set() for name in DISTINCT}
        self.caches = {}
        self._stack = []

    def span(self, name, fn, key=None, on_call=None, name_of=None):
        """Wrap ``fn`` in a span.  ``key`` maps the arguments to a
        hashable input for the distinct count; ``on_call`` sees the
        arguments; ``name_of`` renames the span from its result."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        seen = self.keys.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if key is not None:
                seen.add(key(*args, **kwargs))
            if on_call is not None:
                on_call(*args)
            stack.append(0.0)
            span_name = name
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if name_of is not None:
                    span_name = name_of(result)
                return result
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                calls[span_name] += 1
                self_s[span_name] += dur - child

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def record(self) -> dict:
        """The process's spans, counters and cache statistics as JSON."""
        caches = {}
        for name, fns in self.caches.items():
            infos = [f.cache_info() for f in fns]
            caches[name] = [sum(i.hits for i in infos),
                            sum(i.misses for i in infos)]
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.keys.items()},
                "caches": caches}


# -- every binding of a wrapped function -----------------------------------------


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "berger" or name.startswith("berger."))]


def _classes():
    for mod in _modules():
        for obj in vars(mod).values():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                yield obj


def _functions():
    """Every function object whose defaults berger code may use."""
    for ns in [vars(m) for m in _modules()] + [vars(c) for c in _classes()]:
        for obj in ns.values():
            obj = inspect.unwrap(getattr(obj, "__func__", obj))
            if inspect.isfunction(obj):
                yield obj


def _rebind(original, wrapper) -> None:
    for owner in _modules() + list(_classes()):
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, wrapper)
    for fn in _functions():
        if fn.__defaults__ and any(d is original for d in fn.__defaults__):
            fn.__defaults__ = tuple(wrapper if d is original else d
                                    for d in fn.__defaults__)
        if fn.__kwdefaults__:
            for k, d in fn.__kwdefaults__.items():
                if d is original:
                    fn.__kwdefaults__[k] = wrapper


def unwrapped(originals) -> list[str]:
    """Bindings through which berger code still reaches an original."""
    ids = {id(f) for f in originals}
    found = []
    for owner in _modules() + list(_classes()):
        for attr, value in vars(owner).items():
            if id(value) in ids:
                found.append("%s.%s" % (owner.__name__, attr))
    for fn in _functions():
        defaults = list(fn.__defaults__ or ()) + list((fn.__kwdefaults__ or {}).values())
        if any(id(d) in ids for d in defaults):
            found.append("%s defaults" % fn.__qualname__)
    return found


def _lru_caches(*owners):
    return [v for owner in owners for v in vars(owner).values()
            if hasattr(v, "cache_info")]


def _weyl_sum_key(bind):
    def key(*args, **kwargs):
        a = bind(*args, **kwargs)
        a.apply_defaults()
        k, direction, order, signed = a.arguments.values()
        return (k, tuple(Fraction(c) for c in direction), order, signed)
    return key


def install(tracer: Tracer) -> list:
    """Wrap every traced function of an imported berger; returns the
    originals, for :func:`unwrapped`."""
    from berger import (assembly, cli, eta, forms, liealg, matrix, octonion,
                        rep, scalar, series)

    M, L = matrix.SqrtMatrix, series.LaurentSeries
    S, R = scalar.SqrtField, rep.RootSystem
    tracer.caches = {"octonion": _lru_caches(octonion),
                     "forms": _lru_caches(forms),
                     "rep.freudenthal": _lru_caches(R)}

    def products(a, b):
        tracer.counts["matrix.matmul.products"] += a.nrows * a.ncols * b.ncols

    plan = [
        ("cli.main", cli.main, {}),
        ("assembly.compute_ek", assembly.compute_ek, {}),
        ("assembly.verify", assembly.verify, {}),
        ("eta.weyl_sum", eta.weyl_sum,
         {"key": _weyl_sum_key(inspect.signature(eta.weyl_sum).bind)}),
        ("eta.local_term", eta.local_term, {}),
        ("series.ahat_series", series.ahat_series,
         {"key": lambda c, order=series.DEFAULT_ORDER: (Fraction(c), order)}),
        ("series.reciprocal", L.reciprocal, {}),
        ("series.mul", L.__mul__, {}),
        ("series.exp", L.exp, {}),
        ("matrix.matmul", M.__matmul__, {"on_call": products}),
        ("matrix.addsub", M.__add__, {}),
        ("matrix.addsub", M.__sub__, {}),
        ("matrix.det", matrix.det, {}),
        ("matrix.tensor", M.tensor, {}),
        ("matrix.apply", M.apply, {}),
        ("liealg.structure_constants", liealg.structure_constants, {}),
        ("liealg.bracket", liealg.bracket, {}),
        ("liealg.check_jacobi", liealg.check_jacobi, {}),
        ("octonion.deformation_operator", octonion.deformation_operator, {}),
        ("octonion.minimal_polynomial_check",
         octonion.minimal_polynomial_check, {}),
        ("octonion.commutes_with_lifted_isotropy",
         octonion.commutes_with_lifted_isotropy, {}),
        ("octonion.mul", octonion.Octonion.__mul__, {}),
        ("forms.pontryagin_form", forms.pontryagin_form, {}),
        ("forms.invariant_d", forms.invariant_d, {}),
        ("forms.secondary_integral", forms.secondary_integral, {}),
        ("rep.klimyk_tensor", R.klimyk_tensor, {}),
        ("rep.freudenthal", vars(R)["_freudenthal"], {}),
        ("rep.branch", rep._branch, {}),
    ]
    for name in sorted(vars(assembly)):
        if name.startswith("check_"):
            plan.append(("assembly.check", getattr(assembly, name),
                         {"name_of": lambda c: "assembly.check." + c.name}))

    originals = []
    for name, fn, options in plan:
        originals.append(fn)
        _rebind(fn, tracer.span(name, fn, **options))
    for name, fn in (("scalar.add", S.__add__), ("scalar.mul", S.__mul__),
                     ("scalar.inverse", S.inverse)):
        originals.append(fn)
        _rebind(fn, tracer.counter(name, fn))
    return originals


def layer_metrics(records: list) -> dict:
    """Per-layer metrics of one pass from the records of its processes.

    Calls, self times and counts add up over the processes; a distinct
    fraction is the distinct inputs seen per process, summed, over the
    calls; a cache hit fraction pools the hits and misses of the
    processes.  A ratio with nothing to count reads 0.
    """
    calls, self_s, counts, distinct = Counter(), Counter(), Counter(), Counter()
    hits, lookups = Counter(), Counter()
    for r in records:
        calls.update(r["calls"])
        self_s.update(r["self_s"])
        counts.update(r["counts"])
        distinct.update(r["distinct"])
        for name, (h, m) in r["caches"].items():
            hits[name] += h
            lookups[name] += h + m
    out = {}
    for s in SPANS:
        out[s + ".calls"] = calls[s]
        out[s + ".self_s"] = self_s[s]
    for c in COUNTERS:
        out[c + ".calls"] = counts[c]
    for s in DISTINCT:
        out[s + ".distinct_frac"] = distinct[s] / calls[s] if calls[s] else 0.0
    out["matrix.matmul.products"] = counts["matrix.matmul.products"]
    for c in CACHES:
        out[c + ".cache_hit_frac"] = hits[c] / lookups[c] if lookups[c] else 0.0
    return out
