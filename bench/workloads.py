"""The three workloads: their seeded inputs and the in-process passes.

Every draw comes from ``random.Random(seed)``, so one seed always gives
the same inputs.  Counts are fixed and label sizes bounded, so the work
of a pass hardly depends on the draw.  The cost of an eta term still
varies by about 10% with its direction, so a run draws a pool of
directions and every pass rotates them over its calls
(:func:`pass_inputs`): a run's median then averages over the pool.
The program sees only the generated inputs, never the seed.

``cli-session`` runs cold ``berger`` processes and is driven from
``run.py``; the two other workloads run one pass per fresh interpreter
through ``worker.py``, which calls :func:`run_pass`.
"""
import random
from fractions import Fraction as F
from itertools import combinations

from gate import Tally
from refclock import Clock

WORKLOADS = ("cli-session", "eta-sweep", "algebra-certs")

#: truncation orders of the eta sweep: just above the pole depth (5) up
#: to the order where the series layer hits its scaling wall
ETA_LADDER = (6, 12, 24, 40, 60)
ETA_TWISTS = (0, 3)
#: directions are drawn from [1, DIRECTION_BOUND]^2, which holds 24
#: that the eta layer accepts
DIRECTION_BOUND = 6
#: directions rotated over the passes of a cli-session run
CLI_DIRECTIONS = 5
OCTONION_PAIRS = 40
#: labels per group in the representation pool
REP_POOL = 6
REP_BOXES = {
    # spins 0, 1/2, ..., 3
    "A1": [str(F(k, 2)) for k in range(7)],
    # (p, q), p >= q >= 0, p - q integral, p <= 2
    "B2": [[str(F(p, 2)), str(F(q, 2))] for p in range(5)
           for q in range(p + 1) if (p - q) % 2 == 0],
    # (a, b), a + b <= 2
    "G2": [[str(a), str(b)] for a in range(3) for b in range(3) if a + b <= 2],
}

def _directions(rng: random.Random, count: int) -> list:
    """``count`` distinct integer directions that the eta layer accepts."""
    from berger.eta import validate_direction

    out = []
    while len(out) < count:
        d = [rng.randint(1, DIRECTION_BOUND), rng.randint(1, DIRECTION_BOUND)]
        if d in out:
            continue
        try:
            validate_direction(tuple(d))
        except ValueError:
            continue
        out.append(d)
    return out


def generate(workload: str, seed: int) -> dict:
    """The inputs of one run, as plain JSON-able data."""
    rng = random.Random(seed)
    if workload == "cli-session":
        return {"directions": _directions(rng, CLI_DIRECTIONS)}
    if workload == "eta-sweep":
        return {"ladder": list(ETA_LADDER), "twists": list(ETA_TWISTS),
                "directions": _directions(
                    rng, len(ETA_LADDER) * len(ETA_TWISTS))}
    if workload == "algebra-certs":
        def coord():
            return str(F(rng.randint(-4, 4), rng.randint(1, 3)))
        pairs = [[[coord() for _ in range(8)] for _ in range(2)]
                 for _ in range(OCTONION_PAIRS)]
        pools = {g: [rng.choice(box) for _ in range(REP_POOL)]
                 for g, box in REP_BOXES.items()}
        return {"octonion_pairs": pairs, "rep_pools": pools}
    raise ValueError("unknown workload %r" % (workload,))


def pass_inputs(workload: str, inputs: dict, n: int) -> dict:
    """The inputs of pass ``n`` of a run.  cli-session takes the pool's
    directions in turn; eta-sweep gives each call its own direction of
    the pool, shifted by one call per pass, so no input repeats within
    a pass."""
    if workload == "cli-session":
        pool = inputs["directions"]
        return {"direction": pool[n % len(pool)]}
    if workload == "eta-sweep":
        pool = inputs["directions"]
        calls = [(k, order) for order in inputs["ladder"]
                 for k in inputs["twists"]]
        return {"calls": [{"twist": k, "order": order,
                           "direction": pool[(j + n) % len(pool)]}
                          for j, (k, order) in enumerate(calls)]}
    return inputs


# -- in-process passes ---------------------------------------------------------


def _call(tally: Tally, clock: Clock, name: str, fn, check) -> None:
    """Time ``fn()`` on ``clock``, then check its result; ``check``
    returns '' when the result is right and the reason otherwise.  A
    raised exception counts as a failed result and the pass goes on."""
    try:
        result = clock.time(name, fn)
    except Exception as err:  # counted in failed, the pass goes on
        tally.record(name, False, "%s: %s" % (type(err).__name__, err))
        return
    try:
        why = check(result)
    except Exception as err:  # a malformed result is a wrong result
        why = "check raised %s: %s" % (type(err).__name__, err)
    tally.record(name, not why, why)


def _eta_sweep(inputs, refs, tally, clock):
    from berger import eta

    for c in inputs["calls"]:
        k, order, direction = c["twist"], c["order"], tuple(c["direction"])
        want = refs["eta_dirac"] if k == 0 else refs["local3"]
        _call(tally, clock, "local_term.order%d" % order,
              lambda: eta.local_term(k, direction, order),
              lambda v: "" if v == want else "got %s, expected %s" % (v, want))


def _label(system: str, raw):
    if system == "A1":
        return F(raw)
    return tuple(F(c) for c in raw)


def _algebra_certs(inputs, refs, tally, clock):
    from berger import assembly, forms, liealg, octonion, rep
    from berger.matrix import SqrtMatrix
    from berger.scalar import PiScalar, SqrtField

    t = SqrtField.term

    def antisymmetric(c):
        for i in range(7):
            for j in range(7):
                for k in range(7):
                    if not c[i][j][k] == -c[j][i][k] == -c[i][k][j]:
                        return "antisymmetry fails at %r" % ((i, j, k),)
        return ""

    _call(tally, clock, "structure_constants", liealg.structure_constants,
          antisymmetric)
    _call(tally, clock, "check_jacobi",
          lambda: liealg.check_jacobi(combinations(range(10), 3)),
          lambda bad: "" if bad is None else "fails at triple %r" % (bad,))

    for xc, yc in inputs["octonion_pairs"]:
        x = octonion.Octonion([F(c) for c in xc])
        y = octonion.Octonion([F(c) for c in yc])
        _call(tally, clock, "octonion_laws",
              lambda: ((x * x) * y, x * (x * y), (y * x) * x, y * (x * x),
                       (x * y).norm2(), x.norm2() * y.norm2()),
              lambda r: "" if r[0] == r[1] and r[2] == r[3] and r[4] == r[5]
              else "alternativity or composition fails")

    def anticommutators():
        cl = octonion.unit_cliffords()
        return [(i, j, cl[i] @ cl[j] + cl[j] @ cl[i])
                for i in range(7) for j in range(i, 7)]

    def clifford_ok(pairs):
        minus_two = SqrtMatrix.identity(8).scale(-2)
        for i, j, anti in pairs:
            if anti != (minus_two if i == j else SqrtMatrix.zeros(8)):
                return "anticommutator fails at %r" % ((i, j),)
        return ""

    _call(tally, clock, "clifford_relations", anticommutators, clifford_ok)
    _call(tally, clock, "deformation_operator", octonion.deformation_operator,
          lambda m: "" if (m.nrows, m.ncols) == (64, 64) and m.trace().is_zero()
          and m.is_symmetric() else "not a traceless symmetric 64x64 matrix")

    trivial = SqrtMatrix([[t(F(7, 10), 5), t(F(-3, 10), 35)],
                          [t(F(-3, 10), 35), t(F(1, 2), 5)]])
    standard = SqrtMatrix([[t(F(-1, 10), 5), t(F(3, 10), 5), t(F(3, 10), 30)],
                           [t(F(3, 10), 5), t(F(7, 10), 5), t(F(1, 10), 30)],
                           [t(F(3, 10), 30), t(F(1, 10), 30), t(F(-2, 5), 5)]])
    _call(tally, clock, "operator_blocks",
          lambda: (octonion.trivial_component_block(),
                   octonion.standard_component_block(),
                   octonion.action_scalar(octonion.adjoint_sample_vector()),
                   [octonion.action_scalar(v)
                    for v in octonion.traceless_sample_vectors()]),
          lambda r: "" if r[0] == trivial and r[1] == standard
          and r[2] == t(F(1, 5), 5) and all(s == t(F(-1, 5), 5) for s in r[3])
          else "isotypic blocks or scalar actions differ")
    _call(tally, clock, "minimal_polynomial_check",
          octonion.minimal_polynomial_check,
          lambda ok: "" if ok is True else "shifted product is nonzero")
    _call(tally, clock, "commutes_with_lifted_isotropy",
          octonion.commutes_with_lifted_isotropy,
          lambda ok: "" if ok is True else "commutator is nonzero")
    _call(tally, clock, "spectral_gap_certificate",
          assembly.spectral_gap_certificate,
          lambda ok: "" if ok is True else "certificate failed")

    coeff = PiScalar.of(SqrtField.term(F(21, 25)), -2)
    _call(tally, clock, "pontryagin_form", forms.pontryagin_form,
          lambda p1: "" if p1.proportionality(forms.g2_four_form()) == coeff
          else "not (21/25) pi^-2 times the four-form")
    for d_sign in (1, -1):
        p1 = forms.pontryagin_form()
        _call(tally, clock, "primitive",
              lambda: forms.solve_primitive(p1, d_sign),
              lambda h: "" if forms.invariant_d(h, d_sign) == p1
              else "d h != p1 for d_sign %d" % d_sign)
        want = d_sign * refs["secondary"]
        _call(tally, clock, "secondary_integral",
              lambda: forms.secondary_integral(d_sign),
              lambda v: "" if v == want else "got %s, expected %s" % (v, want))

    branchers = {"B2": lambda lab: rep.branch_so5_to_so3(*lab),
                 "G2": rep.branch_principal_sl2}
    for group, raw in inputs["rep_pools"].items():
        system = getattr(rep, group)
        pool = [_label(group, r) for r in raw]
        for a, b in zip(pool, pool[1:] + pool[:1]):
            def dims_multiply(parts, a=a, b=b):
                total = sum(m * system.weyl_dimension(lab) for lab, m in parts)
                want = system.weyl_dimension(a) * system.weyl_dimension(b)
                if any(m <= 0 for _, m in parts) or total != want:
                    return "dimensions add to %d, expected %d" % (total, want)
                return ""
            _call(tally, clock, "klimyk_tensor",
                  lambda: system.klimyk_tensor(a, b), dims_multiply)
        if group in branchers:
            for lab in pool:
                def dims_add(parts, lab=lab):
                    total = sum(m * (2 * k + 1) for k, m in parts)
                    want = system.weyl_dimension(lab)
                    return "" if total == want else \
                        "dimensions add to %s, expected %d" % (total, want)
                _call(tally, clock, "branch",
                      lambda: branchers[group](lab), dims_add)


_PASSES = {"eta-sweep": _eta_sweep, "algebra-certs": _algebra_certs}


def run_pass(workload: str, inputs: dict, refs: dict,
             clock: Clock | None = None) -> tuple[Tally, dict]:
    """One checked pass in this interpreter: the tally and, per call
    name, the reference-speed time of every call that returned."""
    tally, clock = Tally(), clock or Clock()
    _PASSES[workload](inputs, refs, tally, clock)
    clock.flush()
    return tally, clock.timings
