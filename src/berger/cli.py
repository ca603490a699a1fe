"""Command-line front end.

Subcommands mirror the layers of the computation and load only the layers
they use: ``ek`` assembles the invariant, ``eta`` and ``forms`` and
``spectrum`` expose the ingredients, ``rep`` answers representation-theoretic
queries, ``classify`` prints the topological consequences, and ``verify``
runs the named cross-check suites.  Exit code 0 means success, 1 a failed
verification or certificate, 2 a usage error.
"""
import argparse
import re
import sys
from fractions import Fraction as F


def rational_to_json(q: F) -> dict:
    """Exact JSON form of a rational: {"num": str, "den": str}."""
    q = F(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _report_payload(report, suites: list) -> dict:
    return {
        "ek": rational_to_json(report.ek),
        "eta_dirac": rational_to_json(report.eta_dirac),
        "eta_signature": rational_to_json(report.eta_signature),
        "secondary_integral": rational_to_json(report.secondary_integral),
        "intermediate": rational_to_json(report.intermediate),
        "s1_mod1": rational_to_json(report.s1),
        "harmonic_spinors": report.harmonic_spinors,
        "orientation": report.orientation,
        "suites": suites,
    }


def _report_lines(report) -> list[str]:
    return [
        "eta defect, Dirac operator:     %s" % report.eta_dirac,
        "eta defect, signature operator: %s" % report.eta_signature,
        "harmonic spinors:               %d" % report.harmonic_spinors,
        "spectral stage:                 %s" % report.intermediate,
        "secondary integral:             %s" % report.secondary_integral,
        "ek invariant:                   %s" % report.ek,
        "PL invariant, 28*ek mod 1:      %s" % report.s1,
        "orientation:                    %s" % report.orientation,
    ]


def _direction(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a direction of the form U,V (example: 5,1)")
    return (u, v)


def _label(text: str) -> tuple[F, ...]:
    try:
        return tuple(F(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "expected a comma-separated label such as 0,1 or 1/2,1/2 or 3")


def _system_label(group: str, label: tuple[F, ...]):
    expected = 1 if group == "spin" else 2
    if len(label) != expected:
        raise SystemExit2("group %r takes a %d-component label" %
                          (group, expected))
    return label[0] if group == "spin" else label


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        print("error: %s" % message, file=sys.stderr)
        super().__init__(2)


def cmd_ek(args) -> int:
    from . import invariant
    report = invariant.compute_ek(orientation=args.orientation)
    if args.json:
        import json
        print(json.dumps(_report_payload(report, []), indent=2))
    else:
        print("\n".join(_report_lines(report)))
    return 0


def cmd_eta(args) -> int:
    from . import eta
    order = eta.DEFAULT_ORDER if args.order is None else args.order
    if args.term == "dirac":
        value = eta.eta_dirac(args.direction, order)
        label = "eta defect of the Dirac operator"
    elif args.term == "signature":
        value = eta.eta_signature(args.direction, order)
        label = "eta defect of the signature operator"
    else:
        twist = 0 if args.term == "local0" else 3
        value = eta.local_term(twist, args.direction, order)
        label = "local term, twist %d" % twist
    print("%s at direction %r, order %d: %s"
          % (label, args.direction, order, value))
    return 0


def cmd_spectrum(args) -> int:
    from . import matrix, octonion
    print("eigenvalues of the deformed operator:")
    for lam in octonion.spectrum():
        print("  %s" % lam)
    print("trivial-component block:")
    print(octonion.trivial_component_block())
    print("standard-component block:")
    print(octonion.standard_component_block())
    print("adjoint / traceless scalar actions: %s / %s"
          % (octonion.action_scalar(octonion.adjoint_sample_vector()),
             octonion.action_scalar(octonion.traceless_sample_vectors()[0])))
    print("trivial-family determinant:")
    for mu in (F(0), F(1, 4), F(1, 2)):
        d = matrix.det(octonion.trivial_family_matrix(mu))
        print("  mu = %s: %s" % (mu, d if not d.is_zero() else "0 (singular)"))
    return 0


def cmd_forms(args) -> int:
    from . import forms
    show = args.show
    if show in ("pontryagin", "all"):
        coeff = forms.pontryagin_form().proportionality(forms.g2_four_form())
        print("Pontryagin form = (%s) * four-form" % coeff)
    if show in ("primitive", "all"):
        coeff = forms.solve_primitive(
            forms.pontryagin_form()).proportionality(forms.g2_three_form())
        print("primitive of the Pontryagin form = (%s) * three-form" % coeff)
    if show in ("product", "all"):
        coeff = forms.g2_three_form().wedge(
            forms.g2_four_form()).proportionality(forms.volume_form())
        print("three-form wedge four-form = (%s) * volume form" % coeff)
    if show in ("volumes", "all"):
        print("vol(isotropy group)  = %s" % forms.vol_h())
        print("vol(isometry group)  = %s" % forms.vol_so5())
        print("vol(quotient)        = %s" % forms.vol_m())
    if show in ("integral", "all"):
        print("secondary integral   = %s" % forms.secondary_integral())
    return 0


def cmd_rep(args) -> int:
    from . import rep
    system = {"g2": rep.G2, "so5": rep.B2, "spin": rep.A1}[args.group]
    if args.dim is not None:
        label = _system_label(args.group, args.dim)
        print("dim %s = %d" % (rep.format_label(label),
                               system.weyl_dimension(label)))
    elif args.tensor is not None:
        a, b = (_system_label(args.group, label) for label in args.tensor)
        parts = ["%s x%d" % (rep.format_label(label), m) if m > 1
                 else rep.format_label(label)
                 for label, m in system.klimyk_tensor(a, b)]
        print("%s (x) %s = %s" % (rep.format_label(a), rep.format_label(b),
                                  "  +  ".join(parts)))
    elif args.branch is not None:
        label = _system_label(args.group, args.branch)
        if args.group == "g2":
            branched = rep.branch_principal_sl2(label)
        elif args.group == "so5":
            branched = rep.branch_so5_to_so3(*label)
        else:
            raise SystemExit2("branching is defined for --group g2 and so5")
        parts = ["spin %s%s" % (k, " x%d" % m if m > 1 else "")
                 for k, m in branched]
        print("%s restricts to %s" % (rep.format_label(label),
                                      "  +  ".join(parts)))
    elif args.verify_split:
        pieces = rep.imaginary_square_pieces()
        print("square of the 7-dimensional module:")
        for label, m in pieces:
            spins = ", ".join("spin %s" % k
                              for k, _ in rep.branch_principal_sl2(label))
            print("  %s  dim %2d  ->  %s"
                  % (rep.format_label(label), rep.G2.weyl_dimension(label), spins))
        direct, via_g2 = rep.spinor_square_two_ways()
        agree = direct == via_g2
        disjoint = rep.disjoint_spin_content()
        print("spin content agrees along both routes: %s" % agree)
        print("summands pairwise disjoint: %s" % disjoint)
        return 0 if agree and disjoint else 1
    return 0


def cmd_classify(args) -> int:
    from . import classify
    print("\n".join(classify()))
    return 0


def cmd_verify(args) -> int:
    from . import assembly
    report = assembly.verify(args.suite)
    if args.json:
        import json
        suites = [c._asdict() for c in report.checks]
        payload = (_report_payload(report.invariant, suites)
                   if report.invariant else {"suites": suites})
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(report.lines()))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berger",
        description="Exact computation of the Eells-Kuiper invariant of "
                    "the Berger space SO(5)/SO(3).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ek", help="assemble the invariant")
    p.add_argument("--orientation", choices=("standard", "reversed"),
                   default="standard")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ek)

    p = sub.add_parser("eta", help="eta defects and their local terms")
    p.add_argument("--term", choices=("dirac", "signature", "local0", "local3"),
                   default="signature")
    p.add_argument("--direction", type=_direction, default=(5, 1),
                   metavar="U,V")
    p.add_argument("--order", type=int)  # eta.DEFAULT_ORDER if absent
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("spectrum",
                       help="eigenvalue data of the deformed operator")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("forms", help="invariant characteristic forms")
    p.add_argument("--show",
                   choices=("pontryagin", "primitive", "product",
                            "volumes", "integral", "all"),
                   default="all")
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("rep", help="representation-theoretic queries")
    p.add_argument("--group", choices=("g2", "so5", "spin"), default="g2")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--dim", type=_label, metavar="A,B")
    action.add_argument("--tensor", type=_label, nargs=2,
                        metavar=("A,B", "C,D"))
    action.add_argument("--branch", type=_label, metavar="A,B")
    action.add_argument("--verify-split", action="store_true",
                        help="re-derive the tensor-square splitting and "
                             "its disjoint spin content")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("classify", help="topological consequences")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the named cross-check suites")
    p.add_argument("--suite", choices=("fast", "all"), default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # argparse reads a value such as -1,0 or -1/2 as an option; a leading
    # space, which int and Fraction strip again, keeps it a value
    argv = [" " + a if re.match(r"-\d.*[,/]", a) else a
            for a in (sys.argv[1:] if argv is None else argv)]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        # Domain validation (degenerate directions, non-dominant labels,
        # unsupported twists, truncation orders too low) rejects bad input
        # with ValueError; at the command line that is a usage error.
        raise SystemExit2(str(err))
    except ArithmeticError as err:
        # A failed certificate or pole cancellation: the computation, not
        # the input, is at fault.
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
