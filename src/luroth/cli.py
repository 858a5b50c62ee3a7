"""Command-line front end.

Commands: `poncelet`, `quartic analyze`, `quartic tangent`, `family`,
`verify`.  Output is deterministic; `--json` switches every command to a
machine-readable report.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 mathematical precondition failure, 4 internal error (any
other exception: one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import nodal, poncelet, verify
from .forms import HomogeneityError, ParseError, PreconditionError, parse_form
from .poncelet import DUAL_VARS, PARAM_VARS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


def _parse_point(text: str, arity: int) -> tuple[Fraction, ...]:
    parts = text.split(":")
    if len(parts) != arity:
        raise InputError(f"expected {arity} colon-separated coordinates, got {text!r}")
    point = tuple(_parse_rational(p) for p in parts)
    if all(x == 0 for x in point):
        raise InputError("the zero vector is not a projective point")
    return point


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if key == "command":
            continue
        if isinstance(value, dict):
            print(f"{key}:")
            for k, v in value.items():
                print(f"  {k}: {v}")
        elif isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _form_field(form, as_json: bool):
    return form.to_json() if as_json else str(form)


def cmd_poncelet(args) -> int:
    as_json = args.json
    try:
        if args.conic == "standard":
            conic = poncelet.standard_conic()
        else:
            parts = args.conic.split(";")
            if len(parts) != 3:
                raise InputError("--conic expects 'standard' or three forms 'p0;p1;p2'")
            p0, p1, p2 = (parse_form(p, PARAM_VARS) for p in parts)
            conic = poncelet.make_conic(p0, p1, p2)
        gamma1 = parse_form(args.gamma1, PARAM_VARS)
        gamma2 = parse_form(args.gamma2, PARAM_VARS)
        pencil = poncelet.PonceletPencil(gamma1, gamma2)
        curve = poncelet.poncelet_curve(conic, pencil)
    except (ParseError, HomogeneityError, InputError, PreconditionError, ValueError) as exc:
        _emit({"status": "error", "message": str(exc)}, as_json)
        return EXIT_INPUT_ERROR
    report = {
        "command": "poncelet",
        "status": "ok",
        "conic": _form_field(conic.implicit, as_json),
        "curve": _form_field(curve, as_json),
        "degree": curve.degree,
        "base_point_free": poncelet.is_base_point_free(pencil),
    }
    if args.vertices:
        try:
            params = [_parse_point(p, 2) for p in args.vertices.split(",")]
            incidences = []
            for i in range(len(params)):
                for j in range(i + 1, len(params)):
                    vertex = poncelet.chord_dual(conic, params[i], params[j])
                    on_curve = curve.evaluate(vertex) == 0
                    label = ":".join(str(x) for x in vertex)
                    if as_json:
                        incidences.append({"pair": [i, j], "vertex": label,
                                           "on_curve": on_curve})
                    else:
                        incidences.append(
                            f"({i},{j}) -> [{label}] "
                            + ("on-curve" if on_curve else "off-curve"))
            report["vertices"] = incidences
        except (InputError, PreconditionError) as exc:
            _emit({"status": "error", "message": str(exc)}, as_json)
            return EXIT_INPUT_ERROR
    _emit(report, as_json)
    return EXIT_OK


def cmd_quartic_analyze(args) -> int:
    as_json = args.json
    try:
        quartic = parse_form(args.f, DUAL_VARS)
        node = _parse_point(args.node, 3)
        if quartic.degree != 4 or quartic.is_zero():
            raise InputError("--f must be a nonzero quartic")
    except (ParseError, HomogeneityError, InputError) as exc:
        _emit({"status": "error", "message": str(exc)}, as_json)
        return EXIT_INPUT_ERROR
    try:
        analysis = nodal.classify(quartic, node)
    except nodal.NodeError as exc:
        _emit({"command": "quartic analyze", "status": "error",
               "message": "node verification failed",
               "node_report": exc.report.flags()}, as_json)
        return EXIT_PRECONDITION
    data = analysis.conic_data
    dec = analysis.decomposition
    report = {
        "command": "quartic analyze",
        "status": "ok",
        "node_report": analysis.report.flags(),
        "f2": _form_field(dec.f2, as_json),
        "f3": _form_field(dec.f3, as_json),
        "f4": _form_field(dec.f4, as_json),
        "phi": _form_field(data.phi, as_json),
        "psi": _form_field(data.psi, as_json),
        "conic": _form_field(data.conic, as_json),
        "det3": str(data.det3),
        "disc_phi2_plus_psi": str(data.disc_binary),
        "verdict": "TypeII" if analysis.type_two else "NotTypeII",
    }
    if analysis.conic_singular_point is not None:
        report["conic_singular_point"] = ":".join(
            str(x) for x in analysis.conic_singular_point)
    _emit(report, as_json)
    return EXIT_OK


def cmd_quartic_tangent(args) -> int:
    as_json = args.json
    try:
        quartic = parse_form(args.f, DUAL_VARS)
        direction = parse_form(args.g, DUAL_VARS)
        node = _parse_point(args.node, 3)
        if quartic.degree != 4 or direction.degree != 4:
            raise InputError("--f and --g must be quartics")
    except (ParseError, HomogeneityError, InputError) as exc:
        _emit({"status": "error", "message": str(exc)}, as_json)
        return EXIT_INPUT_ERROR
    try:
        analysis = nodal.classify(quartic, node)
        result = nodal.tangent_map(analysis.decomposition, analysis.conic_data,
                                   direction)
    except PreconditionError as exc:
        _emit({"command": "quartic tangent", "status": "error",
               "message": str(exc)}, as_json)
        return EXIT_PRECONDITION
    report = {
        "command": "quartic tangent",
        "status": "ok",
        "xi": [str(x) for x in result.xi],
        "phi_dot": _form_field(result.phi_dot, as_json),
        "psi_dot": _form_field(result.psi_dot, as_json),
        "conic_velocity": _form_field(result.conic_velocity, as_json),
    }
    _emit(report, as_json)
    return EXIT_OK


def cmd_family(args) -> int:
    as_json = args.json
    try:
        param = _parse_rational(args.param)
        matrix = poncelet.family_matrix(args.name, param)
    except (InputError, ValueError) as exc:
        _emit({"status": "error", "message": str(exc)}, as_json)
        return EXIT_INPUT_ERROR
    det = matrix.determinant()
    rows = [[str(matrix.entry(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]
    report = {
        "command": "family",
        "status": "ok",
        "name": args.name,
        "param": str(param),
        "matrix": rows if as_json else ["[" + ", ".join(r) + "]" for r in rows],
        "determinant": _form_field(det, as_json),
        "curve": _form_field(det.lex_normalized(), as_json),
    }
    _emit(report, as_json)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks()
    all_ok = all(r.passed for r in results)
    if args.json:
        print(json.dumps({
            "command": "verify",
            "status": "ok" if all_ok else "failed",
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
        }, indent=2, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        print(f"{'all checks passed' if all_ok else 'SOME CHECKS FAILED'}")
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luroth",
        description="Poncelet jumping-line curves and nodal quartic analysis "
                    "in exact rational arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poncelet", help="curve of jumping lines of a pencil on a conic")
    p.add_argument("--conic", default="standard",
                   help="'standard' or three degree-2 forms 'p0;p1;p2' in (s0,s1)")
    p.add_argument("--gamma1", required=True, help="first pencil generator in (s0,s1)")
    p.add_argument("--gamma2", required=True, help="second pencil generator in (s0,s1)")
    p.add_argument("--vertices", default=None,
                   help="comma-separated parameter points a:b for the chord-dual table")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_poncelet)

    q = sub.add_parser("quartic", help="nodal quartic pipeline")
    qsub = q.add_subparsers(dest="subcommand", required=True)
    qa = qsub.add_parser("analyze", help="node report, decomposition, conic, verdict")
    qa.add_argument("--f", required=True, help="quartic in (u,v,w)")
    qa.add_argument("--node", required=True, help="rational projective point a:b:c")
    qa.add_argument("--json", action="store_true")
    qa.set_defaults(func=cmd_quartic_analyze)
    qt = qsub.add_parser("tangent", help="first-order motion of the associated conic")
    qt.add_argument("--f", required=True, help="quartic in (u,v,w)")
    qt.add_argument("--node", required=True, help="rational projective point a:b:c")
    qt.add_argument("--g", required=True, help="direction quartic vanishing at the node")
    qt.add_argument("--json", action="store_true")
    qt.set_defaults(func=cmd_quartic_tangent)

    f = sub.add_parser("family", help="one of the worked 6x6 determinantal families")
    f.add_argument("--name", required=True, choices=list(poncelet.FAMILY_NAMES))
    f.add_argument("--param", default="0", help="rational parameter (ignored for 92)")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_family)

    v = sub.add_parser("verify", help="replay all worked identities")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)
    return parser


_VALUE_FLAGS = {"--conic", "--gamma1", "--gamma2", "--vertices", "--f",
                "--node", "--g", "--name", "--param"}


def _join_flag_values(argv):
    """Glue values onto their flags so leading minus signs survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_join_flag_values(list(argv)))
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI's error contract is total
        message = " ".join(str(exc).splitlines())
        print(f"luroth: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
