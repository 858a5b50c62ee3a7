"""Command-line front end.

Commands: `poncelet`, `quartic analyze`, `quartic tangent`, `family`,
`verify`.  Output is deterministic; `--json` switches every command to a
machine-readable report.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 mathematical precondition failure, 4 internal error (any
other exception: one line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import sys

from . import nodal, poncelet
from .forms import (MAX_DEGREE, PreconditionError, parse_form, projective_ints, rational_literal,
                    rational_text)
from .poncelet import DUAL_VARS, PARAM_VARS

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4
MAX_VERTICES = MAX_DEGREE + 2  # k parameters print k*(k-1)/2 chords


def _parse_point(text: str, arity: int) -> list[int]:
    parts = text.split(":")
    if len(parts) != arity:
        raise ValueError(f"expected {arity} colon-separated coordinates, got {text!r}")
    return projective_ints([rational_literal(p) for p in parts])


def _emit(report: dict, as_json: bool):
    """Print a report; a form value prints as its text, or its JSON report."""
    if as_json:
        import json  # only --json needs it; every command pays for an import
        print(json.dumps(report, indent=2, sort_keys=True, default=lambda f: f.to_json()))
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


def _fail(as_json: bool, message: str, code: int = EXIT_INPUT_ERROR,
          command: str | None = None, **extra) -> int:
    """Emit an error report and return its exit code."""
    head = {"command": command} if command else {}
    _emit({**head, "status": "error", "message": message, **extra}, as_json)
    return code


def cmd_poncelet(args) -> int:
    as_json = args.json
    try:
        if args.conic == "standard":
            conic = poncelet.standard_conic()
        else:
            parts = args.conic.split(";")
            if len(parts) != 3:
                raise ValueError("--conic expects 'standard' or three forms 'p0;p1;p2'")
            p0, p1, p2 = (parse_form(p, PARAM_VARS) for p in parts)
            conic = poncelet.make_conic(p0, p1, p2)
        gamma1 = parse_form(args.gamma1, PARAM_VARS)
        gamma2 = parse_form(args.gamma2, PARAM_VARS)
        pencil = poncelet.PonceletPencil(gamma1, gamma2)
        vertices = args.vertices.split(",") if args.vertices else []
        if len(vertices) > MAX_VERTICES:
            raise ValueError(f"--vertices: {len(vertices)} parameters, at most {MAX_VERTICES}")
        params = [_parse_point(p, 2) for p in vertices]
        chords = [(i, j, poncelet.chord_dual(conic, params[i], params[j]))
                  for i in range(len(params)) for j in range(i + 1, len(params))]
        curve = poncelet.poncelet_curve(conic, pencil)  # the costly step, once the input is sound
    except PreconditionError as exc:
        return _fail(as_json, str(exc), EXIT_PRECONDITION)
    except ValueError as exc:
        return _fail(as_json, str(exc))
    report = {
        "command": "poncelet",
        "status": "ok",
        "conic": conic.implicit,
        "curve": curve,
        "degree": curve.degree,
        "base_point_free": poncelet.is_base_point_free(pencil),
    }
    if args.vertices:
        incidences, jumping = [], poncelet.jumping_chords(pencil, params)
        for i, j, vertex in chords:
            on_curve = (i, j) in jumping
            label = ":".join(map(rational_text, vertex))
            if as_json:
                incidences.append({"pair": [i, j], "vertex": label, "on_curve": on_curve})
            else:
                incidences.append(f"({i},{j}) -> [{label}] "
                                  + ("on-curve" if on_curve else "off-curve"))
        report["vertices"] = incidences
    _emit(report, as_json)
    return EXIT_OK


def cmd_quartic_analyze(args) -> int:
    as_json = args.json
    try:
        quartic = parse_form(args.f, DUAL_VARS)
        node = _parse_point(args.node, 3)
        if quartic.degree != 4:  # a zero polynomial reads as degree 0
            raise ValueError("--f must be a nonzero quartic")
    except ValueError as exc:
        return _fail(as_json, str(exc))
    try:
        analysis = nodal.classify(quartic, node)
    except nodal.NodeError as exc:
        return _fail(as_json, "node verification failed", EXIT_PRECONDITION,
                     "quartic analyze", node_report=exc.report.flags())
    data = analysis.conic_data
    dec = analysis.decomposition
    report = {
        "command": "quartic analyze",
        "status": "ok",
        "node_report": analysis.report.flags(),
        "f2": dec.f2,
        "f3": dec.f3,
        "f4": dec.f4,
        "phi": data.phi,
        "psi": data.psi,
        "conic": data.conic,
        "det3": rational_text(data.det3),
        "disc_phi2_plus_psi": rational_text(data.disc_binary),
        "verdict": "TypeII" if analysis.type_two else "NotTypeII",
    }
    if analysis.conic_singular_point is not None:
        report["conic_singular_point"] = ":".join(
            map(rational_text, analysis.conic_singular_point))
    _emit(report, as_json)
    return EXIT_OK


def cmd_quartic_tangent(args) -> int:
    as_json = args.json
    try:
        quartic = parse_form(args.f, DUAL_VARS)
        direction = parse_form(args.g, DUAL_VARS)
        node = _parse_point(args.node, 3)
        if quartic.degree != 4 or direction.degree != 4:
            raise ValueError("--f and --g must be quartics")
    except ValueError as exc:
        return _fail(as_json, str(exc))
    try:
        analysis = nodal.classify(quartic, node)
        result = nodal.tangent_map(analysis.decomposition, analysis.conic_data,
                                   direction)
    except PreconditionError as exc:
        return _fail(as_json, str(exc), EXIT_PRECONDITION, "quartic tangent")
    report = {
        "command": "quartic tangent",
        "status": "ok",
        "xi": [rational_text(x) for x in result.xi],
        "phi_dot": result.phi_dot,
        "psi_dot": result.psi_dot,
        "conic_velocity": result.conic_velocity,
    }
    _emit(report, as_json)
    return EXIT_OK


def cmd_family(args) -> int:
    as_json = args.json
    try:
        param = rational_literal(args.param)
        matrix = poncelet.family_matrix(args.name, param)
    except ValueError as exc:
        return _fail(as_json, str(exc))
    det = matrix.determinant()
    rows = [[str(matrix.entry(i, j)) for j in range(matrix.cols)]
            for i in range(matrix.rows)]
    report = {
        "command": "family",
        "status": "ok",
        "name": args.name,
        "param": rational_text(param),
        "matrix": rows if as_json else ["[" + ", ".join(r) + "]" for r in rows],
        "determinant": det,
        "curve": det.lex_normalized(),
    }
    _emit(report, as_json)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # only this command runs the checks
    results = verify.run_checks()
    all_ok = all(r.passed for r in results)
    if args.json:
        _emit({
            "command": "verify",
            "status": "ok" if all_ok else "failed",
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
        }, True)
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
    out, rest = [], iter(argv)
    for token in rest:
        value = next(rest, None) if token in _VALUE_FLAGS else None
        out.append(token if value is None else f"{token}={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
    # argparse drops a "--" value, leaving [] where the flag's text belongs
    empty = next((k for k, v in vars(args).items() if v == []), None)
    if empty:
        parser.error(f"argument --{empty}: expected a value, got '--'")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI's error contract is total
        message = " ".join(str(exc).splitlines())
        print(f"luroth: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
