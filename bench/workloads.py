"""Seeded inputs, timed operations and correctness checks for the benchmark.

Each workload is built from a seed into a list of op kinds.  An op is one
call into the library; its kind names the end-to-end metric it feeds (for
example ``curve_ms.std.n22``).  Every op's result is checked outside the
timed region, so a wrong answer counts as a failed op, never as a fast one.

The library is imported from ``src/`` next to this directory, never from
an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1


class SourceMissing(RuntimeError):
    """The checkout has no ``src/luroth`` to benchmark."""


def import_luroth():
    """Import the package from this checkout's ``src``; refuse any other copy."""
    if not (SRC / "luroth" / "__init__.py").is_file():
        raise SourceMissing(f"no luroth package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import luroth
    from luroth import cli, forms, linalg, nodal, poncelet, verify  # noqa: F401
    if Path(luroth.__file__).resolve().parent != (SRC / "luroth").resolve():
        raise SourceMissing(f"imported luroth from {luroth.__file__}, not from {SRC}")
    return luroth


class CheckFailed(Exception):
    """An op returned a result that fails its correctness check."""


def require(ok: bool, reason: str):
    if not ok:
        raise CheckFailed(reason)


@dataclass
class Op:
    """One timed call: ``run()`` is timed, ``check(result)`` is not.

    ``key`` identifies the input within its kind, so results of the first
    round can be digested and compared with the golden values.
    """

    kind: str
    key: int
    run: Callable[[], object]
    check: Callable[[object], None]
    canonical: Callable[[object], str] = str


@dataclass
class Workload:
    """A seeded workload: ``round(r)`` lists the ops of round r, in order.

    ``details`` holds what the traced run needs to size the inputs.
    ``op_kind`` is the frequent op that ``op_ms`` and its tail report; a
    kind of ``None`` means every op of the workload.  ``in_process`` is
    false when each op waits on a child process.  ``tail_by_input`` makes
    that tail a tail over the inputs: the p95 of each input's median time.
    """

    name: str
    round: Callable[[int], list[Op]]
    kinds: tuple[str, ...]
    op_kind: str | None
    input_digest: str
    details: dict = field(default_factory=dict)
    in_process: bool = True
    tail_by_input: bool = False


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# pencil-sweep: the jumping-line curve and the incidence tests

@dataclass(frozen=True)
class PencilSizes:
    """Pencil sizes n per conic, ops per round, and inputs per kind."""

    std_ns: tuple[int, ...] = (4, 8, 14, 22)
    gen_ns: tuple[int, ...] = (4, 8, 14)
    jump_n: int = 14
    pool: int = 12
    # ops of each curve kind per round, by n; cheaper kinds run more often
    per_round: tuple[tuple[int, int], ...] = ((4, 4), (8, 2), (14, 1), (22, 1))
    # lines per round from each of the two line sets, so every round mixes
    # on-curve and off-curve lines in the same proportion
    chord_lines: int = 6
    random_lines: int = 6
    lines_per_round: int = 2


# A fixed non-standard conic.  Its pullback's leading coefficient in s1 is not
# the bare coordinate v, so it sits on the other side of the Bezoutian's
# "l = v" special case from the standard conic.
GEN_CONIC = ("s0^2+2*s0*s1+3*s1^2", "2*s0^2-s0*s1+s1^2", "s0*s1-2*s1^2")


@dataclass(frozen=True)
class PencilInput:
    gamma1: str
    gamma2: str
    roots: tuple[int, ...]  # gamma1 = prod (s0 - r*s1)


def make_pencil(rng: random.Random, n: int) -> PencilInput:
    """gamma1 splits into the roots +-1, ..., +-(n+1); gamma2 is random.

    Every coefficient of both generators is nonzero, so the presentation
    matrix has the same zero pattern, and the determinant the same amount
    of work, for every draw of a given n.  A draw is redrawn when gamma2
    vanishes at a root of gamma1, which is exactly when the pencil has a
    base point; singular_jump_criterion rejects such pencils.  The kept
    generators are then independent, so the determinant can't vanish
    identically (no DegeneratePencilError): a line through two points of the
    conic is jumping only if gamma1 and gamma2 take proportional values at
    them, and that can't hold for every pair of points.
    """
    from luroth.forms import BinaryForm
    from luroth.poncelet import PARAM_VARS

    while True:
        roots = [k if rng.random() < 0.5 else -k for k in range(1, n + 2)]
        rng.shuffle(roots)
        gamma1 = BinaryForm.from_coeffs(PARAM_VARS, [1])
        for r in roots:
            gamma1 = gamma1 * BinaryForm.from_coeffs(PARAM_VARS, [1, -r])
        if all(gamma1.coeffs):
            break
    while True:
        gamma2 = BinaryForm.from_coeffs(
            PARAM_VARS, [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n + 2)])
        if all(gamma2.evaluate((r, 1)) != 0 for r in roots):
            return PencilInput(str(gamma1), str(gamma2), tuple(roots))


def integer_evaluator(curve):
    """Exact evaluation at integer points, with the curve scaled to integers.

    Scaling by a nonzero constant keeps the zero set, and integer arithmetic
    is far cheaper than Fraction arithmetic for the many incidence checks.
    """
    from math import lcm

    scale = lcm(*(c.denominator for c in curve.terms.values()))
    terms = [(e, int(c * scale)) for e, c in curve.terms.items()]
    degree = curve.degree

    def evaluate(point) -> int:
        powers = []
        for x in point:
            x = int(x)
            p = [1]
            for _ in range(degree):
                p.append(p[-1] * x)
            powers.append(p)
        pu, pv, pw = powers
        return sum(c * pu[i] * pv[j] * pw[k] for (i, j, k), c in terms)

    return evaluate


def conics():
    from luroth import poncelet
    from luroth.forms import parse_form
    from luroth.poncelet import PARAM_VARS

    return {"std": poncelet.standard_conic(),
            "gen": poncelet.make_conic(*(parse_form(p, PARAM_VARS) for p in GEN_CONIC))}


def curve_op(conic, pencil: PencilInput):
    """The timed curve op: pencil text to the normalized curve."""
    from luroth import forms, poncelet
    from luroth.poncelet import PARAM_VARS

    p = poncelet.PonceletPencil(forms.parse_form(pencil.gamma1, PARAM_VARS),
                                forms.parse_form(pencil.gamma2, PARAM_VARS))
    return poncelet.poncelet_curve(conic, p)


def check_curve(conic, pencil: PencilInput, n: int, curve):
    """Degree n, and every chord dual between roots of gamma1 on the curve."""
    from luroth import poncelet

    require(curve.degree == n and not curve.is_zero(), f"curve degree {curve.degree} != {n}")
    evaluate = integer_evaluator(curve)
    roots = pencil.roots
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            vertex = poncelet.chord_dual(conic, (roots[i], 1), (roots[j], 1))
            require(evaluate(vertex) == 0, f"chord dual {vertex} off the curve")


class VerifiedCache:
    """Checks each input's first result in full, later ones by equality."""

    def __init__(self):
        self.seen: dict = {}

    def check(self, key, result, full_check: Callable[[object], None]):
        if key in self.seen:
            require(result == self.seen[key], "result differs from an earlier run")
            return
        full_check(result)
        self.seen[key] = result


def pencil_workload(seed: int, sizes: PencilSizes = PencilSizes()) -> Workload:
    from luroth import poncelet
    from luroth.forms import parse_form
    from luroth.poncelet import PARAM_VARS

    rng = random.Random(f"pencil-sweep/{seed}")
    cs = conics()
    per_round = dict(sizes.per_round)
    pools: dict[str, tuple[str, int, list[PencilInput]]] = {}
    for conic_name, ns in (("std", sizes.std_ns), ("gen", sizes.gen_ns)):
        for n in ns:
            pools[f"curve_ms.{conic_name}.n{n}"] = (
                conic_name, n, [make_pencil(rng, n) for _ in range(sizes.pool)])

    # the incidence tests use one pencil and a fixed set of lines
    jump_pencil = make_pencil(rng, sizes.jump_n)
    pairs = [(i, j) for i in range(sizes.jump_n + 1) for j in range(i + 1, sizes.jump_n + 1)]
    chords = [poncelet.chord_dual(cs["std"], (jump_pencil.roots[i], 1), (jump_pencil.roots[j], 1))
              for i, j in rng.sample(pairs, sizes.chord_lines)]
    randoms = []
    while len(randoms) < sizes.random_lines:
        line = tuple(rng.randint(-9, 9) for _ in range(3))
        if any(line):
            randoms.append(line)
    lines = chords + randoms
    parsed_jump = poncelet.PonceletPencil(parse_form(jump_pencil.gamma1, PARAM_VARS),
                                          parse_form(jump_pencil.gamma2, PARAM_VARS))
    reference: dict = {}

    def on_curve(line) -> bool:
        # the curve is computed once, on first use, outside any timed region
        if "evaluate" not in reference:
            reference["evaluate"] = integer_evaluator(curve_op(cs["std"], jump_pencil))
        return reference["evaluate"](line) == 0

    def check_jump(line, result):
        require(result == on_curve(line),
                f"is_jumping_line{line} = {result} disagrees with the curve")

    def check_singular(line, result):
        require(isinstance(result, bool), "verdict is not a bool")
        require(not result or on_curve(line),
                f"singular jump at {line}, which is not a jumping line")

    caches = {kind: VerifiedCache() for kind in pools}

    def round_ops(r: int) -> list[Op]:
        ops = []
        for kind, (conic_name, n, pool) in pools.items():
            conic = cs[conic_name]
            count = per_round.get(n, 1)
            for k in range(count):
                key = (r * count + k) % len(pool)
                pencil = pool[key]
                cache = caches[kind]

                def check(curve, conic=conic, pencil=pencil, n=n, key=key, cache=cache):
                    cache.check(key, curve, lambda c: check_curve(conic, pencil, n, c))

                ops.append(Op(kind, key, lambda c=conic, p=pencil: curve_op(c, p), check))
        for offset, group in ((0, chords), (len(chords), randoms)):
            for k in range(sizes.lines_per_round):
                key = offset + (r * sizes.lines_per_round + k) % len(group)
                line = lines[key]
                ops.append(Op(f"jump_ms.n{sizes.jump_n}", key,
                              lambda line=line: poncelet.is_jumping_line(
                                  cs["std"], parsed_jump, line),
                              lambda res, line=line: check_jump(line, res)))
                ops.append(Op(f"singular_jump_ms.n{sizes.jump_n}", key,
                              lambda line=line: poncelet.singular_jump_criterion(
                                  cs["std"], parsed_jump, line),
                              lambda res, line=line: check_singular(line, res)))
        rng_round = random.Random(f"pencil-sweep/{seed}/round/{r}")
        rng_round.shuffle(ops)
        return ops

    inputs = [(kind, p.gamma1, p.gamma2) for kind, (_, _, pool) in pools.items() for p in pool]
    inputs += [("jump", jump_pencil.gamma1, jump_pencil.gamma2)] + [("line", ln) for ln in lines]
    kinds = tuple(pools) + (f"jump_ms.n{sizes.jump_n}", f"singular_jump_ms.n{sizes.jump_n}")
    return Workload("pencil-sweep", round_ops, kinds, f"jump_ms.n{sizes.jump_n}",
                    digest(inputs), {"conics": cs, "pools": pools})


# ---------------------------------------------------------------------------
# nodal-batch: many small classify and tangent_map calls

@dataclass(frozen=True)
class NodalSizes:
    quartics: int = 64
    per_round: int = 16


@dataclass(frozen=True)
class QuarticInput:
    quartic: str
    node: tuple[int, int, int]
    direction: str
    type_two: bool


def _random_binary(rng, degree, bound=5):
    from luroth.forms import BinaryForm

    return BinaryForm.from_coeffs(("u", "v"), [rng.randint(-bound, bound)
                                               for _ in range(degree + 1)])


def make_quartic(rng: random.Random, type_two: bool) -> QuarticInput:
    """A nodal quartic t^2*f2 + t*f3 + psi*f2 + phi*f3 moved to a generic node.

    Type II is built with psi = l^2 - phi^2, so phi^2 + psi is a square.
    Draws with a degenerate f2, f2 and f3 sharing a root, an accidental
    type-II verdict or a singular coordinate change are redrawn.
    """
    from luroth import linalg, nodal
    from luroth.forms import BinaryForm, TernaryForm
    from luroth.poncelet import DUAL_VARS

    while True:
        f2 = _random_binary(rng, 2)
        if linalg.disc_binary_quadratic(f2) != 0:
            break
    while True:
        f3 = _random_binary(rng, 3)
        if not f3.is_zero() and linalg.sylvester_resultant(f2, f3) != 0:
            break
    phi = _random_binary(rng, 1)
    while True:
        if type_two:
            ell = _random_binary(rng, 1)
            psi = ell * ell - phi * phi
        else:
            psi = _random_binary(rng, 2)
        square_free = linalg.disc_binary_quadratic(phi * phi + psi) != 0
        if square_free != type_two:
            break
    quartic = nodal.quartic_from_conic_and_cubic(f2, f3, phi, psi, "w", DUAL_VARS)
    while True:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        if linalg.det_rational(m) != 0:
            break
    moved = quartic.substitute_linear(m)
    # the node p satisfies m*p ~ (0, 0, 1): p is orthogonal to m's first two rows
    a, b = m[0], m[1]
    node = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
    # a random direction quartic, shifted along x_i^4 to vanish at the node
    monomials = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
    terms = {e: Fraction(rng.randint(-3, 3)) for e in monomials}
    direction = TernaryForm.from_terms(4, DUAL_VARS, {e: c for e, c in terms.items() if c})
    pivot = next(i for i in range(3) if node[i])
    e = tuple(4 if k == pivot else 0 for k in range(3))
    terms[e] -= direction.evaluate(node) / Fraction(node[pivot]) ** 4
    direction = TernaryForm.from_terms(4, DUAL_VARS, {e: c for e, c in terms.items() if c})
    return QuarticInput(str(moved), node, str(direction), type_two)


def classify_canonical(analysis) -> str:
    data = analysis.conic_data
    return f"{analysis.type_two}|{data.conic}|{data.det3}|{analysis.conic_singular_point}"


def tangent_canonical(result) -> str:
    return f"{result.xi}|{result.conic_velocity}"


def check_classify(q: QuarticInput, analysis):
    from luroth import nodal

    nodal.residual_line_identity(analysis.decomposition, analysis.conic_data)
    require(analysis.type_two == q.type_two,
            f"type-II verdict {analysis.type_two}, built as {q.type_two}")


def nodal_workload(seed: int, sizes: NodalSizes = NodalSizes()) -> Workload:
    from luroth import nodal
    from luroth.forms import parse_form
    from luroth.poncelet import DUAL_VARS

    rng = random.Random(f"nodal-batch/{seed}")
    inputs = [make_quartic(rng, type_two=(i % 2 == 0)) for i in range(sizes.quartics)]
    parsed = [(parse_form(q.quartic, DUAL_VARS), parse_form(q.direction, DUAL_VARS))
              for q in inputs]
    tangent_seen = VerifiedCache()

    def check_tangent(key, result):
        tangent_seen.check(key, result, lambda res: require(
            res.conic_velocity.degree == 2, "conic velocity is not a conic"))

    def round_ops(r: int) -> list[Op]:
        order = list(range(sizes.per_round))
        random.Random(f"nodal-batch/{seed}/round/{r}").shuffle(order)
        ops = []
        for k in order:
            key = (r * sizes.per_round + k) % len(inputs)
            q = inputs[key]
            quartic, direction = parsed[key]
            cell = {}

            def do_classify(quartic=quartic, q=q, cell=cell):
                cell["analysis"] = nodal.classify(quartic, q.node)
                return cell["analysis"]

            def do_tangent(direction=direction, cell=cell):
                analysis = cell["analysis"]
                return nodal.tangent_map(analysis.decomposition, analysis.conic_data, direction)

            ops.append(Op("classify_ms", key, do_classify,
                          lambda a, q=q: check_classify(q, a), classify_canonical))
            ops.append(Op("tangent_ms", key, do_tangent,
                          lambda res, key=key: check_tangent(key, res), tangent_canonical))
        return ops

    return Workload("nodal-batch", round_ops, ("classify_ms", "tangent_ms"), "classify_ms",
                    digest((q.quartic, q.node, q.direction, q.type_two) for q in inputs),
                    tail_by_input=True)


# ---------------------------------------------------------------------------
# cli-mix: whole `luroth` processes, where start-up and import dominate

QUARTIC_EPS91 = "(u^2+w^2)*(v^2+w^2)+2*u*v^3"
QUARTIC_92 = "w^2*(u^2+v^2)+w*(u^3+v^3)-u*v*(u^2+v^2)"
DIRECTION_EPS91 = "v*u^3+3*u*v*w^2+u*v^3+2*v^4"

# name -> (argv, expected exit code); stdout is compared with golden.json
CLI_COMMANDS: dict[str, tuple[list[str], int]] = {
    "verify": (["verify"], 0),
    "verify-json": (["verify", "--json"], 0),
    "analyze-eps91": (["quartic", "analyze", "--f", QUARTIC_EPS91, "--node", "1:0:0"], 0),
    "analyze-92": (["quartic", "analyze", "--f", QUARTIC_92, "--node", "0:0:1"], 0),
    "tangent-eps91": (["quartic", "tangent", "--f", QUARTIC_EPS91, "--node", "1:0:0",
                       "--g", DIRECTION_EPS91], 0),
    "family-eps91": (["family", "--name", "eps91", "--param", "1/3"], 0),
    "family-92": (["family", "--name", "92"], 0),
    "family-93": (["family", "--name", "93", "--param", "-1/4"], 0),
    "poncelet-n4": (["poncelet", "--gamma1", "s0*(s0-s1)*(s0+s1)*(s0-2*s1)*(s0-3*s1)",
                     "--gamma2", "s1^5", "--vertices", "0:1,1:1,-1:1,2:1,3:1"], 0),
    "poncelet-n8": (["poncelet", "--gamma1",
                     "(s0-s1)*(s0+s1)*(s0-2*s1)*(s0+2*s1)*(s0-3*s1)*(s0+3*s1)*(s0-4*s1)"
                     "*(s0+4*s1)*(s0-5*s1)",
                     "--gamma2", "s0^9-3*s0^5*s1^4+2*s0^2*s1^7+s1^9"], 0),
    "parse-error": (["poncelet", "--gamma1", "s0^4 +", "--gamma2", "s1^4"], 2),
    "not-a-node": (["quartic", "analyze", "--f", QUARTIC_92, "--node", "1:1:1"], 3),
}

# the subcommand each command line exercises, for cli.main.<subcommand>.ms
CLI_SUBCOMMAND = {
    "verify": "verify", "verify-json": "verify",
    "analyze-eps91": "quartic.analyze", "analyze-92": "quartic.analyze",
    "not-a-node": "quartic.analyze", "tangent-eps91": "quartic.tangent",
    "family-eps91": "family", "family-92": "family", "family-93": "family",
    "poncelet-n4": "poncelet", "poncelet-n8": "poncelet", "parse-error": "poncelet",
}


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src first on the path."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "luroth.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def load_golden() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def check_cli(name: str, result, golden: dict):
    code, out, err = result
    expected_code = CLI_COMMANDS[name][1]
    require(code == expected_code, f"{name}: exit {code}, expected {expected_code}")
    require(err == "", f"{name}: unexpected stderr {err[:200]!r}")
    want = golden["cli"][name].splitlines()
    got = out.splitlines()
    for i, (w, g) in enumerate(zip(want, got)):
        require(w == g, f"{name}: stdout line {i + 1} is {g!r}, expected {w!r}")
    require(len(want) == len(got), f"{name}: {len(got)} stdout lines, expected {len(want)}")


def warm_bytecode():
    """Compile the package so no timed process pays for writing bytecode."""
    import compileall

    compileall.compile_dir(str(SRC / "luroth"), quiet=1)


def _cli_round(seed: int, names, golden, kind_of, run) -> Callable[[int], list[Op]]:
    def round_ops(r: int) -> list[Op]:
        order = list(names)
        random.Random(f"cli-mix/{seed}/round/{r}").shuffle(order)
        return [Op(kind_of(name), list(CLI_COMMANDS).index(name),
                   lambda argv=CLI_COMMANDS[name][0]: run(argv),
                   lambda res, name=name: check_cli(name, res, golden),
                   lambda res: f"{res[0]}|{res[1]}")
                for name in order]
    return round_ops


def cli_workload(seed: int, names: tuple[str, ...] = tuple(CLI_COMMANDS)) -> Workload:
    """Each command line as its own `python -m luroth.cli` process."""
    warm_bytecode()
    golden = load_golden()
    return Workload("cli-mix", _cli_round(seed, names, golden, lambda name: name, run_cli),
                    tuple(names), None,
                    digest((name, CLI_COMMANDS[name]) for name in names), in_process=False)


def run_cli_inprocess(argv: list[str]) -> tuple[int, str, str]:
    from luroth import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli_inprocess_workload(seed: int, names: tuple[str, ...] = tuple(CLI_COMMANDS)) -> Workload:
    """The same command lines through `cli.main` in this process, for the traced run."""
    golden = load_golden()
    kinds = tuple(sorted({f"cli.main.{CLI_SUBCOMMAND[name]}" for name in names}))
    return Workload("cli-in-process",
                    _cli_round(seed, names, golden,
                               lambda name: f"cli.main.{CLI_SUBCOMMAND[name]}", run_cli_inprocess),
                    kinds, None, digest((name, CLI_COMMANDS[name]) for name in names))


BUILDERS = {
    "pencil-sweep": pencil_workload,
    "nodal-batch": nodal_workload,
    "cli-mix": cli_workload,
}
