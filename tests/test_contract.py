"""The resource contract of the CLI: hostile short texts, through every command,
end in exit 0 or 2 (3 for a point off the curve) within a few seconds and a
bounded address space.

Each run is a fresh `python -m luroth.cli` process whose address space alone
is capped by `resource.setrlimit(RLIMIT_AS)`, set in the child before it
starts; the test process keeps its own limits.
"""

import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import luroth
from luroth.cli import MAX_VERTICES
from luroth.forms import MAX_COEFF_BITS, parse_form

resource = pytest.importorskip("resource")  # POSIX only

SRC = str(Path(luroth.__file__).parent.parent)
ADDRESS_SPACE = 1 << 30  # bytes
SECONDS = 5.0
GEN_CONIC = "s0^2+2*s0*s1+3*s1^2;2*s0^2-s0*s1+s1^2;s0*s1-2*s1^2"

NINES = "9" * 4300  # a literal of 14 284 bits, Python's default int-string limit in digits
NESTED = "(((9)^100)^100)^30"  # 951 000 bits in closed form
DEEP = "((((9)^100)^100)^100)^100"  # 317 million bits, then 3 * 10^10
PRODUCT = "*".join(["((9)^100)^100"] * 5)  # five groups of 31 700 bits
LITERALS = "*".join([NINES] * 10)  # a monomial of ten such literals
BIG_POWER = f"({NINES})^10"  # 142 840 bits
ALLOWED_POWER = f"({NINES})^9"  # 128 556 bits
FIVE, FOUR = "*".join([NINES] * 5), "*".join([NINES] * 4)  # 71 420 and 57 136 bits
BIG_GROUP_PRODUCT = f"{FIVE}*({FIVE}+1)"  # 142 840 bits: the monomial times its group
ALLOWED_GROUP_PRODUCT = f"{FOUR}*({FIVE}+1)"  # 128 556 bits
SUM_1000 = f"({'9' * 1000}*s0+{'7' * 1000}*s1)"


def quartic(c: str) -> str:
    """A quartic with an admissible node at 0:0:1, c its u^4 coefficient."""
    return f"{c}*u^4 + u^3*w + v^3*w + v^4 + u*v*w^2"


def form_text(coeffs: list[int]) -> str:
    """The binary form sum coeffs[k]*s0^(d-k)*s1^k, d = len(coeffs) - 1."""
    return " + ".join(f"{c}*s0^{len(coeffs) - 1 - k}*s1^{k}" for k, c in enumerate(coeffs))


def pencil_text(rng: random.Random, n: int, digits: int) -> str:
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    return form_text([rng.randint(lo, hi) for _ in range(n + 2)])


def planted_text(rng: random.Random, n: int, digits: int) -> str:
    """A random degree-(n+1) generator times 2*s0 + 3*s1 (digits-digit cofactor)."""
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    cofactor = [rng.randint(lo, hi) for _ in range(n + 1)]
    return form_text([2 * x + 3 * y for x, y in zip(cofactor + [0], [0] + cofactor)])


def commands(c: str) -> list[list[str]]:
    """Every command, with the coefficient text c in each of its text inputs."""
    return [
        ["quartic", "analyze", "--f", quartic(c), "--node", "0:0:1"],
        ["quartic", "tangent", "--f", quartic("1"), "--node", "0:0:1",
         "--g", f"{c}*u^3*v + v^4"],
        ["poncelet", "--gamma1", f"{c}*s0^3 + s1^3", "--gamma2", "s0*s1^2 + 2*s0^2*s1"],
        ["poncelet", "--conic", f"{c}*s0^2;s1^2;s0*s1", "--gamma1", "s0^3 + s1^3",
         "--gamma2", "s0*s1^2 + 2*s0^2*s1"],
    ]


# (id, argv list, expected exit code)
ROWS = []
for name, c, code in [("nested-power", NESTED, 2), ("deep-power", DEEP, 2),
                      ("product-of-powers", PRODUCT, 2), ("literal-product", LITERALS, 2),
                      ("big-power", BIG_POWER, 2), ("allowed-power", ALLOWED_POWER, 0),
                      ("longest-literal", NINES, 0), ("big-group-product", BIG_GROUP_PRODUCT, 2),
                      ("allowed-group-product", ALLOWED_GROUP_PRODUCT, 0)]:
    ROWS += [(f"{name}-{k}", argv, code) for k, argv in enumerate(commands(c))]
_RNG = random.Random(99)
ROWS += [
    ("near-budget-sum", ["quartic", "analyze", "--f",
                         "(u+v+w)^50 - (u+v+w)^50 + " + quartic("1"), "--node", "0:0:1"], 0),
    ("weighted-budget-sum", ["poncelet", "--gamma1", f"{SUM_1000}^40 + s0^3",
                             "--gamma2", "s1^3"], 2),
    ("cancelled-big-sum", ["poncelet", "--gamma1", f"{SUM_1000}^15 - {SUM_1000}^15 + s0^3",
                           "--gamma2", "s1^3"], 0),
    ("family-longest-literal", ["family", "--name", "93", "--param", NINES], 0),
    # 9 999 characters, two consecutive 4 999-digit integers, so in lowest terms:
    # the eps91 determinant expands on a rational whose powers do not cancel
    ("family-eps91-long-fraction", ["family", "--name", "eps91", "--param",
                                    f"{'9' * 4998}8/{'9' * 4999}"], 0),
    ("vertices-longest-literal", ["poncelet", "--gamma1", "s0^3 + s1^3", "--gamma2",
                                  "s0*s1^2 + 2*s0^2*s1", "--vertices", f"{NINES}:1,1:{NINES}"], 0),
    ("verify", ["verify"], 0),
    ("pencil-n99-standard", ["poncelet", "--gamma1", pencil_text(_RNG, 99, 2),
                             "--gamma2", pencil_text(_RNG, 99, 2)], 0),
    ("pencil-n99-general-conic", ["poncelet", "--conic", GEN_CONIC,
                                  "--gamma1", pencil_text(_RNG, 99, 2),
                                  "--gamma2", pencil_text(_RNG, 99, 2)], 0),
]
# --vertices at its cap, every chord of 102 parameters, and one past it
VERTICES = ",".join(f"{k}:{k * k + 1}" for k in range(MAX_VERTICES + 1))
ROWS += [(f"vertices-{name}", ["poncelet", "--conic", GEN_CONIC, "--gamma1", "s0^9+3*s1^9-s0*s1^8",
                               "--gamma2", "s0*s1^8+2*s0^3*s1^6+7*s0^9", "--vertices", text], code)
         for name, text, code in [("at-the-cap", VERTICES.rsplit(",", 1)[0], 0),
                                  ("past-the-cap", VERTICES, 2)]]
# Every chord of 102 distinct one-digit parameters at n = 99: 5151 chords, each
# decided by a 2x2 minor of the generators' values, not on the 5048-term curve.
_DIGITS = random.Random(102)
ONE_DIGIT = [f"{a}:{b}" for b in range(1, 10) for a in range(-9, 10) if gcd(a, b) == 1] + ["1:0"]
_DIGITS.shuffle(ONE_DIGIT)
ROWS += [("vertices-n99-102-one-digit", ["poncelet", "--gamma1", pencil_text(_DIGITS, 99, 1),
                                         "--gamma2", pencil_text(_DIGITS, 99, 1),
                                         "--vertices", ",".join(ONE_DIGIT[:MAX_VERTICES])], 0)]
# Base points of big pencils.  A remainder sequence swells to about n times
# the input bits; the heuristic gcd takes one integer gcd of values per try.
# The coprime pencil decides at once; each planted pencil shares 2*s0 + 3*s1,
# the last one with about 120 KB per generator, just under the 128 KB a
# single argument may hold (MAX_ARG_STRLEN).
COPRIME_ROW = ("pencil-n22-1000-digits", ["poncelet", "--gamma1", pencil_text(_RNG, 22, 1000),
                                          "--gamma2", pencil_text(_RNG, 22, 1000)], 0)
_PLANT = random.Random(24)
PLANTED_ROWS = [(f"planted-pencil-n{n}-{digits}-digits",
                 ["poncelet", "--gamma1", planted_text(_PLANT, n, digits),
                  "--gamma2", planted_text(_PLANT, n, digits)])
                for n, digits in [(22, 1000), (40, 2900)]]


# The nodal core on huge numbers: the node 0:0:N is the node 0:0:1 scaled, and
# a random point of 2000-digit coordinates is off the curve (exit 3).
BIG_NODE = str(_RNG.randint(10 ** 1999, 10 ** 2000))
BIG_POINT = ":".join(str(_RNG.randint(10 ** 1999, 10 ** 2000)) for _ in range(3))
BIG_QUARTIC = (" + ".join(f"{_RNG.randint(10 ** 999, 10 ** 1000)}*{m}"
                          for m in ("u^4", "u^3*w", "v^3*w", "v^4", "u*v*w^2")))
for name, f, node, code in [
        ("2000-digit-node", quartic("1"), f"0:0:{BIG_NODE}", 0),
        ("2000-digit-fraction-node", quartic("1"), f"0:0:1/{BIG_NODE}", 0),
        ("2000-digit-point-off-the-curve", quartic("1"), BIG_POINT, 3),
        ("1000-digit-quartic", BIG_QUARTIC, "0:0:1", 0),
        ("1000-digit-quartic-2000-digit-node", BIG_QUARTIC, f"0:0:-{BIG_NODE}", 0),
        ("zero-node", quartic("1"), "0:0:0", 2),
        ("4-coordinate-node", quartic("1"), "0:0:1:1", 2)]:
    ROWS += [(f"analyze-{name}", ["quartic", "analyze", "--f", f, "--node", node], code),
             (f"tangent-{name}", ["quartic", "tangent", "--f", f, "--node", node,
                                  "--g", "u^3*v + v^4 + 7*u^2*w^2"], code)]
# A generic big node: quartic("1") and the rows' direction moved by
# u -> u - A*w, v -> v - B*w take the node 0:0:1 to A:B:1, A and B of 1000
# digits, so the node move runs on big column entries, not on (0, 0, 1).
BIG_A, BIG_B = (_RNG.randint(10 ** 999, 10 ** 1000) for _ in range(2))


def moved_to_big_node(text: str) -> str:
    form = parse_form(text, ("u", "v", "w"))
    return str(form.substitute_linear([[1, 0, -BIG_A], [0, 1, -BIG_B], [0, 0, 1]]))


BIG_NODE_QUARTIC = moved_to_big_node(quartic("1"))
BIG_NODE_DIRECTION = moved_to_big_node("u^3*v + v^4 + 7*u^2*w^2")
ROWS += [("analyze-1000-digit-generic-node",
          ["quartic", "analyze", "--f", BIG_NODE_QUARTIC, "--node", f"{BIG_A}:{BIG_B}:1"], 0),
         ("tangent-1000-digit-generic-node",
          ["quartic", "tangent", "--f", BIG_NODE_QUARTIC, "--node", f"{BIG_A}:{BIG_B}:1",
           "--g", BIG_NODE_DIRECTION], 0)]


# Long products, each one token of the parser: 40 000 literal factors (80 KB),
# 16 000 three-digit exponents that never reach the degree cap (112 KB each),
# 101 variable factors, one past the term degree cap, and a trailing '*'.
ONES = "*".join(["1"] * 40000) + "*s0^3"
ZERO_POWERS = "*".join(["s0^000"] * 16000) + "*s0^3"
ZERO_PRODUCT = "0*" + "*".join(["s0^100"] * 16000) + " + s0^3"
S0_101 = "*".join(["s0"] * 101)
PRODUCT_ROWS = [
    ("product-of-40000-literals", ONES, 0, "status: ok"),
    ("product-of-16000-zero-powers", ZERO_POWERS, 0, "status: ok"),
    ("zero-times-16000-powers", ZERO_PRODUCT, 0, "status: ok"),
    ("product-of-101-variables", S0_101, 2,
     f"term degree above MAX_DEGREE = 100 (at position {len(S0_101) - 2})"),
    ("product-ending-in-a-star", "s0*" * 3, 2, "unexpected end of input (at position 9)"),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_contained(argv: list[str]) -> tuple[int | None, str]:
    """Exit code and standard output of one capped CLI process; the code is
    None past SECONDS."""
    env = {**os.environ, "PYTHONPATH": SRC}
    try:
        done = subprocess.run([sys.executable, "-m", "luroth.cli", *argv], env=env,
                              capture_output=True, timeout=SECONDS, text=True,
                              preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        return None, ""
    return done.returncode, done.stdout


def test_rows_straddle_the_coefficient_bound():
    bits = int(NINES).bit_length()
    assert 9 * bits <= MAX_COEFF_BITS < 10 * bits


@pytest.mark.parametrize("argv, code", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_hostile_input_exits_0_or_2_within_seconds(argv, code):
    assert run_contained(argv)[0] == code


def test_big_coefficient_pencil_decides_base_points_in_seconds():
    assert run_contained(COPRIME_ROW[1])[0] == COPRIME_ROW[2]


@pytest.mark.parametrize("argv", [row[1] for row in PLANTED_ROWS],
                         ids=[row[0] for row in PLANTED_ROWS])
def test_planted_factor_pencils_decide_base_points_in_seconds(argv):
    assert all(len(text.encode()) < 120 * 1024 for text in argv)
    code, out = run_contained(argv)
    assert code == 0 and "base_point_free: False" in out


@pytest.mark.parametrize("gamma1, code, message", [row[1:] for row in PRODUCT_ROWS],
                         ids=[row[0] for row in PRODUCT_ROWS])
def test_long_products_are_read_within_seconds(gamma1, code, message):
    got, out = run_contained(["poncelet", "--gamma1", gamma1, "--gamma2", "s1^3"])
    assert got == code and message in out
