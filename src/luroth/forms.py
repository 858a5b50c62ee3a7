"""Exact arithmetic for homogeneous polynomials over the rationals.

Two concrete containers are provided: :class:`BinaryForm` (homogeneous in an
ordered pair of variables, dense) and :class:`TernaryForm` (homogeneous in an
ordered triple, sparse).  A form holds integer numerators `nums` over one
positive denominator `den`, gcd(content, den) = 1, reduced by one gcd when it
is built: canonical, so ==, hash and pickle compare integers, and text, JSON
and values are computed from them.  `terms` (exponent -> nonzero Fraction) and
the binary `coeffs` are views for readers, built when read.  `_Form` holds what
both classes share, and each class the kernels of its own representation.
Every operation is exact, and all values are immutable: every value class of
the package derives from `Frozen`.

`parse_form` reads text by one recursive descent: a product of literals and
variable powers such as `3/4*u^2*v` is one token, read in closed form into
one coefficient and one exponent, and only parenthesized sums are multiplied
out as term maps, within MAX_TERM_PRODUCTS and MAX_COEFF_BITS; the form
takes the coefficients as integers over one denominator.

A linear change of coordinates, `substitute_terms`, relabels and scales, or
reads the form back from big integers in balanced base 2^(8k) (Kronecker
substitution): one packed Horner evaluation for a small form, and for a larger
one a Taylor shift of its packed slices per one-row factor of the matrix (von
zur Gathen & Gerhard, ISSAC 1997).  Only the benchmark calls its rational
wrapper `TernaryForm.substitute_linear` (`linalg` says where).

The zero polynomial carries an explicit degree annotation so that typed
pipelines (decompositions, matrix entries) stay total.  This module imports
no other module of the package: the 3x3 adjugate and the integer scaling of
a row live here so that the coordinate change needs nothing from `linalg`, and
the remainders modulo a binary quadratic so that `poncelet` and `nodal` share them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, permutations, repeat
from math import floor, gcd, lcm, log10
from operator import add, attrgetter, floordiv, itemgetter, lshift, mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Exp = tuple[int, ...]
_set = object.__setattr__  # sets a field of a frozen value


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(ValueError):
    """Input mixes terms of different total degree."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


class FrozenError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen value."""


class Frozen:
    """Base of the package's immutable values: the fields, the class's own
    annotations in order, given positionally (`_Form.__init__` sets its own);
    `__post_init__` validates.  ==, hash, repr, pickle and copy use only the fields."""

    def __init_subclass__(cls):
        fields = cls._fields = tuple(vars(cls).get("__annotations__", ()))
        # the field tuple, read in C; attrgetter of one name returns it bare
        cls._values = (attrgetter(*fields) if len(fields) > 1
                       else staticmethod(lambda v: tuple(getattr(v, f) for f in fields)))

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields")
        for name, value in zip(self._fields, values):
            _set(self, name, value)  # not via __dict__ (slower reads); _Form sets its own
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value=None):
        raise FrozenError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _q(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def integral_row(values: Sequence) -> tuple[list[int], int]:
    """The values times d, the lcm of their denominators, and d."""
    p = [x if isinstance(x, int) else _q(x) for x in values]
    d = lcm(*(x.denominator for x in p))
    return [x.numerator * (d // x.denominator) for x in p], d


def projective_ints(values: Sequence) -> list[int]:
    """The point's integers: values over their signed gcd, first nonzero positive."""
    ints = integral_row(values)[0]
    if not any(ints):
        raise ValueError("the zero vector is not a projective point")
    g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
    return [x // g for x in ints]


def integral_coeffs(*forms: "BinaryForm") -> tuple[tuple[int, ...], int]:
    """The binary forms' numerators over d, the lcm of their denominators,
    and d; gcd(numerators, d) = 1, since each form is in lowest terms."""
    d = lcm(*(f.den for f in forms))
    return tuple(x * (d // f.den) for f in forms for x in f.nums), d


def adjugate3(m: Sequence[Sequence]) -> tuple[object, list[list]]:
    """Determinant and adjugate of a 3x3 matrix, written out: adj[k][j] is the
    cofactor of m[j][k], so m*adj = det(m)*I, and a rank-2 symmetric m has
    adj = c*k*k^T for its kernel vector k.  ValueError unless m is 3x3.
    """
    (a, b, c), (d, e, f), (g, h, i) = m
    x, y, z = e * i - f * h, f * g - d * i, d * h - e * g
    return a * x + b * y + c * z, [[x, c * h - b * i, b * f - c * e],
                                   [y, a * i - c * g, c * d - a * f],
                                   [z, b * g - a * h, a * e - b * d]]


# ---------------------------------------------------------------------------
# sparse term-map arithmetic: TernaryForm's kernels; mul_terms also serves the
# parser's products of parenthesized sums and the polynomial determinant in
# linalg

def add_terms(a: Mapping[Exp, object], b: Mapping[Exp, object]) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul_terms(a: Mapping[Exp, object], b: Mapping[Exp, object]) -> dict:
    """The product of two term maps, on any numbers: ints stay ints."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple([x + y for x, y in zip(ea, eb)])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def scale_terms(c, a: Mapping[Exp, object]) -> dict:
    if c == 0:
        return {}
    return {e: c * v for e, v in a.items()}


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

PACKED_MAX_DEGREE = 12
"""The largest degree that `substitute_terms` moves by one packed evaluation;
above it, by one-row Taylor shifts (the crossover table of BENCH_29.json)."""


def _digits(packed: Iterable[int], zero: bytes, counts: Iterable[int]) -> list[bytes]:
    """The count digits of each packed int, lowest first, in zero's balanced byte code."""
    data = b"".join((p + int.from_bytes(zero * c, "little")).to_bytes(len(zero) * c, "little")
                    for p, c in zip(packed, counts))
    return [data[i:i + len(zero)] for i in range(0, len(data), len(zero))]


@lru_cache(maxsize=64)
def _split(m: tuple[tuple[int, ...], ...]) -> tuple:
    """N, a relabelling and the factors (r, v_r, v_s, v_t, pre) but identities,
    in lowest terms, of m'[i][j] = m[i][sigma[j]] = E_0*E_1*E_2, E_r = I but
    for row r = v/pre: (det, -A01, -A02)/A00, (-A10, A00, m'12)/m'22 and row 2
    of m', A = adj m'.  N, least over sigma, bounds the row 1-norms of m and
    of each product of pre*E_r but the last."""
    splits = []
    for sigma in permutations(range(3)):
        t = [[row[j] for j in sigma] for row in m]
        det, a = adjugate3(t)
        if a[0][0] and t[2][2]:
            factors, prod, norms = [], _UNITS, [max(sum(map(abs, row)) for row in m)]
            for r, *v, pre in ((0, det, -a[0][1], -a[0][2], a[0][0]),
                               (1, -a[1][0], a[0][0], t[1][2], t[2][2]), (2, *t[2], 1)):
                g = gcd(*v, pre)
                e = [[x * pre // g for x in row] for row in _UNITS]
                if e[r] != (v := [x // g for x in v]):
                    e[r] = v
                    prod = [[sum(map(mul, row, col)) for col in zip(*e)] for row in prod]
                    norms.append(max(sum(map(abs, row)) for row in prod))
                    factors.append((r, v.pop(r), *v, pre // g))
            splits.append((max(norms[:-1]), itemgetter(*map(sigma.index, range(3))), factors))
    return min(splits, key=itemgetter(0))


@lru_cache(maxsize=64)
def _relabel(m: tuple[tuple[int, ...], ...]) -> tuple | None:
    """The scales and placement of m if it is a relabelling times a diagonal,
    else None; PreconditionError on a singular m.  Cached per matrix, as `_split`."""
    if not adjugate3(m)[0]:
        raise PreconditionError("coordinate change matrix is singular")
    if sum(map(bool, [*m[0], *m[1], *m[2]])) == 3:
        p = [0 if row[0] else 1 if row[1] else 2 for row in m]
        return tuple(row[j] for row, j in zip(m, p)), itemgetter(*map(p.index, range(3)))


def substitute_terms(terms: Mapping[Exp, int], degree: int,
                     m: Sequence[Sequence[int]]) -> dict:
    """Integer terms of a ternary form F after x_i := sum_j m[i][j]*x_j;
    PreconditionError on a singular m.  One nonzero entry per row relabels and scales.
    Else F is read back in balanced base X = 2^(8k) > 2*||F||_1*N^degree, N a
    bound on row 1-norms (Kronecker substitution; Schoenhage, 1982): up to
    PACKED_MAX_DEGREE, one Horner evaluation at (X^(degree+1), X, 1); above,
    per factor x_r := (a*x_r + b*x_s + c*x_t)/pre of `_split`, the slices P_j
    of fixed x_r exponent at (x_s, x_t) = (X, 1), times pre^(degree-j), take
    a Taylor shift by b*X + c (von zur Gathen & Gerhard, ISSAC 1997), then
    times a^j; the last, over the product of the pre, to the degree."""
    n, key = degree, tuple(map(tuple, m))
    if relabel := _relabel(key):  # a relabelling times a diagonal
        (a, b, c), place = relabel
        if (a, b, c) != (1, 1, 1):
            terms = {e: x * a ** e[0] * b ** e[1] * c ** e[2] for e, x in terms.items()}
        return {place(e): x for e, x in terms.items() if x}
    norm, place, factors = (_split(key) if n > PACKED_MAX_DEGREE else
                            (max(sum(map(abs, row)) for row in m), tuple, ()))
    k = (sum(map(abs, terms.values())) * norm ** n).bit_length() // 8 + 1
    x, half, zero, w = 8 * k, 1 << 8 * k - 1, bytes(k - 1) + b"\x80", n + 1
    if factors:  # x0^i*x1^j*x2^(n-i-j) in slot i*(n+1)+j, as in the packed evaluation
        digits = [zero] * w * w
        for (i, j, _), c in terms.items():
            digits[i * w + j] = (c + half).to_bytes(k, "little")
    else:
        l0, l1, l2 = ((a << x * w) + (b << x) + c for a, b, c in m)
        powers, out = list(accumulate(repeat(l2, n), mul, initial=1)), 0
        for i in range(n, -1, -1):
            f = 0
            for j in range(n - i, -1, -1):
                f = f * l1 + terms.get((i, j, n - i - j), 0) * powers[n - i - j]
            out = out * l0 + f
        digits = _digits([out], zero, [w * w])
    ends = list(accumulate(range(w, 0, -1), initial=0))
    for r, a, b, c, pre in factors:  # slice j: x_r^j*x_s^h at slot o + d*h, h = 0..n-j
        d, cuts = (1, w, n)[r] or 1, [(j * w, j, n - j)[r] for j in range(w)]  # n = 0: one slot
        cuts = [slice(o, o + d * (n - j) + 1, d) for j, o in enumerate(cuts)]
        p = [int.from_bytes(b"".join(digits[s]), "little")
             - int.from_bytes(zero * (w - j), "little") for j, s in enumerate(cuts)]
        p = list(map(mul, p, list(accumulate(repeat(pre, n), mul, initial=1))[::-1]))
        for i in range(n - 1, -1, -1) if b or c else ():
            q = p[i + 1:]
            p[i:n] = map(add, p[i:n], map(add, map(mul, map(lshift, q, repeat(x)), repeat(b)),
                                          map(mul, q, repeat(c))))
        p = map(mul, p, accumulate(repeat(a, n), mul, initial=1))
        if r == factors[-1][0]:
            p = map(floordiv, p, repeat(reduce(mul, (f[4] for f in factors)) ** n))
        p = _digits(p, zero, range(w, 0, -1))
        for s, i, j in zip(cuts, ends, ends[1:]):
            digits[s] = p[i:j]
    return {place((i, j, n - i - j)): int.from_bytes(d, "little") - half
            for i in range(w) for j, d in enumerate(digits[i * w:i * w + w - i]) if d != zero}


def _degree(terms: Mapping[Exp, Fraction]) -> int:
    return max(map(sum, terms), default=0)


def _bits(terms: Mapping[Exp, object]) -> int:
    """The largest numerator or denominator bit length of a nonempty map."""
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in terms.values())


_CHUNK = 10 ** 600  # fewer digits than any int-string limit Python accepts (640)


def rational_text(c, den: int = 1) -> str:
    """str(Fraction(c, den)) of ints, den > 0, by one gcd unless den = 1, or str(c)
    of a Fraction; also past Python's int-string digit limit."""
    def digits(n: int) -> str:
        pieces = []
        while n >= _CHUNK:
            n, r = divmod(n, _CHUNK)
            pieces.append(f"{r:0600d}")
        return str(n) + "".join(reversed(pieces))

    if not isinstance(c, int):
        c, den = _q(c).as_integer_ratio()
    elif den != 1:
        c, den = c // (g := gcd(c, den)), den // g
    return "-" * (c < 0) + digits(abs(c)) + ("" if den == 1 else "/" + digits(den))


# ---------------------------------------------------------------------------
# parser

MAX_DEGREE = 100
"""Largest exponent and term degree the parser accepts; above it, a ParseError
before any expansion.  Admits pencils up to n = 99 and every nodal quartic."""

MAX_TERM_PRODUCTS = 2 * 10 ** 5
"""The parser's work budget: the sum of |a|*|b|*max(1, bits(a)*bits(b) >> 19)
over the products of nonzero term maps a and b it makes while multiplying out
parenthesized sums, each step of a power included, bits being the largest
numerator or denominator bit length.  The weight is 1 while
bits(a)*bits(b) < 2^20 (both below 1024 bits, say).  Past the budget, a
ParseError at the offending factor or exponent.  A product of 41 linear
factors, a pencil at n = 40, takes 1640."""

MAX_COEFF_BITS = 2 ** 17
"""Bound on the numerator and denominator bits of a monomial's literals, alone
and times its groups, of a one-term group's power c^k (bits(c)*k) and of a
product of sums, checked first; past it, a ParseError at the literal, exponent or factor."""
_MAX_DIGITS = floor(MAX_COEFF_BITS * log10(2)) + 1  # 39457: more must pass the bound


def _too_big(at: int) -> ParseError:
    return ParseError(f"coefficient above MAX_COEFF_BITS = {MAX_COEFF_BITS} bits", at)


# A token is a product, the power of a group, an operator, a stray character
# or the end.  A product joins by '*' integer literals, each perhaps over
# another, and variables, each perhaps to a power; the digits after / or ^ may
# be empty, so that a missing one is reported where it is missing.  Integers
# are ASCII digits: int() would take other Unicode digits, or fail on them, so
# a name that starts with one is an unexpected character.  finditer skips spaces and tabs.
_TOKEN = re.compile(
    r"(?P<product>{f}(?:[ \t]*\*[ \t]*{f})*)|\^[ \t]*(?P<pow>[0-9]*)|(?P<op>[-+*/()])"
    r"|(?P<bad>[^ \t])|(?P<end>\Z)".format(
        f=r"(?:[0-9]+(?:[ \t]*/[ \t]*[0-9]*)?|[^\W0-9]\w*(?:[ \t]*\^[ \t]*[0-9]*)?)"))


def _at(m: re.Match, i: int = 0, sep: str = "") -> int:
    """The position of factor i of a product token, or with sep ('/' or '^'),
    of the digits after it; of a power token's digits with i = 0 and sep '^'.
    Found only for an error, since it costs the token's length."""
    factors = m[0].split("*")
    text = factors[i].partition(sep)[2] if sep else factors[i]
    return m.start() + sum(map(len, factors[:i + 1])) + i - len(text.lstrip(" \t"))


def _is_variable(name: str) -> bool:
    """Whether the text is one variable: \\w characters, the first a letter or '_'."""
    return name.replace("_", "a").isalnum() and (name[0].isalpha() or name[0] == "_")


MAX_RATIONAL_CHARS = 10000  # longest rational literal accepted
_RATIONAL = re.compile(r"\s*([-+]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*)|/(0*[1-9][0-9]*))?\s*")


def rational_literal(text: str) -> Fraction:
    """An int, int/int or plain decimal; no exponent, so no hidden expansion."""
    if len(text) > MAX_RATIONAL_CHARS:
        raise ValueError(f"rational literal of {len(text)} characters is too long")
    if "e" in text.lower():
        raise ValueError(f"bad rational {text!r}: exponent notation is not accepted")
    # Fraction's pattern takes any Unicode digit and "_"; word it as Fraction does
    if not text.isascii() or "_" in text:
        raise ValueError(f"bad rational {text!r}: Invalid literal for Fraction: {text!r}")
    m = _RATIONAL.fullmatch(text)  # read by `_int_literal`, past any int-string limit
    try:
        if m is None:
            return Fraction(text)
        sign, whole, decimals, den = m.groups("")  # den and decimals exclude each other
        return Fraction(int(sign + "1") * _int_literal(whole + decimals),
                        _int_literal(den or "1") * 10 ** len(decimals))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}") from exc


def _int_literal(digits: str, m: re.Match | None = None, i: int = 0, sep: str = "") -> int:
    """The value of ASCII digits, read 600 at a time past any int-string limit
    (`rational_text` inverted); a ParseError at `_at(m, i, sep)`, or 0 without
    m, by digit count before any is read, for one that must pass MAX_COEFF_BITS."""
    if len(digits) <= 600:
        return int(digits)
    if len(digits.lstrip("0")) > _MAX_DIGITS:
        raise _too_big(_at(m, i, sep) if m else 0)
    head = len(digits) % 600 or 600
    return reduce(lambda n, i: n * _CHUNK + int(digits[i:i + 600]),
                  range(head, len(digits), 600), int(digits[:head]))


def _exponent(digits: str, degree: int, m: re.Match, i: int = 0) -> int:
    """The exponent of a power of something of the given degree, checked
    against MAX_DEGREE before it is converted; a ParseError at `_at(m, i, '^')`."""
    if not digits:
        raise ParseError("expected integer exponent", _at(m, i, "^"))
    if len(digits) > _DEGREE_DIGITS:
        digits = digits.lstrip("0")[:_DEGREE_DIGITS + 1] or "0"
    power = int(digits)
    if power * (degree or 1) > MAX_DEGREE:
        raise ParseError(f"exponent or degree above MAX_DEGREE = {MAX_DEGREE}", _at(m, i, "^"))
    return power


_MAX_NESTING = 100  # deepest parentheses: each level is three frames of recursion
_DEGREE_DIGITS = len(str(MAX_DEGREE))  # more digits pass MAX_DEGREE but for leading zeros


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses.  A product of
    literals and variable powers is one token, read in closed form, split at
    '*' and each factor at '/' or '^', into one coefficient and one exponent
    added in place into one map; a position is found only for an error.  Only
    parenthesized factors are term maps: their products, and powers of sums,
    count against MAX_TERM_PRODUCTS.  Coefficients stay ints until a
    denominator appears."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = list(_TOKEN.finditer(text))
        self.pos = self.depth = self.work = 0
        self.nvars = len(variables)
        self.index: dict[str, int] = {}
        for i, v in enumerate(variables):
            if _is_variable(v):  # a name the grammar rejects stays unknown
                self.index.setdefault(v, i)

    def parse(self) -> dict:
        """The nonzero terms.  A failed parse reports the first character that
        begins a token or factor but can begin neither an integer (an ASCII
        digit) nor a name (a letter or '_'), if any: it fails there or before."""
        try:
            terms = self.expr()
            m = self.tokens[self.pos]
            if m.lastgroup != "end":  # a product shows its first literal or name
                val = re.match(r"\w+", m[0])[0] if m.lastgroup == "product" else m[0][:1]
                raise ParseError(f"unexpected token {val!r}", m.start())
            return terms
        except ParseError:
            for m in self.tokens:
                for i, factor in enumerate(m[0].split("*") if m.lastgroup in ("product", "bad")
                                           else ()):
                    c = factor.lstrip(" \t")[0]
                    if not ("0" <= c <= "9" or _is_variable(c)):
                        raise ParseError(f"unexpected character {c!r}", _at(m, i)) from None
            raise

    def expr(self) -> dict:
        out: dict = {}
        sign, op = 1, self.tokens[self.pos][0]
        while True:
            if op == "+" or op == "-":
                sign = -1 if op == "-" else 1
                self.pos += 1
            op = self.term(out, sign)
            if op != "+" and op != "-":
                return {e: c for e, c in out.items() if c} if 0 in out.values() else out

    def term(self, out: dict, sign: int) -> str:
        """Add sign times one product of factors into out; return the next
        token's text.  A zero product has degree 0 and no factor passes
        MAX_DEGREE, so degree, the product's so far, grows only while coef != 0."""
        coef, exp, degree, product, bits = sign, [0] * self.nvars, 0, None, 0
        tokens, index = self.tokens, self.index
        while True:
            m = tokens[self.pos]
            self.pos += 1
            if m.lastgroup == "product":
                text = m[0]
                if " " in text or "\t" in text:
                    text = text.replace(" ", "").replace("\t", "")
                for i, factor in enumerate(text.split("*")):
                    if factor[0] <= "9":  # an integer literal, perhaps over another
                        num, over, den = factor.partition("/")
                        num = _int_literal(num, m, i)
                        bits += num.bit_length()
                        if over:
                            if not den:
                                raise ParseError("expected integer denominator", _at(m, i, "/"))
                            den = _int_literal(den, m, i, "/")
                            if not den:
                                raise ParseError("zero denominator", _at(m, i, "/"))
                            bits += den.bit_length()
                            num = Fraction(num, den)
                        if bits > MAX_COEFF_BITS:
                            raise _too_big(_at(m, i))
                        coef *= num
                        continue
                    name, caret, digits = factor.partition("^")
                    v = index.get(name)
                    if v is None:
                        raise ParseError(f"unknown variable {name!r}", _at(m, i))
                    k = _exponent(digits, 1, m, i) if caret else 1
                    exp[v] += k
                    if coef:
                        degree += k
                        if degree > MAX_DEGREE:
                            raise ParseError(f"term degree above MAX_DEGREE = {MAX_DEGREE}",
                                             _at(m, i))
            elif m[0] == "(":
                group = self.group(m.start())
                if not group:
                    coef = 0
                elif coef:
                    degree += _degree(group)
                    if degree > MAX_DEGREE:
                        raise ParseError(f"term degree above MAX_DEGREE = {MAX_DEGREE}", m.start())
                    if product is None:
                        product, at = group, m.start()
                    else:
                        self.charge(product, group, m.start())
                        product = mul_terms(product, group)
            else:
                val = m[0][:1]  # an operator, '^' of a power, or '' at the end
                raise ParseError(f"expected a factor, got {val!r}" if val
                                 else "unexpected end of input", m.start())
            op = tokens[self.pos][0]
            if op != "*":
                break
            self.pos += 1
        if not coef:
            return op
        if product is None:
            e = tuple(exp)
            out[e] = out.get(e, 0) + coef
            return op
        if bits + _bits(product) > MAX_COEFF_BITS:  # the monomial times its groups
            raise _too_big(at)
        for e, c in product.items():
            e = tuple(x + y for x, y in zip(e, exp))
            out[e] = out.get(e, 0) + coef * c
        return op

    def charge(self, a: dict, b: dict, at: int):
        """Count the product of term maps a and b against MAX_TERM_PRODUCTS,
        and bound its coefficients by MAX_COEFF_BITS."""
        if a and b:
            bits_a, bits_b = _bits(a), _bits(b)
            if bits_a + bits_b > MAX_COEFF_BITS:
                raise _too_big(at)
            self.work += len(a) * len(b) * max(1, bits_a * bits_b >> 19)
        if self.work > MAX_TERM_PRODUCTS:
            raise ParseError(f"parse work above MAX_TERM_PRODUCTS = {MAX_TERM_PRODUCTS}", at)

    def group(self, at: int) -> dict:
        """A parenthesized sum after its '(', and its power if one follows."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
        base = self.expr()
        m = self.tokens[self.pos]
        if m[0] != ")":
            raise ParseError("expected ')'", m.start())
        self.depth -= 1
        self.pos += 1
        m = self.tokens[self.pos]
        if m.lastgroup != "pow":
            return base
        self.pos += 1
        at = m.start("pow")
        power = _exponent(m["pow"], _degree(base), m)
        if len(base) == 1:
            (e, c), = base.items()
            if _bits(base) * power > MAX_COEFF_BITS:
                raise _too_big(at)
            return {tuple(power * x for x in e): c ** power}
        out = {(0,) * self.nvars: 1}
        for _ in range(power):
            self.charge(out, base, at)
            out = mul_terms(out, base)
        return out


def _parse(text: str, variables: Sequence[str]) -> tuple[int, dict]:
    """The nonzero terms of polynomial text as ints over one positive
    denominator, 1 unless a '/' appears."""
    terms = _Parser(text, variables).parse()
    return TernaryForm._integral(terms) if "/" in text else (1, terms)


def parse_form(text: str, variables: Sequence[str]):
    """Parse polynomial text into a BinaryForm or TernaryForm.

    The result is canonical; parse(format(f)) == f for every nonzero form.  A
    zero form prints as `0`, which reads back as the zero of degree 0.
    Raises ParseError on bad syntax, HomogeneityError on mixed-degree input.
    """
    den, nums = _parse(text, variables)
    try:
        return _form(sum(next(iter(nums), ())), tuple(variables), den, nums)
    except HomogeneityError:
        raise HomogeneityError(f"inhomogeneous input: term degrees "
                               f"{sorted({sum(e) for e in nums})} in {text!r}") from None


def _form(degree: int, variables: tuple[str, ...], den: int, nums: Mapping[Exp, int]):
    """The form of integer terms over den; HomogeneityError off the degree."""
    if len(variables) == 2:
        _check_exponents(nums, 2, degree)
        return BinaryForm(degree, variables, den, map(
            nums.get, zip(range(degree, -1, -1), range(degree + 1)), repeat(0)))
    if len(variables) == 3:
        return TernaryForm(degree, variables, den, nums)
    raise ValueError("expected 2 or 3 variables")


# ---------------------------------------------------------------------------
# binary and ternary forms

@lru_cache(maxsize=32)
def _exponents(arity: int, degree: int) -> frozenset:
    return frozenset(((i, j, degree - i - j) for i in range(degree + 1)
                      for j in range(degree + 1 - i)) if arity == 3 else
                     zip(range(degree, -1, -1), range(degree + 1)))


def _check_exponents(terms: Mapping[Exp, object], arity: int, degree: int):
    """ValueError unless each exponent has `arity` entries, none negative, and
    HomogeneityError unless each sums to the degree (by one set inclusion)."""
    if degree > MAX_DEGREE or not terms.keys() <= _exponents(arity, degree):
        for e in terms:
            if len(e) != arity or min(e) < 0:
                raise ValueError(f"exponent {e} needs {arity} non-negative entries")
            if sum(e) != degree:
                raise HomogeneityError(f"exponent {e} does not sum to the degree {degree}")


class _Form(Frozen):
    """What both classes share, written once: construction, evaluation, text
    and JSON on the integers, and the Fraction view `terms`.  Each class keeps
    its own kernels: `_integral`, `_lowest`, `_descending`, `_value`, +, *."""

    def __init__(self, degree: int, variables: tuple[str, ...], *rep):
        """(degree, variables, den, nums), the fields, put in lowest terms by one
        gcd; or (degree, variables, terms), rationals `_integral` scales to ints."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        den, nums = self._lowest(degree, *(self._integral(*rep) if len(rep) == 1 else rep))
        _set(self, "degree", degree)  # the fields in order, as Frozen's loop would
        _set(self, "variables", variables)
        _set(self, "den", den)
        _set(self, "nums", nums)

    @property
    def terms(self) -> Mapping[Exp, Fraction]:
        """The read-only map exponent -> nonzero Fraction, built when read."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self._descending()})

    def is_zero(self) -> bool:
        return not any(self.nums)  # a ternary exponent, a key of nums, is never false

    def _check_vars(self, other: "_Form"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def _check_point(self, point: Sequence):
        if len(point) != len(self.variables):
            raise ValueError(f"point of {len(point)} coordinates for a form "
                             f"in {len(self.variables)} variables")

    def __sub__(self, other: "_Form") -> "_Form":
        return self + other.scale(-1)

    def __neg__(self) -> "_Form":
        return self.scale(-1)

    def evaluate(self, point: Sequence) -> Fraction:
        """The value at a point: `_value` at p = d*point, integral, over den*d^degree."""
        self._check_point(point)
        p, d = integral_row(point)
        return Fraction(self._value(p), self.den * d ** self.degree)

    def __str__(self) -> str:
        """Canonical text: graded-lex term order, reduced fractions, signs absorbed."""
        pieces, den = [], self.den
        for e, c in self._descending():
            factors = [v if k == 1 else f"{v}^{k}" for v, k in zip(self.variables, e) if k]
            if (c != den and c != -den) or not factors:
                factors.insert(0, rational_text(abs(c), den))
            pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
        text = " ".join(pieces) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json(self) -> dict:
        """The JSON report of a form, terms in descending exponent order."""
        return {"vars": list(self.variables), "degree": self.degree,
                "terms": [{"coef": rational_text(c, self.den), "exp": list(e)}
                          for e, c in self._descending()]}


class BinaryForm(_Form):
    """Homogeneous polynomial of fixed degree in an ordered variable pair:
    nums[j]/den is the coefficient of v0^(degree-j) * v1^j.  With three
    arguments, the third is the list of rational coefficients."""

    degree: int
    variables: tuple[str, str]
    den: int
    nums: tuple[int, ...]

    @staticmethod
    def _integral(coeffs: Iterable) -> tuple[int, list[int]]:
        return integral_row(coeffs)[::-1]

    @staticmethod
    def _lowest(degree: int, den: int, nums: Iterable[int]) -> tuple[int, tuple[int, ...]]:
        nums = tuple(nums)
        if len(nums) != degree + 1:
            raise ValueError("coefficient list must have degree+1 entries")
        g = gcd(den, *nums) * ((den > 0) - (den < 0))  # 0, so ZeroDivisionError, for den 0
        return den // g, nums if g == 1 else tuple(map(floordiv, nums, repeat(g)))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built when read."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    @classmethod
    def from_coeffs(cls, variables: tuple[str, str], coeffs: Iterable) -> "BinaryForm":
        cs = list(coeffs)
        return cls(len(cs) - 1, variables, cs)

    def _descending(self) -> list[tuple[Exp, int]]:
        return [((self.degree - j, j), c) for j, c in enumerate(self.nums) if c]

    def _value(self, p: Sequence[int]) -> int:
        """The numerators at an integer point, by homogeneous Horner in x1."""
        (x0, x1), total, power = p, 0, 1
        for c in reversed(self.nums):
            total, power = total * x1 + c * power, power * x0
        return total

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        self._check_vars(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch on add: {self.degree} vs {other.degree}")
        a, b = self.den, other.den
        return BinaryForm(self.degree, self.variables, a * b,
                          [x * b + y * a for x, y in zip(self.nums, other.nums)])

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        self._check_vars(other)
        return BinaryForm(self.degree + other.degree, self.variables, self.den * other.den,
                          mul_coeffs(self.nums, other.nums))

    def scale(self, c) -> "BinaryForm":
        c = _q(c)
        return BinaryForm(self.degree, self.variables, self.den * c.denominator,
                          [c.numerator * a for a in self.nums])


def directional_coeffs(c: Sequence, x0, x1) -> list:
    """The directional derivative of a binary form's coefficient list, on any
    numbers: c'_j = (d-j)*c_j*x0 + (j+1)*c_(j+1)*x1."""
    d = len(c) - 1
    return [(d - j) * c[j] * x0 + (j + 1) * c[j + 1] * x1 for j in range(d)]


def mul_coeffs(a: Sequence, b: Sequence) -> list:
    """The coefficient list of the product of two coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _primitive(v: Sequence[int]) -> list[int]:
    """v divided by its content; a zero vector stays zero."""
    content = gcd(*v) or 1
    return [x // content for x in v]


def _by_pullback(q: list[int], ints: Sequence[Sequence[int]]):
    """Primitive q = (a, b, l) and the generators, reversed if l = 0 != a."""
    if not any(q):
        raise ValueError("the zero vector is not a projective point")
    q = _primitive(q)
    return (q, ints) if q[2] or not q[0] else (q[::-1], [c[::-1] for c in ints])


def _mod_q(c: Sequence[int], q: Sequence[int]) -> Sequence[int]:
    """l^(len(c) - 2) * c modulo q = (a, b, l), pseudo-divided in two registers
    (Knuth 4.6.1); the ends of c if l = 0, that is q = b*s0*s1."""
    a, b, l = q
    if not l:
        return c[0], c[-1]
    r0, r1, power = c[-2], c[-1], l
    for x in reversed(c[:-2]):
        r0, r1 = x * power - r1 * a, l * r0 - r1 * b
        power *= l
    return r0, r1


def _exact_quotient(h: Sequence[int], q: Sequence[int]) -> list[int]:
    """h / q for a primitive q = (a, b, l) of `_by_pullback` dividing h: integral
    (Gauss); b times the middle of h if l = 0, since q is then b*s0*s1, b = +-1."""
    a, b, l = q
    if not l:
        return [b * x for x in h[1:-1]]
    r0, r1, quotient = h[-2], h[-1], []
    for x in reversed(h[:-2]):
        t = r1 // l
        r0, r1 = x - t * a, r0 - t * b
        quotient.append(t)
    return quotient[::-1]


def form_from_json(data: Mapping):
    """The form of a `to_json` report; ValueError on any malformed input."""
    try:
        variables = tuple(data["vars"])
        degree = data["degree"]
        pairs = [(tuple(t["exp"]), t["coef"]) for t in data["terms"]]
        terms = {e: rational_literal(c) if isinstance(c, str) else Fraction(c)
                 for e, c in pairs if isinstance(c, str) or type(c) is int}
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ValueError(f"malformed form JSON: {type(exc).__name__}: {exc}") from None
    if len(terms) != len(pairs):
        raise ValueError("malformed form JSON: coefficients must be integers or "
                         "strings, and no exponent may repeat")
    if len(variables) not in (2, 3) or not all(isinstance(v, str) for v in variables):
        raise ValueError("malformed form JSON: expected 2 or 3 variable names")
    if len(set(variables)) < len(variables) or not all(map(_is_variable, variables)):
        raise ValueError("malformed form JSON: variable names must be distinct, "
                         "each one variable of the polynomial grammar")
    if not (type(degree) is int and 0 <= degree <= MAX_DEGREE):
        raise ValueError(f"malformed form JSON: degree must be an integer in 0..{MAX_DEGREE}")
    for e in terms:
        if len(e) != len(variables) or not all(type(k) is int and k >= 0 for k in e):
            raise ValueError(f"malformed form JSON: bad exponent {list(e)}")
    return _form(degree, variables, *TernaryForm._integral(terms))


class TernaryForm(_Form):
    """Homogeneous polynomial in an ordered variable triple, stored sparsely: the
    read-only nums maps each exponent to a nonzero numerator (a third argument, to rationals)."""

    degree: int
    variables: tuple[str, str, str]
    den: int
    nums: Mapping[Exp, int]

    @staticmethod
    def _integral(terms: Mapping[Exp, object]) -> tuple[int, dict[Exp, int]]:
        terms = dict(terms)
        values, den = integral_row(list(terms.values()))
        return den, dict(zip(terms, values))

    @staticmethod
    def _lowest(degree: int, den: int, nums: Mapping[Exp, int]) -> tuple[int, Mapping[Exp, int]]:
        _check_exponents(nums, 3, degree)
        nums = {e: c for e, c in nums.items() if c} if 0 in nums.values() else nums
        g = gcd(den, *nums.values()) * ((den > 0) - (den < 0))
        nums = dict(zip(nums, map(floordiv, nums.values(), repeat(g)))) if g != 1 else dict(nums)
        return den // g, MappingProxyType(nums)

    def __hash__(self) -> int:
        return hash((self.degree, self.variables, self.den, frozenset(self.nums.items())))

    def __reduce__(self):
        return TernaryForm, (self.degree, self.variables, self.den, dict(self.nums))

    @classmethod
    def from_terms(cls, degree: int, variables: tuple[str, str, str],
                   terms: Mapping[Exp, Fraction]) -> "TernaryForm":
        return cls(degree, variables, terms)

    def _descending(self) -> list[tuple[Exp, int]]:
        return sorted(self.nums.items(), reverse=True)

    def _value(self, p: Sequence[int]) -> int:
        a, b, c = (list(accumulate(repeat(x, self.degree), mul, initial=1)) for x in p)
        return sum([x * a[i] * b[j] * c[k] for (i, j, k), x in self.nums.items()])

    @classmethod
    def constant(cls, value, variables: tuple[str, str, str]) -> "TernaryForm":
        return cls(0, variables, {(0, 0, 0): value})

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        self._check_vars(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch on add: {self.degree} vs {other.degree}")
        degree = other.degree if self.is_zero() else self.degree
        a, b = self.den, other.den
        return TernaryForm(degree, self.variables, a * b,
                           add_terms(scale_terms(b, self.nums), scale_terms(a, other.nums)))

    def __mul__(self, other: "TernaryForm") -> "TernaryForm":
        self._check_vars(other)
        return TernaryForm(self.degree + other.degree, self.variables, self.den * other.den,
                           mul_terms(self.nums, other.nums))

    def scale(self, c) -> "TernaryForm":
        c = _q(c)
        return TernaryForm(self.degree, self.variables, self.den * c.denominator,
                           scale_terms(c.numerator, self.nums))

    def substitute_linear(self, t: Sequence[Sequence]) -> "TernaryForm":
        """Projective coordinate change: returns F with x_i := sum_j t[i][j]*x_j.

        The integer core, `substitute_terms`, runs on the numerators and the
        matrix times e, and rejects a singular t; the result is over
        den*e^degree (F is homogeneous)."""
        entries, e = integral_row([t[i][j] for i in range(3) for j in range(3)])
        m = [entries[i:i + 3] for i in (0, 3, 6)]
        return TernaryForm(self.degree, self.variables, self.den * e ** self.degree,
                           substitute_terms(self.nums, self.degree, m))

    def lex_normalized(self) -> "TernaryForm":
        """The numerators over the lexicographically-first one, which becomes 1."""
        lead = self.nums[max(self.nums)] if self.nums else 0
        return self if lead in (0, self.den) else TernaryForm(
            self.degree, self.variables, lead, self.nums)

    def proportional_to(self, other: "TernaryForm") -> bool:
        """Equality as projective curves (up to a nonzero scalar)."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.lex_normalized() == other.lex_normalized()
