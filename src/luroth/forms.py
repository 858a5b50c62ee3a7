"""Exact arithmetic for homogeneous polynomials over the rationals.

Two concrete containers are provided: :class:`BinaryForm` (homogeneous in an
ordered pair of variables, dense coefficient list) and :class:`TernaryForm`
(homogeneous in an ordered triple, sparse exponent map).  All coefficients are
`fractions.Fraction`, every operation is exact, and all values are immutable.

The zero polynomial carries an explicit degree annotation so that typed
pipelines (decompositions, matrix entries) stay total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Exp = tuple[int, ...]
TermMap = dict[Exp, Fraction]


class ParseError(ValueError):
    """Syntax error in polynomial text, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class HomogeneityError(ValueError):
    """Input mixes terms of different total degree."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation does not hold."""


def _q(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


# ---------------------------------------------------------------------------
# sparse term-map arithmetic (shared by the parser, TernaryForm, the
# polynomial determinant in linalg and the curve kernel in poncelet)

def clean_terms(terms: Mapping[Exp, Fraction]) -> TermMap:
    return {e: c for e, c in terms.items() if c != 0}


def add_terms(a: Mapping[Exp, Fraction], b: Mapping[Exp, Fraction]) -> TermMap:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def mul_terms(a: Mapping[Exp, Fraction], b: Mapping[Exp, Fraction]) -> TermMap:
    out: TermMap = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, Fraction(0)) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale_terms(c: Fraction, a: Mapping[Exp, Fraction]) -> TermMap:
    if c == 0:
        return {}
    return {e: c * v for e, v in a.items()}


_UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _times_linear(terms: Mapping[Exp, object], line) -> dict:
    """terms * (sum of t * x_k over the (unit exponent of x_k, t) pairs in line)."""
    out: dict = {}
    for (i, j, k), c in terms.items():
        for (di, dj, dk), t in line:
            e = (i + di, j + dj, k + dk)
            out[e] = out.get(e, 0) + c * t
    return out


def substitute_terms(terms: Mapping[Exp, object], degree: int,
                     m: Sequence[Sequence]) -> dict:
    """Terms of a ternary form after x_i := L_i = sum_j m[i][j]*x_j.

    Homogeneous Horner, multiplying only by linear forms: sum_a x0^a f_a(x1, x2)
    is (..(f_d*L0 + f_(d-1))*L0 ..) + f_0, each f_a Horner in L1 over L2^k.
    Coefficients may be of any numeric type; ints stay ints.
    """
    l0, l1, l2 = ([(_UNITS[j], m[i][j]) for j in range(3) if m[i][j]] for i in range(3))
    powers = [{(0, 0, 0): 1}]
    for _ in range(degree):
        powers.append(_times_linear(powers[-1], l2))
    out: dict = {}
    for a in range(degree, -1, -1):
        out = _times_linear(out, l0)
        part: dict = {}
        for b in range(degree - a, -1, -1):
            part = _times_linear(part, l1)
            c = terms.get((a, b, degree - a - b))
            if c:
                for e, p in powers[degree - a - b].items():
                    part[e] = part.get(e, 0) + c * p
        for e, p in part.items():
            out[e] = out.get(e, 0) + p
    return {e: c for e, c in out.items() if c}


def _term_degrees(terms: Mapping[Exp, Fraction]) -> set[int]:
    return {sum(e) for e in terms}


def _degree(terms: Mapping[Exp, Fraction]) -> int:
    return max(map(sum, terms), default=0)


def format_terms(terms: Mapping[Exp, Fraction], variables: Sequence[str]) -> str:
    """Canonical text: graded-lex term order, reduced fractions, signs absorbed."""
    if not terms:
        return "0"
    pieces = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        factors = []
        for var, k in zip(variables, e):
            if k == 1:
                factors.append(var)
            elif k > 1:
                factors.append(f"{var}^{k}")
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(c))] + factors)
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# parser

MAX_DEGREE = 100
"""Largest exponent and term degree the parser accepts; above it, a ParseError
before any expansion.  Admits pencils up to n = 99 and every nodal quartic."""

_TOKEN_CHARS = set("+-*/^() \t")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over +, -, *, ^ and parentheses; expands on the fly."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = list(variables)
        self.nvars = len(variables)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse(self) -> TermMap:
        terms = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", at)
        return terms

    def expr(self) -> TermMap:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        terms = self.term()
        if negate:
            terms = scale_terms(Fraction(-1), terms)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                if val == "-":
                    rhs = scale_terms(Fraction(-1), rhs)
                terms = add_terms(terms, rhs)
            else:
                return terms

    def term(self) -> TermMap:
        terms = self.factor()
        while True:
            kind, val, _ = self.peek()
            if not (kind == "op" and val == "*"):
                return terms
            self.next()
            at = self.peek()[2]
            rhs = self.factor()
            if _degree(terms) + _degree(rhs) > MAX_DEGREE:
                raise ParseError(f"term degree above MAX_DEGREE = {MAX_DEGREE}", at)
            terms = mul_terms(terms, rhs)

    def factor(self) -> TermMap:
        kind, val, at = self.peek()
        if kind == "op" and val == "(":
            self.next()
            inner = self.expr()
            self.expect_op(")")
            return self._maybe_power(inner)
        if kind == "int":
            self.next()
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.next()
                kind3, val3, at3 = self.next()
                if kind3 != "int":
                    raise ParseError("expected integer denominator", at3)
                if int(val3) == 0:
                    raise ParseError("zero denominator", at3)
                coef = Fraction(num, int(val3))
            else:
                coef = Fraction(num)
            zero_exp = (0,) * self.nvars
            return {zero_exp: coef} if coef else {}
        if kind == "name":
            self.next()
            if val not in self.variables:
                raise ParseError(f"unknown variable {val!r}", at)
            idx = self.variables.index(val)
            exp = tuple(1 if i == idx else 0 for i in range(self.nvars))
            return self._maybe_power({exp: Fraction(1)})
        raise ParseError(f"expected a factor, got {val!r}" if val else "unexpected end of input", at)

    def _maybe_power(self, base: TermMap) -> TermMap:
        """base^k: a single term in closed form, a sum by repeated products."""
        kind, val, _ = self.peek()
        if not (kind == "op" and val == "^"):
            return base
        self.next()
        kind, val, at = self.next()
        if kind != "int":
            raise ParseError("expected integer exponent", at)
        digits = val.lstrip("0")
        power = int(digits or "0") if len(digits) <= len(str(MAX_DEGREE)) else MAX_DEGREE + 1
        if max(power, power * _degree(base)) > MAX_DEGREE:
            raise ParseError(f"exponent or degree above MAX_DEGREE = {MAX_DEGREE}", at)
        if len(base) == 1:
            (e, c), = base.items()
            return {tuple(power * x for x in e): c ** power}
        out: TermMap = {(0,) * self.nvars: Fraction(1)}
        for _ in range(power):
            out = mul_terms(out, base)
        return out


def parse_terms(text: str, variables: Sequence[str]) -> TermMap:
    return _Parser(text, variables).parse()


def parse_form(text: str, variables: Sequence[str]):
    """Parse polynomial text into a BinaryForm or TernaryForm.

    The result is canonical; parse(format(f)) == f for every canonical form.
    Raises ParseError on bad syntax, HomogeneityError on mixed-degree input.
    """
    terms = parse_terms(text, variables)
    degrees = _term_degrees(terms)
    if len(degrees) > 1:
        raise HomogeneityError(
            f"inhomogeneous input: term degrees {sorted(degrees)} in {text!r}")
    degree = degrees.pop() if degrees else 0
    if len(variables) == 2:
        return BinaryForm.from_terms(degree, tuple(variables), terms)
    if len(variables) == 3:
        return TernaryForm.from_terms(degree, tuple(variables), terms)
    raise ValueError("expected 2 or 3 variables")


# ---------------------------------------------------------------------------
# binary forms

@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous polynomial of fixed degree in an ordered variable pair.

    coeffs[j] is the coefficient of v0^(degree-j) * v1^j.
    """

    degree: int
    variables: tuple[str, str]
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient list must have degree+1 entries")

    @classmethod
    def zero(cls, degree: int, variables: tuple[str, str]) -> "BinaryForm":
        return cls(degree, variables, tuple(Fraction(0) for _ in range(degree + 1)))

    @classmethod
    def from_coeffs(cls, variables: tuple[str, str], coeffs: Iterable) -> "BinaryForm":
        cs = tuple(_q(c) for c in coeffs)
        return cls(len(cs) - 1, variables, cs)

    @classmethod
    def from_terms(cls, degree: int, variables: tuple[str, str],
                   terms: Mapping[Exp, Fraction]) -> "BinaryForm":
        coeffs = [Fraction(0)] * (degree + 1)
        for (i, j), c in terms.items():
            if i + j != degree:
                raise HomogeneityError("exponents do not match declared degree")
            coeffs[j] = c
        return cls(degree, variables, tuple(coeffs))

    def terms(self) -> TermMap:
        return {(self.degree - j, j): c for j, c in enumerate(self.coeffs) if c}

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_vars(self, other: "BinaryForm"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        self._check_vars(other)
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch on add: {self.degree} vs {other.degree}")
        return BinaryForm(self.degree, self.variables,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        return self + other.scale(-1)

    def __neg__(self) -> "BinaryForm":
        return self.scale(-1)

    def __mul__(self, other: "BinaryForm") -> "BinaryForm":
        self._check_vars(other)
        coeffs = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                coeffs[i + j] += a * b
        return BinaryForm(self.degree + other.degree, self.variables, tuple(coeffs))

    def scale(self, c) -> "BinaryForm":
        c = _q(c)
        return BinaryForm(self.degree, self.variables, tuple(c * a for a in self.coeffs))

    def power(self, k: int) -> "BinaryForm":
        out = BinaryForm(0, self.variables, (Fraction(1),))
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        a, b = _q(point[0]), _q(point[1])
        total = Fraction(0)
        for j, c in enumerate(self.coeffs):
            if c:
                total += c * a ** (self.degree - j) * b ** j
        return total

    def partial(self, var: str) -> "BinaryForm":
        if self.degree == 0:
            raise PreconditionError("cannot differentiate a degree-0 form")
        d = self.degree
        if var == self.variables[0]:
            coeffs = tuple((d - j) * self.coeffs[j] for j in range(d))
        elif var == self.variables[1]:
            coeffs = tuple((j + 1) * self.coeffs[j + 1] for j in range(d))
        else:
            raise ValueError(f"unknown variable {var!r}")
        return BinaryForm(d - 1, self.variables, coeffs)

    def directional(self, xi: Sequence) -> "BinaryForm":
        """Directional derivative: xi0 * d/dv0 + xi1 * d/dv1."""
        if self.degree == 0:
            raise PreconditionError("directional derivative needs degree >= 1")
        p0 = self.partial(self.variables[0]).scale(_q(xi[0]))
        p1 = self.partial(self.variables[1]).scale(_q(xi[1]))
        return p0 + p1

    def substitute_pair(self, m: Sequence[Sequence]) -> "BinaryForm":
        """Replace (v0, v1) by (m00*v0 + m01*v1, m10*v0 + m11*v1)."""
        a, b = _q(m[0][0]), _q(m[0][1])
        c, d = _q(m[1][0]), _q(m[1][1])
        l0 = BinaryForm(1, self.variables, (a, b))
        l1 = BinaryForm(1, self.variables, (c, d))
        out = BinaryForm.zero(self.degree, self.variables)
        for j, coef in enumerate(self.coeffs):
            if coef == 0:
                continue
            out = out + (l0.power(self.degree - j) * l1.power(j)).scale(coef)
        return out

    def v1_multiplicity(self) -> int:
        """Multiplicity of the second variable as a factor (degree if zero)."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return self.degree

    def monic(self) -> "BinaryForm":
        for c in self.coeffs:
            if c:
                return self.scale(1 / c)
        return self

    def __str__(self) -> str:
        return format_terms(self.terms(), self.variables)

    def to_json(self) -> dict:
        return {
            "vars": list(self.variables),
            "degree": self.degree,
            "terms": [{"coef": str(c), "exp": list(e)}
                      for e, c in sorted(self.terms().items(), reverse=True)],
        }


def form_from_json(data: Mapping):
    variables = tuple(data["vars"])
    terms = {tuple(t["exp"]): Fraction(t["coef"]) for t in data["terms"]}
    degree = int(data["degree"])
    if len(variables) == 2:
        return BinaryForm.from_terms(degree, variables, terms)
    return TernaryForm.from_terms(degree, variables, terms)


# univariate helpers for the binary-form gcd (dehomogenize at v1 = 1)

def _to_univariate(f: BinaryForm) -> list[Fraction]:
    # ascending coefficients in x = v0; u[k] = coeff of v0^k
    u = [f.coeffs[f.degree - k] for k in range(f.degree + 1)]
    while u and u[-1] == 0:
        u.pop()
    return u


def _unidivmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        c = rem[-1] / lead
        quot[k] = c
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _from_univariate(u: list[Fraction], degree: int, variables: tuple[str, str]) -> BinaryForm:
    coeffs = [Fraction(0)] * (degree + 1)
    for k, c in enumerate(u):
        coeffs[degree - k] = c
    return BinaryForm(degree, variables, tuple(coeffs))


def form_gcd(g: BinaryForm, h: BinaryForm) -> BinaryForm:
    """Monic gcd in the binary-form ring (zero inputs handled)."""
    if g.is_zero():
        return h.monic()
    if h.is_zero():
        return g.monic()
    a, b = _to_univariate(g), _to_univariate(h)
    while b:
        _, r = _unidivmod(a, b)
        a, b = b, r
    mult = min(g.v1_multiplicity(), h.v1_multiplicity())
    degree = (len(a) - 1) + mult
    return _from_univariate(a, degree, g.variables).monic()


# ---------------------------------------------------------------------------
# ternary forms

@dataclass(frozen=True, eq=False)
class TernaryForm:
    """Homogeneous polynomial in an ordered variable triple, stored sparsely."""

    degree: int
    variables: tuple[str, str, str]
    terms: TermMap

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        for e, c in self.terms.items():
            if len(e) != 3 or sum(e) != self.degree:
                raise HomogeneityError("exponent triple does not sum to the degree")
            if c == 0:
                raise ValueError("stored zero coefficient")

    @classmethod
    def from_terms(cls, degree: int, variables: tuple[str, str, str],
                   terms: Mapping[Exp, Fraction]) -> "TernaryForm":
        return cls(degree, variables, clean_terms({e: _q(c) for e, c in terms.items()}))

    @classmethod
    def zero(cls, degree: int, variables: tuple[str, str, str]) -> "TernaryForm":
        return cls(degree, variables, {})

    @classmethod
    def constant(cls, value, variables: tuple[str, str, str]) -> "TernaryForm":
        value = _q(value)
        return cls(0, variables, {(0, 0, 0): value} if value else {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TernaryForm):
            return NotImplemented
        return (self.degree == other.degree and self.variables == other.variables
                and self.terms == other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp: Exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def _check_vars(self, other: "TernaryForm"):
        if self.variables != other.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        self._check_vars(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch on add: {self.degree} vs {other.degree}")
        degree = other.degree if self.is_zero() else self.degree
        return TernaryForm(degree, self.variables, add_terms(self.terms, other.terms))

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        return self + other.scale(-1)

    def __neg__(self) -> "TernaryForm":
        return self.scale(-1)

    def __mul__(self, other: "TernaryForm") -> "TernaryForm":
        self._check_vars(other)
        return TernaryForm(self.degree + other.degree, self.variables,
                           mul_terms(self.terms, other.terms))

    def scale(self, c) -> "TernaryForm":
        return TernaryForm(self.degree, self.variables, scale_terms(_q(c), self.terms))

    def evaluate(self, point: Sequence) -> Fraction:
        p = [_q(x) for x in point]
        total = Fraction(0)
        for (i, j, k), c in self.terms.items():
            total += c * p[0] ** i * p[1] ** j * p[2] ** k
        return total

    def partial(self, var: str) -> "TernaryForm":
        if var not in self.variables:
            raise ValueError(f"unknown variable {var!r}")
        if self.degree == 0:
            raise PreconditionError("cannot differentiate a degree-0 form")
        idx = self.variables.index(var)
        out: TermMap = {}
        for e, c in self.terms.items():
            if e[idx] == 0:
                continue
            ne = tuple(x - 1 if i == idx else x for i, x in enumerate(e))
            out[ne] = out.get(ne, Fraction(0)) + c * e[idx]
        return TernaryForm(self.degree - 1, self.variables, clean_terms(out))

    def gradient(self) -> tuple["TernaryForm", "TernaryForm", "TernaryForm"]:
        return tuple(self.partial(v) for v in self.variables)

    def substitute_linear(self, t: Sequence[Sequence]) -> "TernaryForm":
        """Projective coordinate change: returns F with x_i := sum_j t[i][j]*x_j."""
        from .linalg import det_rational  # local import; no cycle at module level
        m = [[_q(t[i][j]) for j in range(3)] for i in range(3)]
        if det_rational(m) == 0:
            raise PreconditionError("coordinate change matrix is singular")
        return TernaryForm(self.degree, self.variables,
                           substitute_terms(self.terms, self.degree, m))

    def with_vars(self, new_variables: tuple[str, str, str]) -> "TernaryForm":
        """Reorder the variable triple (same names, permuted positions)."""
        if sorted(new_variables) != sorted(self.variables):
            raise ValueError("new variable triple must be a permutation of the old one")
        perm = [self.variables.index(v) for v in new_variables]
        out = {tuple(e[p] for p in perm): c for e, c in self.terms.items()}
        return TernaryForm(self.degree, new_variables, out)

    def lex_leading_coefficient(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        return self.terms[max(self.terms)]

    def lex_normalized(self) -> "TernaryForm":
        """Scale so the lexicographically-first monomial has coefficient 1."""
        lead = self.lex_leading_coefficient()
        return self if lead in (0, 1) else self.scale(1 / lead)

    def proportional_to(self, other: "TernaryForm") -> bool:
        """Equality as projective curves (up to a nonzero scalar)."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.lex_normalized() == other.lex_normalized()

    def __str__(self) -> str:
        return format_terms(self.terms, self.variables)

    def to_json(self) -> dict:
        return {
            "vars": list(self.variables),
            "degree": self.degree,
            "terms": [{"coef": str(c), "exp": list(e)}
                      for e, c in sorted(self.terms.items(), reverse=True)],
        }
