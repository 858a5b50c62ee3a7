"""Rational Gaussian elimination: the slow, independent oracle of the
fraction-free elimination in `luroth.linalg` (`det_rational`, `rank`,
`solve_linear`, `nullspace` and `invert`)."""

from fractions import Fraction


def _rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rational_det(rows) -> Fraction:
    """Determinant by rational elimination with row swaps."""
    m = _rows(rows)
    n = len(m)
    assert all(len(row) == n for row in m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                factor = m[i][c] * inv
                m[i] = [x - factor * y for x, y in zip(m[i], m[c])]
    return det


def rational_rank(rows) -> int:
    """Number of pivots of a rational row echelon form."""
    m = _rows(rows)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                factor = m[i][c] / m[r][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rational_row_echelon(rows):
    """Reduced row echelon form over the rationals and its pivot columns."""
    m = _rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rational_solve(a, b):
    """(status, vector) of A x = b, with the statuses of `LinearSolution`."""
    ncols = len(a[0]) if a else 0
    red, pivots = rational_row_echelon([list(row) + [x] for row, x in zip(a, b)])
    if ncols in pivots:
        return "no_solution", None
    if len(pivots) < ncols:
        return "non_unique", None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return "unique", tuple(x)


def rational_nullspace(rows):
    """Right-kernel basis: one vector per free column, 1 there."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rational_row_echelon(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        basis.append(tuple(vec))
    return basis


def rational_invert(rows):
    """Inverse of a square matrix, or None when it is singular."""
    n = len(rows)
    red, pivots = rational_row_echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]
