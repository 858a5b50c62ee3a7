"""Rational Gaussian elimination: the slow, independent oracle of the
fraction-free `det_rational` and `rank` in `luroth.linalg`."""

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
