"""Exact integer matrix algebra: determinants, characteristic polynomials,
adjugates, normal forms.

Everything here runs on Python's arbitrary-precision integers and never
touches floating point. The chain iteration downstream can square
denominators per level, so fixed-width arithmetic would overflow within a
couple dozen levels even in dimension one.
"""

from __future__ import annotations

import math
from operator import getitem, index, mul, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, SingularMatrix


class IntMatrix:
    """Immutable square matrix over Z, stored as a tuple of row tuples.

    Entries go through operator.index, which takes int, bool and NumPy
    integers and raises TypeError on a float, a string or anything else
    that is not an integer, instead of truncating it.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        clean = tuple(tuple(map(index, row)) for row in rows)
        if not clean or any(len(row) != len(clean) for row in clean):
            raise ValueError("matrix must be non-empty and square")
        object.__setattr__(self, "rows", clean)

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Trusted constructor for the results of this module's own
        arithmetic: rows must already be a non-empty square tuple of int
        tuples, so nothing is converted or checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(d: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(d)] for i in range(d)])

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        d = len(entries)
        return IntMatrix(
            [[entries[i] if i == j else 0 for j in range(d)] for i in range(d)]
        )

    @staticmethod
    def scalar(d: int, c: int) -> "IntMatrix":
        return IntMatrix.diagonal([c] * d)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.rows)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if len(self.rows) != len(other.rows):
            raise ValueError("dimension mismatch in matrix product")
        cols = list(zip(*other.rows))
        return IntMatrix._of(tuple([
            tuple([sum(map(mul, row, col)) for col in cols]) for row in self.rows
        ]))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != len(self.rows):
            raise ValueError("dimension mismatch in matrix-vector product")
        return tuple([sum(map(mul, row, vec)) for row in self.rows])

    def is_diagonal(self) -> bool:
        return all(
            self.rows[i][j] == 0 for i in range(self.dim) for j in range(self.dim) if i != j
        )

    def is_upper_triangular(self) -> bool:
        return not any(any(row[:i]) for i, row in enumerate(self.rows))

    def is_lower_triangular(self) -> bool:
        return not any(any(row[i + 1:]) for i, row in enumerate(self.rows))

    def scalar_value(self) -> int | None:
        """The c with self == c*I, or None."""
        c = self.rows[0][0]
        for i, row in enumerate(self.rows):
            if row[i] != c or any(row[:i]) or any(row[i + 1:]):
                return None
        return c

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"


class SmithDecomposition(NamedTuple):
    """p @ m @ q == d for the decomposed matrix m; p, q unimodular, d a
    positive diagonal divisibility chain."""

    p: IntMatrix
    d: IntMatrix
    q: IntMatrix


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), for a > 0."""
    g = math.gcd(a, b)
    y = pow(b // g, -1, a // g)
    return g, (g - b * y) // a, y


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination (Math. Comp.
    22, 1968); every division below is exact."""
    a = [list(r) for r in m.rows]
    d = len(a)
    sign = 1
    prev = 1
    for k in range(d - 1):
        if a[k][k] == 0:
            for i in range(k + 1, d):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _faddeev_leverrier(m: IntMatrix) -> tuple[list[int], IntMatrix]:
    """(coefficients of det(xI - m), highest degree first; adj(m)).

    With M_1 = m, c_k = -tr(M_k) / k, N_(k+1) = M_k + c_k I and
    M_(k+1) = m N_(k+1), the c_k are the coefficients after the leading 1.
    By Cayley-Hamilton m N_d = -c_d I, so c_d is one entry of that product
    and adj(m) = (-1)^(d+1) N_d, singular m included. The division by k is
    exact over Z.
    """
    a = m.rows
    d = len(a)
    coeffs = [1]
    n = [[1]]  # N_1 = I, left as is only when d = 1
    mk = a
    for k in range(1, d):
        tr = sum(map(getitem, mk, range(d)))
        if tr % k:
            raise ConsistencyError("Faddeev-LeVerrier trace not divisible")
        c = -(tr // k)
        coeffs.append(c)
        n = [list(row) for row in mk]
        for i, row in enumerate(n):
            row[i] += c
        if k + 1 < d:
            cols = list(zip(*n))
            mk = [[sum(map(mul, row, col)) for col in cols] for row in a]
    coeffs.append(-sum(map(mul, a[0], [row[0] for row in n])))
    if d % 2:
        return coeffs, IntMatrix._of(tuple(map(tuple, n)))
    return coeffs, IntMatrix._of(tuple(tuple(map(neg, row)) for row in n))


def charpoly(m: IntMatrix) -> list[int]:
    """Monic characteristic polynomial det(xI - m), highest degree first."""
    return _faddeev_leverrier(m)[0]


def adjugate(m: IntMatrix) -> IntMatrix:
    """The adj with m @ adj == det(m) * I."""
    return _faddeev_leverrier(m)[1]


def det_adjugate(m: IntMatrix) -> tuple[int, IntMatrix]:
    """(det(m), adj(m)) from one Faddeev-LeVerrier pass, with no Bareiss
    elimination: det(m) = (-1)^d c_d."""
    coeffs, adj = _faddeev_leverrier(m)
    return (coeffs[-1] if m.dim % 2 == 0 else -coeffs[-1]), adj


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    dt, adj = det_adjugate(m)
    if abs(dt) != 1:
        raise ValueError("matrix is not unimodular")
    if dt == 1:
        return adj
    return IntMatrix._of(tuple(tuple(-x for x in row) for row in adj.rows))


def _row_axpy(mat, i: int, k: int, q: int) -> None:
    # row_i -= q * row_k
    ri, rk = mat[i], mat[k]
    for j in range(len(ri)):
        ri[j] -= q * rk[j]


def hnf_rows(
    rows: Sequence[Sequence[int]],
    dim: int,
    modulus: int,
    start: Optional[Sequence[Sequence[int]]] = None,
) -> IntMatrix:
    """Row Hermite normal form of the lattice span(start) + span(rows).

    `start` is an upper-triangular basis with positive pivots whose span
    contains modulus * Z^dim; None stands for modulus * I, so the default
    lattice is span(rows) + modulus * Z^dim. The result is upper triangular
    with positive pivots and entries above each pivot reduced into
    [0, pivot). That form is unique per row lattice, so it is the canonical
    representative used everywhere in the package, and
    hnf_rows(rows, dim, M, T) == hnf_rows(T + rows, dim, M). A caller that
    wants the HNF of span(rows) itself passes a positive multiple of its
    index [Z^dim : span(rows)].

    The elimination runs modulo `modulus` (Domich-Kannan-Trotter 1987;
    Cohen, GTM 138, Alg. 2.4.8), which keeps the working entries of `rows`
    in [0, modulus). Column by column, each live row is folded into the
    pivot row, which starts as row c of `start`, and leaves the row zero in
    column c: by one subtraction when one of the two leading entries
    divides the other, else by one extended-gcd step. Entries right of
    column c are then reduced modulo `modulus`, which only adds vectors of
    modulus * Z^dim. A known starting basis thus costs one fold per row of
    `rows` and none for the rows it stands for.
    """
    if modulus <= 0 or dim <= 0:
        raise ValueError("modulus and dim must be positive")
    if any(len(row) != dim for row in rows):
        raise ValueError("rows must have length dim")
    if start is not None and len(start) != dim:
        raise ValueError("start must have dim rows")
    # live rows keep only the columns from c on
    live = [[x % modulus for x in row] for row in rows]
    h = []
    for c in range(dim):
        if start is None:
            piv = [0] * (dim - c)
            piv[0] = modulus
        else:
            top = start[c]
            if len(top) != dim or top[c] <= 0 or any(top[:c]):
                raise ValueError("start must be upper triangular with positive pivots")
            piv = list(top[c:])
        rest = []
        for row in live:
            a = row[0]
            if a:
                p = piv[0]
                if not a % p:
                    q = a // p
                    row = [(y - q * x) % modulus for x, y in zip(piv, row)]
                elif not p % a:
                    q = p // a
                    piv, row = row, [(x - q * y) % modulus for x, y in zip(piv, row)]
                else:
                    g, s, t = _xgcd(p, a)
                    u, v = p // g, a // g
                    piv, row = (
                        [g] + [(s * x + t * y) % modulus for x, y in zip(piv[1:], row[1:])],
                        [(v * x - u * y) % modulus for x, y in zip(piv, row)],
                    )
            if any(row):
                rest.append(row[1:])
        h.append([0] * c + piv)
        live = rest
    for c in range(dim):
        p = h[c][c]
        for i in range(c):
            q = h[i][c] // p
            if q:
                _row_axpy(h, i, c, q)
    return IntMatrix._of(tuple(map(tuple, h)))


def _col_axpy(mat, j: int, k: int, q: int) -> None:
    # col_j -= q * col_k
    for row in mat:
        row[j] -= q * row[k]


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith decomposition p @ m @ q == d (Cohen, GTM 138, §2.4.4).

    d is the positive diagonal divisibility chain d1 | d2 | ... | dd, which
    pins it down uniquely; p and q are the unimodular products of the row
    and column operations that reduce m to d. A singular m leaves an
    all-zero trailing block during the elimination, which raises
    SingularMatrix.
    """
    d = m.dim
    # One working matrix [[m, I], [I, 0]]: an operation on rows < d carries
    # the row transform p along in columns >= d, one on columns < d carries
    # the column transform q along in rows >= d, and the top-left block
    # stays p @ m @ q throughout.
    w = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(m.rows)]
    w += [[int(i == j) for j in range(d)] + [0] * d for i in range(d)]

    for t in range(d):
        while True:
            best = None
            for i in range(t, d):
                for j in range(t, d):
                    if w[i][j] != 0 and (best is None or abs(w[i][j]) < best[0]):
                        best = (abs(w[i][j]), i, j)
            if best is None:
                raise SingularMatrix("snf requires a nonsingular matrix")
            _, bi, bj = best
            if bi != t:
                w[t], w[bi] = w[bi], w[t]
            if bj != t:
                for row in w:
                    row[t], row[bj] = row[bj], row[t]
            dirty = False
            for i in range(t + 1, d):
                if w[i][t]:
                    _row_axpy(w, i, t, w[i][t] // w[t][t])
                    if w[i][t]:
                        dirty = True
            for j in range(t + 1, d):
                if w[t][j]:
                    _col_axpy(w, j, t, w[t][j] // w[t][t])
                    if w[t][j]:
                        dirty = True
            if not dirty:
                break

    # the top-left block is diagonal now, so a sign flip negates a whole row
    for t in range(d):
        if w[t][t] < 0:
            w[t] = [-x for x in w[t]]

    while True:
        fixed = True
        for i in range(d - 1):
            aa, bb = w[i][i], w[i + 1][i + 1]
            if bb % aa == 0:
                continue
            fixed = False
            j = i + 1
            _col_axpy(w, i, j, -1)  # col_i += col_j, so w[j][i] = bb
            g, s, tt = _xgcd(aa, bb)
            # rows i, j <- [[s, tt], [-bb/g, aa/g]] times rows i, j; det 1
            u, v = -(bb // g), aa // g
            ri, rj = w[i], w[j]
            w[i] = [s * x + tt * y for x, y in zip(ri, rj)]
            w[j] = [u * x + v * y for x, y in zip(ri, rj)]
            # w[i][i] = g, w[i][j] = tt*bb, w[j][j] = lcm(aa, bb)
            _col_axpy(w, j, i, (tt * bb) // g)
        if fixed:
            break

    top = w[:d]
    return SmithDecomposition(
        IntMatrix._of(tuple([tuple(row[d:]) for row in top])),
        IntMatrix._of(tuple([tuple(row[:d]) for row in top])),
        IntMatrix._of(tuple([tuple(row[:d]) for row in w[d:]])),
    )
