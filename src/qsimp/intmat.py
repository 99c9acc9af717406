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
    """u * d * v equals the decomposed matrix; u, v unimodular, d a positive
    diagonal divisibility chain."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


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


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    coeffs, adj = _faddeev_leverrier(m)
    # det(m) = (-1)^d c_d
    dt = coeffs[-1] if m.dim % 2 == 0 else -coeffs[-1]
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


def snf(m: IntMatrix) -> SmithDecomposition:
    """Smith decomposition m = U * D * V.

    D is the positive diagonal divisibility chain d1 | d2 | ... | dd, which
    pins D down uniquely; U and V are unimodular. Requires det(m) != 0 so no
    diagonal entry vanishes.
    """
    if det(m) == 0:
        raise SingularMatrix("snf requires a nonsingular matrix")
    d = m.dim
    a = [list(row) for row in m.rows]
    # Invariant: a == r_acc @ m @ c_acc. The returned u, v invert r_acc, c_acc.
    r_acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    c_acc = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def row_axpy(i, k, q):
        _row_axpy(a, i, k, q)
        _row_axpy(r_acc, i, k, q)

    def col_axpy(j, k, q):
        # col_j -= q * col_k
        for mat in (a, c_acc):
            for row in mat:
                row[j] -= q * row[k]

    def row_swap(i, k):
        a[i], a[k] = a[k], a[i]
        r_acc[i], r_acc[k] = r_acc[k], r_acc[i]

    def col_swap(j, k):
        for mat in (a, c_acc):
            for row in mat:
                row[j], row[k] = row[k], row[j]

    def row_combine(i, k, p, q, rr, ss):
        # (row_i, row_k) <- (p*row_i + q*row_k, rr*row_i + ss*row_k)
        for mat in (a, r_acc):
            ri, rk = mat[i], mat[k]
            for j in range(d):
                x, y = ri[j], rk[j]
                ri[j] = p * x + q * y
                rk[j] = rr * x + ss * y

    for t in range(d):
        while True:
            best = None
            for i in range(t, d):
                for j in range(t, d):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
            _, bi, bj = best
            if bi != t:
                row_swap(t, bi)
            if bj != t:
                col_swap(t, bj)
            dirty = False
            for i in range(t + 1, d):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_axpy(i, t, q)
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, d):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_axpy(j, t, q)
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break

    for t in range(d):
        if a[t][t] < 0:
            a[t][t] = -a[t][t]
            for j in range(d):
                r_acc[t][j] = -r_acc[t][j]

    while True:
        fixed = True
        for i in range(d - 1):
            aa, bb = a[i][i], a[i + 1][i + 1]
            if bb % aa == 0:
                continue
            fixed = False
            j = i + 1
            col_axpy(i, j, -1)  # col_i += col_j, so a[j][i] = bb
            g, s, tt = _xgcd(aa, bb)
            row_combine(i, j, s, tt, -(bb // g), aa // g)
            # a[i][i] = g, a[i][j] = tt*bb, a[j][j] = lcm(aa, bb)
            col_axpy(j, i, (tt * bb) // g)
        if fixed:
            break

    u = unimodular_inverse(IntMatrix._of(tuple(map(tuple, r_acc))))
    v = unimodular_inverse(IntMatrix._of(tuple(map(tuple, c_acc))))
    return SmithDecomposition(u, IntMatrix._of(tuple(map(tuple, a))), v)

