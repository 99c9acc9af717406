"""Exact integer matrix algebra: determinants, characteristic polynomials,
adjugates, normal forms.

Everything here runs on Python's arbitrary-precision integers and never
touches floating point. The chain iteration downstream can square
denominators per level, so fixed-width arithmetic would overflow within a
couple dozen levels even in dimension one.

Two exact kernels serve everything but the normal forms: `det_adjugate`,
a fraction-free Gauss-Jordan pass in O(d^3) operations, and `charpoly`,
Newton's identities over the power sums tr(m^k), which take O(sqrt(d))
matrix products. `det` is fraction-free Bareiss elimination alone. The
Gauss-Jordan pass stops at a singular matrix; only `adjugate` goes on, by
Cayley-Hamilton over `charpoly`.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import getitem, index, mul, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ConsistencyError, SingularMatrix


class IntMatrix:
    """Immutable square matrix over Z, stored as a tuple of row tuples.

    Entries go through operator.index, which takes int, bool and NumPy
    integers and raises TypeError on a float, a string or anything else
    that is not an integer, instead of truncating it. Setting or deleting
    an attribute raises AttributeError, so the hash of a matrix used as a
    key never changes.
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
        return IntMatrix._of(_product(self.rows, list(zip(*other.rows))))

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

    def __setattr__(self, name, value):
        raise AttributeError(f"IntMatrix is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntMatrix is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle would otherwise restore the slot through setattr
        return IntMatrix._of, (self.rows,)

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


def _product(rows, cols) -> tuple[tuple[int, ...], ...]:
    """Rows of the product of the matrix with these rows and the matrix
    with these columns."""
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in rows])


def charpoly(m: IntMatrix) -> list[int]:
    """Monic characteristic polynomial det(xI - m), highest degree first.

    Newton's identities give its coefficients c_k from the power sums
    p_k = tr(m^k), k <= d: k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1),
    a division that is exact over Z. Baby powers m^1..m^s, kept transposed,
    and giant powers m^(qs), kept as rows, give every p_k with few matrix
    products (Paterson-Stockmeyer, SIAM J. Comput. 2, 1973): tr(m^i m^(qs))
    is the flat inner product of (m^i)^T and m^(qs). With s = isqrt(d) that
    is s - 1 + max(0, ceil(d/s) - 2) products, at most 2 ceil(sqrt(d)):
    none at d = 2, where p_2 = <m^T, m>, and one at d = 3.
    """
    a = m.rows
    d = len(a)
    s = math.isqrt(d)
    baby = [tuple(zip(*a))]  # baby[i - 1] = (m^i)^T
    for _ in range(s - 1):
        baby.append(_product(baby[-1], a))
    p = [sum(map(getitem, b, range(d))) for b in baby]  # p[k - 1] = p_k
    if d > s:
        top = baby[-1]  # its rows are the columns of m^s
        giant, low = (a if s == 1 else tuple(zip(*top))), s  # m^low, low = qs
        for k in range(s + 1, d + 1):
            if k - low > s:
                giant = _product(giant, top)
                low += s
            p.append(sum(map(mul, chain(*baby[k - low - 1]), chain(*giant))))
    c = [1]
    for k in range(1, d + 1):
        t = p[k - 1]
        for i in range(1, k):
            t += c[i] * p[k - i - 1]
        if t % k:
            raise ConsistencyError("Newton's identities: power sum not divisible")
        c.append(-(t // k))
    return c


def evaluate(p: Sequence[int], m: IntMatrix) -> IntMatrix:
    """p(m) by Horner's rule, p highest degree first.

    The first step is p_0 m + p_1 I, which takes no product, so p of
    degree k >= 1 costs k - 1 matrix products.
    """
    a = m.rows
    if len(p) == 1:
        return IntMatrix.scalar(len(a), p[0])
    cols = tuple(zip(*a))
    acc = [[p[0] * x for x in row] for row in a]
    for k, coeff in enumerate(p[1:]):
        if k:
            acc = [[sum(map(mul, row, col)) for col in cols] for row in acc]
        for i, row in enumerate(acc):
            row[i] += coeff
    return IntMatrix._of(tuple(map(tuple, acc)))


def det_adjugate(m: IntMatrix) -> tuple[int, Optional[IntMatrix]]:
    """(det(m), adj(m)) by fraction-free Gauss-Jordan elimination on [m | I]
    (Bareiss, Math. Comp. 22, 1968), in O(d^3) operations; (0, None) for a
    singular m.

    Step k clears column k in every row but the pivot row k by
    row <- (p row - row[k] pivot_row) / prev, with p the pivot and prev the
    one before it; the division is exact over Z. The last pivot is det(P m)
    for the permutation P of the row swaps, and the right half ends as
    det(P m) (P m)^-1 P, which is adj(m) times the sign of P. The pivot
    search runs out exactly when m is singular, and the pass stops there:
    every caller but `adjugate` rejects a singular matrix.
    """
    d = len(m.rows)
    # each row of [I | m] with the m part reversed, so that column k of m is
    # the last entry at step k, and a row drops it by zipping with the
    # popped pivot row; the I part ends as the adjugate, in order
    w = []
    for i, row in enumerate(m.rows):
        r = [0] * d
        r[i] = 1
        r += reversed(row)
        w.append(r)
    sign, prev = 1, 1
    for k in range(d):
        if not w[k][-1]:
            for i in range(k + 1, d):
                if w[i][-1]:
                    w[k], w[i] = w[i], w[k]
                    sign = -sign
                    break
            else:
                return 0, None
        top = w[k]
        p = top.pop()
        for i, row in enumerate(w):
            if i != k:
                f = row.pop()
                if f:
                    w[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
                elif p != prev:
                    w[i] = [p * x // prev for x in row]
        prev = p
    if sign > 0:
        return prev, IntMatrix._of(tuple(map(tuple, w)))
    return -prev, IntMatrix._of(tuple([tuple(map(neg, row)) for row in w]))


def adjugate(m: IntMatrix) -> IntMatrix:
    """The adj with m @ adj == det(m) * I, singular m included.

    A nonsingular m takes `det_adjugate`'s pass. A singular one gets its
    adjugate by Cayley-Hamilton: adj(m) = (-1)^(d-1) q(m) with
    q(x) = (chi(x) - chi(0)) / x for chi = charpoly(m).
    """
    adj = det_adjugate(m)[1]
    if adj is None:
        adj = evaluate([(-1) ** (len(m.rows) - 1) * c for c in charpoly(m)[:-1]], m)
    return adj


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
    return reduce_above_pivots(h)


def reduce_above_pivots(h: list[list[int]]) -> IntMatrix:
    """The row HNF of the lattice spanned by an upper-triangular basis with
    positive pivots, given as a list of row lists that is reduced in place.

    Column by column, each entry above a pivot goes into [0, pivot) by
    subtracting a multiple of the pivot's row; that keeps the row lattice,
    and later columns never touch an earlier one.
    """
    for c in range(len(h)):
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
