"""Exact integer matrix algebra: determinants, characteristic polynomials,
adjugates, normal forms.

Everything here runs on Python's arbitrary-precision integers and never
touches floating point. The chain iteration downstream can square
denominators per level, so fixed-width arithmetic would overflow within a
couple dozen levels even in dimension one.

Two exact kernels serve everything but the normal forms: `det_adjugate`,
a fraction-free Gauss-Jordan pass in O(d^3) operations, and `charpoly`,
Berkowitz's division-free recurrence over the leading principal blocks,
in matrix-vector products alone. `det` is fraction-free Bareiss
elimination alone. The Gauss-Jordan pass stops at a singular matrix, and
every caller rejects one.
"""

from __future__ import annotations

import math
from operator import index, mul, neg
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import SingularMatrix


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

    Berkowitz's recurrence (Inf. Process. Lett. 18, 1984) over the leading
    principal blocks A_r = m[:r][:r], with no division: write A_(r+1) with
    the row R = m[r][:r], the column C = (m[i][r])_(i<r) and the corner
    a = m[r][r]. Then chi_(r+1) is the product of chi_r with the Toeplitz
    matrix whose first column is
    t = (1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C), so step r takes r - 1
    matrix-vector products and no matrix product.
    """
    a = m.rows
    c = [1, -a[0][0]]
    for r in range(1, len(a)):
        # rows and vectors zip to their first r entries: the block A_r and R
        top, row = a[:r], a[r]
        v = [x[r] for x in top]
        t = [1, -row[r], -sum(map(mul, row, v))]
        for _ in range(r - 1):
            v = [sum(map(mul, x, v)) for x in top]
            t.append(-sum(map(mul, row, v)))
        # c_i <- sum_j t_(i-j) c_j
        c = [sum(map(mul, t[i::-1], c)) for i in range(r + 2)]
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
    every caller rejects a singular matrix.
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
    """adj(m) from `det_adjugate`; raises SingularMatrix for a singular m.

    Nothing in the package calls it. It stays only because `bench/spans.py`
    names it in `WRAPPED`, and goes with that file (ROADMAP item 3).
    """
    adj = det_adjugate(m)[1]
    if adj is None:
        raise SingularMatrix("adjugate needs det != 0")
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


def hnf_rows(rows: Sequence[Sequence[int]], dim: int, modulus: int) -> IntMatrix:
    """Row Hermite normal form of the lattice span(rows) + modulus * Z^dim.

    The result is upper triangular with positive pivots and entries above
    each pivot reduced into [0, pivot). That form is unique per row
    lattice, so it is the canonical representative used everywhere in the
    package. A caller that wants the HNF of span(rows) itself passes a
    positive multiple of its index [Z^dim : span(rows)].

    This is the checked entry point: it rejects a non-positive modulus or
    dim and rows of the wrong length, and reduces a copy of `rows` modulo
    `modulus`. The elimination itself is `_hnf_fold`, which the package's
    own folds call directly, from a starting basis, when they build its
    inputs from canonical bases.
    """
    if modulus <= 0 or dim <= 0:
        raise ValueError("modulus and dim must be positive")
    if any(len(row) != dim for row in rows):
        raise ValueError("rows must have length dim")
    return _hnf_fold([[x % modulus for x in row] for row in rows], dim, modulus)


def _hnf_fold(
    live: Sequence[Sequence[int]],
    dim: int,
    modulus: int,
    start: Optional[Sequence[Sequence[int]]] = None,
) -> IntMatrix:
    """Row HNF of the lattice span(start) + span(live), with no input
    checks: every row of `live` has dim entries in [0, modulus), and
    `start` is an upper-triangular basis with positive pivots whose span
    contains modulus * Z^dim, or None for modulus * I, which makes the
    result hnf_rows(live, dim, modulus). Since the HNF is unique, it equals
    hnf_rows(start + live, dim, modulus). No row of `live` or `start` is
    changed.

    The elimination runs modulo `modulus` (Domich-Kannan-Trotter 1987;
    Cohen, GTM 138, Alg. 2.4.8), which keeps the working entries of the
    live rows in [0, modulus). Column by column, each live row is folded
    into the pivot row, which starts as row c of `start`, and leaves the
    row zero in column c: by one subtraction when one of the two leading
    entries divides the other, else by one extended-gcd step. Entries right
    of column c are then reduced modulo `modulus`, which only adds vectors
    of modulus * Z^dim. A known starting basis thus costs one fold per live
    row and none for the rows it stands for. Rows stay full width; left of
    column c every live row and pivot is zero.

    `reduce_above_pivots` changes the pivot rows in place, so each pivot
    taken from `start`, or promoted from a live row, is a copy.
    """
    h = []
    for c in range(dim):
        if start is None:
            piv = [0] * dim
            piv[c] = modulus
        else:
            piv = list(start[c])
        rest = []
        for row in live:
            a = row[c]
            if a:
                p = piv[c]
                if not a % p:
                    q = a // p
                    row = [(y - q * x) % modulus for x, y in zip(piv, row)]
                elif not p % a:
                    q = p // a
                    piv, row = list(row), [(x - q * y) % modulus for x, y in zip(piv, row)]
                else:
                    g, s, t = _xgcd(p, a)
                    u, v = p // g, a // g
                    piv, row = (
                        [(s * x + t * y) % modulus for x, y in zip(piv, row)],
                        [(v * x - u * y) % modulus for x, y in zip(piv, row)],
                    )
                    piv[c] = g
            if any(row):
                rest.append(row)
        h.append(piv)
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
