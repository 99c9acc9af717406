"""Rational lattices between Z^d and Q^d, and their integer annihilators.

A RationalLattice models a finite subgroup of the d-torus as its full
preimage L under R^d -> T^d, so Z^d is a sublattice of L by construction.
The canonical form is the pair (minimal denominator D, row Hermite form of
D*L); two equal subgroups always produce identical representations, which
is what stabilization detection in the chain iteration keys on.

Throughout, lattice bases are stored as row stacks and matrices act on
column vectors, so applying an endomorphism T to a lattice multiplies the
basis on the right by T transpose.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import ConsistencyError, DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, det, det_adjugate, hnf_rows


class RationalLattice(NamedTuple):
    """Full-rank lattice L with Z^d <= L <= Q^d in canonical form.

    `basis` is the row HNF of denom * L, an integer lattice squeezed
    between denom * Z^d and Z^d.
    """

    dim: int
    denom: int
    basis: IntMatrix


class IntegerSublattice(NamedTuple):
    """Full-rank sublattice M <= Z^d with a row HNF basis."""

    dim: int
    basis: IntMatrix


def standard(dim: int) -> RationalLattice:
    """Z^d, the bottom of every chain."""
    return RationalLattice(dim, 1, IntMatrix.identity(dim))


def from_rational_rows(
    dim: int,
    denom: int,
    int_rows: Sequence[Sequence[int]],
    start: Optional[Sequence[Sequence[int]]] = None,
) -> RationalLattice:
    """Canonical form of the lattice generated by int_rows / denom together
    with Z^d.

    `start`, when given, is an upper-triangular integer basis with positive
    pivots whose span contains denom * Z^d; the lattice is then generated
    by int_rows / denom and start / denom, and the rows of `start` cost no
    elimination step (see hnf_rows).
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    h = hnf_rows(int_rows, dim, denom, start)
    g = math.gcd(*itertools.chain.from_iterable(h.rows))
    if g > 1:
        # dividing an HNF matrix by a common factor keeps it in HNF
        h = IntMatrix._of(tuple(tuple(x // g for x in row) for row in h.rows))
        denom //= g
    return RationalLattice(dim, denom, h)


def join(l1: RationalLattice, l2: RationalLattice) -> RationalLattice:
    """Smallest lattice containing both operands."""
    if l1.dim != l2.dim:
        raise DimensionMismatch("join of lattices of different dimensions")
    d = math.lcm(l1.denom, l2.denom)
    s1 = d // l1.denom
    s2 = d // l2.denom
    # s1 * B1 spans s1 * denom1 * L1, which contains d * Z^d: fold B2 into it
    start = [[x * s1 for x in row] for row in l1.basis.rows]
    rows = [[x * s2 for x in row] for row in l2.basis.rows]
    return from_rational_rows(l1.dim, d, rows, start)


def pushforward(f: IntMatrix, l: RationalLattice) -> RationalLattice:
    """F*L + Z^d, the image of L under the F-endomorphism plus the base lattice."""
    if det(f) == 0:
        raise SingularMatrix("pushforward needs det != 0")
    if f.dim != l.dim:
        raise DimensionMismatch("pushforward dimension mismatch")
    rows = (l.basis @ f.transpose()).rows
    return from_rational_rows(l.dim, l.denom, rows)


def preimage(g: IntMatrix, l: RationalLattice) -> RationalLattice:
    """G^{-1} L, the full preimage of L under the G-endomorphism."""
    dg, adj = det_adjugate(g)
    if dg == 0:
        raise SingularMatrix("preimage needs det != 0")
    if g.dim != l.dim:
        raise DimensionMismatch("preimage dimension mismatch")
    rows = (l.basis @ adj.transpose()).rows
    return from_rational_rows(l.dim, l.denom * abs(dg), rows)


def _diagonal_product(basis: IntMatrix) -> int:
    # the determinant of an upper-triangular HNF basis
    return math.prod(basis.rows[i][i] for i in range(basis.dim))


def index(l: RationalLattice) -> int:
    """[L : Z^d], the order of the modeled torus subgroup."""
    d = _diagonal_product(l.basis)
    num = l.denom**l.dim
    if num % d:
        raise ConsistencyError("lattice index is not an integer")
    return num // d


def _member(basis: IntMatrix, scale: int, x: Sequence) -> bool:
    """Whether scale * x, for a rational vector x, lies in the row span of
    an upper-triangular HNF basis, by exact back-substitution; a
    non-integral scale * x never does."""
    if len(x) != basis.dim:
        raise DimensionMismatch("vector length does not match lattice dimension")
    v = []
    for xi in x:
        s = Fraction(xi) * scale
        if s.denominator != 1:
            return False
        v.append(s.numerator)
    d = basis.dim
    for i in range(d):
        piv = basis.rows[i][i]
        if v[i] % piv:
            return False
        q = v[i] // piv
        if q:
            for j in range(i, d):
                v[j] -= q * basis.rows[i][j]
    return True


def contains(l: RationalLattice, x: Sequence) -> bool:
    """Membership of a rational vector, exact."""
    return _member(l.basis, l.denom, x)


def _scaled_inverse_columns(b: IntMatrix, s: int) -> list[list[int]]:
    """Columns of s * B^{-1}, i.e. the rows of s * B^{-T}, for an
    upper-triangular B with nonzero diagonal, by back-substitution.

    Raises ConsistencyError when s * B^{-1} is not integral.
    """
    d = b.dim
    rows = b.rows
    cols = []
    for j in range(d):
        x = [0] * d
        for i in range(j, -1, -1):
            num = (s if i == j else 0) - sum(rows[i][k] * x[k] for k in range(i + 1, j + 1))
            if num % rows[i][i]:
                raise ConsistencyError("inverse basis is not integral")
            x[i] = num // rows[i][i]
        cols.append(x)
    return cols


def dual_annihilator(l: RationalLattice) -> IntegerSublattice:
    """Characters m in Z^d with <m, L> <= Z.

    With B the basis of D*L, the annihilator is the column lattice of
    D*B^{-1}, which is integral precisely because D*Z^d <= D*L.
    """
    rows = _scaled_inverse_columns(l.basis, l.denom)
    # D*Z^d lies in the annihilator because L lies in Z^d / D
    return IntegerSublattice(l.dim, hnf_rows(rows, l.dim, l.denom))


def dual_lattice(m: IntegerSublattice) -> RationalLattice:
    """The rational lattice of vectors pairing integrally with M.

    That is the column lattice of M^{-1}, with M the upper-triangular
    basis; n*M^{-1} is integral for n = [Z^d : M] = det M. Inverse of
    dual_annihilator: dual_lattice(dual_annihilator(l)) == l.
    """
    n = sublattice_index(m)
    return from_rational_rows(m.dim, n, _scaled_inverse_columns(m.basis, n))


def sublattice_from_rows(dim: int, rows: Sequence[Sequence[int]]) -> IntegerSublattice:
    """The sublattice spanned by a square basis; raises SingularMatrix if it
    is not full rank."""
    n = abs(det(IntMatrix(rows)))
    if n == 0:
        raise SingularMatrix("sublattice basis is not full rank")
    return IntegerSublattice(dim, hnf_rows(rows, dim, n))


def sublattice_index(m: IntegerSublattice) -> int:
    """[Z^d : M]."""
    return _diagonal_product(m.basis)


def sublattice_contains(m: IntegerSublattice, v: Sequence) -> bool:
    """Membership of a rational vector, exact: one with a non-integral
    entry never lies in M."""
    return _member(m.basis, 1, v)


def sublattice_transform(m: IntegerSublattice, t: IntMatrix) -> IntegerSublattice:
    """Image {T x : x in M}; requires det(T) != 0 to stay full rank."""
    dt = det(t)
    if dt == 0:
        raise SingularMatrix("transform needs det != 0")
    rows = (m.basis @ t.transpose()).rows
    # [Z^d : T M] = |det T| * [Z^d : M]
    return IntegerSublattice(m.dim, hnf_rows(rows, m.dim, sublattice_index(m) * abs(dt)))

