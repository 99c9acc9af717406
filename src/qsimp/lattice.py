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
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import ConsistencyError, DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, _hnf_fold, det, det_adjugate, hnf_rows, reduce_above_pivots


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
    dim: int, denom: int, int_rows: Sequence[Sequence[int]]
) -> RationalLattice:
    """Canonical form of the lattice generated by int_rows / denom together
    with Z^d.

    The inputs go through hnf_rows' checks; the package's own folds, whose
    inputs come from canonical bases, pass `intmat._hnf_fold`'s result to
    `_canonical` instead.
    """
    if denom <= 0:
        raise ValueError("denominator must be positive")
    return _canonical(dim, denom, hnf_rows(int_rows, dim, denom))


def _canonical(dim: int, denom: int, h: IntMatrix) -> RationalLattice:
    """The canonical form of span(h) / denom, for the row HNF h of an
    integer lattice that contains denom * Z^d: the gcd of h's entries
    divides denom, and both are divided by it."""
    g = math.gcd(*itertools.chain.from_iterable(h.rows))
    if g > 1:
        # dividing an HNF matrix by a common factor keeps it in HNF
        h = IntMatrix._of(tuple(tuple(x // g for x in row) for row in h.rows))
        denom //= g
    return RationalLattice(dim, denom, h)


def join(l1: RationalLattice, l2: RationalLattice) -> RationalLattice:
    """Smallest lattice containing both operands.

    Write L_i = N_i / D_i in canonical form, with N_i = span(B_i). When
    gcd(D_1, D_2) = 1 the join J needs no elimination. With D = D_1 D_2,
    D_i Z^d <= N_i gives D*J = D_2 N_1 + D_1 N_2 = N_1 cap N_2: the sum
    lies in both N_i, and 1 = a D_1 + b D_2 splits any vector of the
    intersection into it. The denominator of J is D, because it is a
    multiple of D_1 and of D_2. Row j of the basis of N_1 cap N_2 gets
    the pivot p_1 p_2 of the two rows j, and right of it the entries x in
    [0, D) with x = p_2 row_j(B_1) mod D_1 and x = p_1 row_j(B_2) mod D_2
    (Chinese remainder theorem). That row lies in both N_i, and the
    diagonal product is [Z^d : N_1 cap N_2], so reducing above the pivots
    gives the canonical basis. When the denominators share a prime, the
    rows of one basis are folded into the scaled basis of the other,
    modulo the lcm of the denominators. This is `joins` of one pair.
    """
    return joins((l1,), (l2,))[0]


def joins(ls1: Sequence[RationalLattice],
          ls2: Sequence[RationalLattice]) -> list[RationalLattice]:
    """join of each pair of two lists of equal length, meant for ascending
    lists L_0 <= L_1 <= ... and L'_0 <= L'_1 <= ... such as two chains.

    A coprime pair's CRT join needs u = D_1^{-1} mod D_2, and u is carried
    from one pair to the next (`_carried_inverse`) rather than recomputed.
    A coprime pair that the carry does not reach, such as the first, gets
    a fresh inverse, and a pair whose denominators share a prime is
    folded. Any lists give the pairwise joins; ascending ones are fast.
    """
    out = []
    u = d1 = d2 = None
    for l1, l2 in zip(ls1, ls2, strict=True):
        if l1.dim != l2.dim:
            raise DimensionMismatch("join of lattices of different dimensions")
        n1, n2 = l1.denom, l2.denom
        u = _carried_inverse(u, d1, d2, n1, n2)
        if u is None and math.gcd(n1, n2) == 1:
            u = pow(n1, -1, n2)
        out.append(_fold_join(l1, l2) if u is None else _coprime_join(l1, l2, u))
        d1, d2 = n1, n2
    return out


def _carried_inverse(u: Optional[int], d1: Optional[int], d2: Optional[int],
                     n1: int, n2: int) -> Optional[int]:
    """n1^{-1} mod n2 from u = d1^{-1} mod d2, or None when it does not
    follow by the step below.

    v = u (2 - d1 u) has d1 v = 1 mod d2^2 (a Newton step), so when n2
    divides d2^2 and n1 = s d1 for an s prime to n2, v s^{-1} mod n2 is
    the inverse, and n1 is prime to n2. Along a chain s divides the
    determinant that builds it, so s^{-1} costs a few division steps where
    a fresh inverse costs about one per bit. The result is checked.
    """
    if u is None or n1 % d1 or d2 * d2 % n2:
        return None
    s = n1 // d1
    if math.gcd(s, n2) != 1:
        return None
    u = u * (2 - d1 * u) % n2 * pow(s, -1, n2) % n2
    if n1 * u % n2 != 1 % n2:  # every u is the inverse modulo n2 = 1
        raise ConsistencyError("a carried CRT inverse is not an inverse")
    return u


def _fold_join(l1: RationalLattice, l2: RationalLattice) -> RationalLattice:
    # join by one fold over the lcm of the denominators
    d = math.lcm(l1.denom, l2.denom)
    s1 = d // l1.denom
    s2 = d // l2.denom
    # s1 * B1 spans s1 * denom1 * L1, which contains d * Z^d: fold B2 into it
    start = [[x * s1 for x in row] for row in l1.basis.rows]
    rows = [[x * s2 % d for x in row] for row in l2.basis.rows]
    return _canonical(l1.dim, d, _hnf_fold(rows, l1.dim, d, start))


def _coprime_join(l1: RationalLattice, l2: RationalLattice, u: int) -> RationalLattice:
    # join's canonical form by CRT, for coprime denominators D_1 and D_2
    # and u = D_1^{-1} mod D_2
    d1, d2 = l1.denom, l2.denom
    rows = []
    for j, (r1, r2) in enumerate(zip(l1.basis.rows, l2.basis.rows)):
        p1, p2 = r1[j], r2[j]
        row = [0] * j + [p1 * p2]
        for x, y in zip(r1[j + 1:], r2[j + 1:]):
            # Garner's form of the entry in [0, D): a + D_1 t with
            # a = p_2 x mod D_1 and t = (p_1 y - a) / D_1 mod D_2
            a = p2 * x % d1
            row.append(a + d1 * ((p1 * y - a) * u % d2))
        rows.append(row)
    return RationalLattice(l1.dim, d1 * d2, reduce_above_pivots(rows))


def pushforward(f: IntMatrix, l: RationalLattice) -> RationalLattice:
    """F*L + Z^d, the image of L under the F-endomorphism plus the base lattice."""
    if det(f) == 0:
        raise SingularMatrix("pushforward needs det != 0")
    if f.dim != l.dim:
        raise DimensionMismatch("pushforward dimension mismatch")
    rows = (l.basis @ f.transpose()).rows
    return from_rational_rows(l.dim, l.denom, rows)


def preimage(g: IntMatrix, l: RationalLattice) -> RationalLattice:
    """G^{-1} L, the full preimage of L under the G-endomorphism, from the
    det and adjugate of one fraction-free Gauss-Jordan pass over G."""
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


def dual_annihilators(lattices: Sequence[RationalLattice]) -> list[IntegerSublattice]:
    """dual_annihilator of each lattice of an ascending list L_0 <= L_1 <= ...

    Only the last one is computed from scratch; the others are built
    deepest first, each from the next deeper one. L_k <= L_{k+1} gives
    A_{k+1} <= A_k, and D_k Z^d <= A_k, so the reduction
    C = A_{k+1} + D_k Z^d, the HNF of the basis of A_{k+1} reduced modulo
    D_k, lies in A_k. C is taken as A_k when [Z^d : C] = [L_k : Z^d] and every
    basis row of C pairs integrally with L_k (B_k m = 0 mod D_k): the
    second puts C inside A_k for any list, and the first makes them equal.
    C = A_k exactly when L_k = L_{k+1} cap Z^d / D_k, which always holds
    when L_{k+1} / Z^d is cyclic. Otherwise the columns of D_k B_k^{-1},
    by back-substitution, are folded into C modulo D_k. The fold always
    contains A_k and equals it exactly when [Z^d : fold] = [L_k : Z^d];
    that is checked, so a list that is not ascending raises
    ConsistencyError. The reduction and the fold take their rows reduced
    modulo D_k and their start from a canonical basis, so both call
    `intmat._hnf_fold` without hnf_rows' input checks; the index and
    pairing checks above are what vouch for each result.
    """
    if not lattices:
        return []
    if any(l.dim != lattices[0].dim for l in lattices):
        raise DimensionMismatch("annihilators of lattices of different dimensions")
    out = [dual_annihilator(lattices[-1])]
    for l in lattices[-2::-1]:
        n, den = index(l), l.denom
        rows = [[x % den for x in row] for row in out[-1].basis.rows]
        basis = _hnf_fold(rows, l.dim, den)
        if _diagonal_product(basis) != n or not _pairs_integrally(basis, l):
            rows = _scaled_inverse_columns(l.basis, den)
            basis = _hnf_fold([[x % den for x in row] for row in rows], l.dim, den,
                              basis.rows)
            if _diagonal_product(basis) != n:
                raise ConsistencyError("lattices are not ascending: an annihilator "
                                       "fold is larger than the annihilator")
        out.append(IntegerSublattice(l.dim, basis))
    out.reverse()
    return out


def _pairs_integrally(m: IntMatrix, l: RationalLattice) -> bool:
    # whether every row of m pairs integrally with L = span(B) / D
    return not any(sum(map(mul, b, row)) % l.denom
                   for row in m.rows for b in l.basis.rows)


def dual_lattice(m: IntegerSublattice) -> RationalLattice:
    """The rational lattice of vectors pairing integrally with M.

    That is the column lattice of M^{-1}, with M the upper-triangular
    basis; n*M^{-1} is integral for n = [Z^d : M] = det M. Inverse of
    dual_annihilator: dual_lattice(dual_annihilator(l)) == l.
    """
    n = sublattice_index(m)
    return from_rational_rows(m.dim, n, _scaled_inverse_columns(m.basis, n))


def sublattice_index(m: IntegerSublattice) -> int:
    """[Z^d : M]."""
    return _diagonal_product(m.basis)


def sublattice_transform(m: IntegerSublattice, t: IntMatrix) -> IntegerSublattice:
    """Image {T x : x in M}; requires det(T) != 0 to stay full rank."""
    dt = det(t)
    if dt == 0:
        raise SingularMatrix("transform needs det != 0")
    if t.dim != m.dim:
        raise DimensionMismatch("transform dimension mismatch")
    rows = (m.basis @ t.transpose()).rows
    # [Z^d : T M] = |det T| * [Z^d : M]
    return IntegerSublattice(m.dim, hnf_rows(rows, m.dim, sublattice_index(m) * abs(dt)))

