"""Subgroup chains on the torus and the exact density decision.

For endomorphisms given by integer matrices F and G, the forward chain
starts at Z^d and repeatedly takes the G-preimage of the F-image; the
backward chain swaps the roles. The group the two chains generate is dense
in the torus exactly when the annihilators of the level joins shrink to
nothing. `compute_chain` builds the levels; `decide_density` settles the
limit by algebra, with no depth or search budget.

One level is a single lattice canonicalisation: G^{-1}(F L + Z^d) equals
G^{-1} F L + G^{-1} Z^d, so with L = span(B)/D it is spanned, over the
denominator D |det G|, by the rows of B F^T adj(G)^T and of D adj(G)^T.
The Z^d that the canonical form adds lies in G^{-1} Z^d already. Since
adj(G)^T Z^d contains |det G| Z^d, its row HNF H is taken modulo |det G|
once per orientation, and each level folds only the d rows of
B F^T adj(G)^T into the known triangular basis D H. The other matrices
that depend only on the pair are computed once per pair.

The density decision:

* a character m annihilates every forward level exactly when y = G^{-T} m
  is integral and D^k y stays integral for every k, where D = (F G^{-1})^T;
* those y span the generalised eigenspaces of D for the irreducible factors
  of its characteristic polynomial that are monic over Z (Gauss's lemma,
  and Z[D] is a finitely generated Z-module on that subspace), so the
  forward obstruction space is G^T times that sum;
* the backward chain is the same with F and G swapped, and the subgroup is
  dense exactly when the two obstruction spaces meet only in 0; otherwise
  a scaled vector of the intersection is a witness character lying in
  every annihilator.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional

from . import poly
from .errors import ConsistencyError, DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, adjugate, charpoly, det, hnf_rows
from .lattice import (
    IntegerSublattice,
    RationalLattice,
    dual_annihilator,
    dual_lattice,
    from_rational_rows,
    index,
    join,
    pushforward,
    standard,
    sublattice_transform,
)

DEFAULT_MAX_DEPTH = 24

DENSE = "Dense"
NOT_DENSE = "NotDense"


class ChainTrace(NamedTuple):
    """Levels 0..depth of both chains, their joins, and the dual data."""

    depth: int
    pos: list[RationalLattice]
    neg: list[RationalLattice]
    joins: list[RationalLattice]
    annihilators: list[IntegerSublattice]
    indices: list[int]


class DensityVerdict(NamedTuple):
    status: str
    witness: Optional[tuple[int, ...]]
    reason: str


class _Side(NamedTuple):
    """One chain's data for a pair (F, G): D = a / c and G^{-T} = adj_t / c,
    and the row map `step` = F^T adj(G)^T of a level."""

    a: IntMatrix
    adj_t: IntMatrix
    c: int
    step: IntMatrix


@functools.lru_cache(maxsize=8)
def _sides(f: IntMatrix, g: IntMatrix) -> tuple[_Side, _Side]:
    """Check the pair and return the forward and the backward side.

    Each matrix's det and adjugate is computed once; the cache keeps a few
    pairs, so a chain's calls in both orientations hit it.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    df, dg = det(f), det(g)
    if df == 0 or dg == 0:
        raise SingularMatrix("chain iteration needs nonsingular F and G")
    f_t, g_t = f.transpose(), g.transpose()
    adj_f_t, adj_g_t = adjugate(f).transpose(), adjugate(g).transpose()
    return (
        _Side(adj_g_t @ f_t, adj_g_t, dg, f_t @ adj_g_t),
        _Side(adj_f_t @ g_t, adj_f_t, df, g_t @ adj_f_t),
    )


@functools.lru_cache(maxsize=8)
def _kernel_basis(f: IntMatrix, g: IntMatrix) -> IntMatrix:
    """Row HNF of adj(G)^T, whose rows span |det G| G^{-1} Z^d, for the
    step_pos(f, g, .) orientation.

    Kept apart from _sides: only chain levels need it, and a decide that
    reaches R5 builds none.
    """
    side = _sides(f, g)[0]
    return hnf_rows(side.adj_t.rows, f.dim, abs(side.c))


def step_pos(f: IntMatrix, g: IntMatrix, l: RationalLattice) -> RationalLattice:
    """One forward level: G-preimage of the F-image, in one canonicalisation.

    step_pos(g, f, l) is the backward level, the F-preimage of the G-image.
    """
    if l.dim != f.dim:
        raise DimensionMismatch("lattice and matrices differ in dimension")
    side = _sides(f, g)[0]
    rows = (l.basis @ side.step).rows
    start = [[l.denom * x for x in row] for row in _kernel_basis(f, g).rows]
    return from_rational_rows(l.dim, l.denom * abs(side.c), rows, start)


def annihilator_step_pos(f: IntMatrix, g: IntMatrix, m: IntegerSublattice) -> IntegerSublattice:
    """Dual of step_pos: G^T (F^{-T} M intersected with Z^d).

    Derived from <m, G^{-1} y> = <G^{-T} m, y>; must agree with
    dual_annihilator(step_pos(f, g, dual of M)), which the tests enforce.
    """
    _sides(f, g)  # raises on a mismatched or singular pair
    inter = dual_annihilator(pushforward(f, dual_lattice(m)))
    return sublattice_transform(inter, g.transpose())


def compute_chain(f: IntMatrix, g: IntMatrix, depth: int) -> ChainTrace:
    """Fill every level 0..depth; no early exit."""
    _sides(f, g)  # raises on a mismatched or singular pair
    if depth < 1:
        raise ValueError("depth must be at least 1")
    z = standard(f.dim)
    pos, neg, joins = [z], [z], [z]
    annihilators, indices = [dual_annihilator(z)], [1]
    for _ in range(depth):
        pos.append(step_pos(f, g, pos[-1]))
        neg.append(step_pos(g, f, neg[-1]))
        lam = join(pos[-1], neg[-1])
        joins.append(lam)
        annihilators.append(dual_annihilator(lam))
        indices.append(index(lam))
    return ChainTrace(depth, pos, neg, joins, annihilators, indices)


def _evaluate(p: list[int], a: IntMatrix) -> IntMatrix:
    """p(a) by Horner's rule."""
    acc = IntMatrix.scalar(a.dim, p[0])
    for coeff in p[1:]:
        rows = [list(row) for row in (acc @ a).rows]
        for i, row in enumerate(rows):
            row[i] += coeff
        acc = IntMatrix._of(tuple(map(tuple, rows)))
    return acc


def _obstruction_equations(side: _Side) -> Optional[IntMatrix]:
    """N whose kernel is the chain's obstruction space, or None if it is 0.

    A factor x^k + a_1 x^(k-1) + ... + a_k of the characteristic polynomial
    of a = c D is c^k times a factor of that of D, which is monic over Z
    exactly when c^i divides every a_i. With M the product of those factors
    of a, raised to their multiplicities and evaluated at a, the space is
    G^T ker M = ker M adj(G)^T.
    """
    m = None
    for p, mult in poly.factor(charpoly(side.a))[1]:
        if all(x % side.c**i == 0 for i, x in enumerate(p)):
            pa = _evaluate(p, side.a)
            for _ in range(mult):
                m = pa if m is None else m @ pa
    return None if m is None else m @ side.adj_t


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """Rows of the reduced row echelon form, each scaled to a primitive
    integer vector with a positive pivot."""
    m = [list(r) for r in rows]
    r = 0
    for col in range(len(m[0])):
        k = next((i for i in range(r, len(m)) if m[i][col]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        piv = m[r]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = poly.primitive(
                    [piv[col] * x - m[i][col] * y for x, y in zip(m[i], piv)]
                )
        r += 1
    return [poly.primitive(row) for row in m[:r]]


def _kernel(rows: list[list[int]]) -> list[list[int]]:
    """Integer basis of the rational kernel {x : rows x = 0}."""
    ech = _echelon(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    scale = math.lcm(*(row[p] for row, p in zip(ech, pivots)))
    basis = []
    for free in range(len(rows[0])):
        if free in pivots:
            continue
        x = [0] * len(rows[0])
        x[free] = scale
        for row, p in zip(ech, pivots):
            x[p] = -row[free] * (scale // row[p])
        basis.append(x)
    return basis


def _orbit_denominator(side: _Side, v, steps: int) -> int:
    """lcm of the denominators of D^j G^{-T} v for 0 <= j < steps."""
    num, den, e = side.adj_t.apply(v), side.c, 1
    for _ in range(steps):
        g = math.gcd(den, *num)
        num, den = [x // g for x in num], den // g
        e = math.lcm(e, den)
        num, den = side.a.apply(num), den * side.c
    return e


def decide_density(f: IntMatrix, g: IntMatrix) -> DensityVerdict:
    """Decide whether the subgroup the two chains generate is dense.

    Dense when the forward and backward obstruction spaces meet only in 0.
    Otherwise v, the first row of the reduced echelon form of their
    intersection made primitive, is scaled by the lcm e of the denominators
    of D^j G^{-T} v and D'^j F^{-T} v for j < d, with D' = (G F^{-1})^T.
    On the obstruction space D satisfies a monic integer polynomial of
    degree at most d (Cayley-Hamilton), so e v stays integral at every
    step and lies in every annihilator; it is re-checked at step d.
    """
    sides = _sides(f, g)
    d = f.dim
    equations = []
    for side in sides:
        n = _obstruction_equations(side)
        if n is None:
            return DensityVerdict(
                DENSE, None, "no factor of a chain's characteristic "
                "polynomial is monic over Z, so no character survives it",
            )
        equations.extend(n.rows)
    common = _kernel(equations)
    if not common:
        return DensityVerdict(
            DENSE, None, "the obstruction spaces of the two chains meet only "
            "in 0",
        )
    v = _echelon(common)[0]
    e = math.lcm(*(_orbit_denominator(side, v, d) for side in sides))
    witness = tuple(e * x for x in v)
    if any(_orbit_denominator(side, witness, d + 1) != 1 for side in sides):
        raise ConsistencyError("witness character leaves the integers")
    return DensityVerdict(
        NOT_DENSE, witness, "the obstruction spaces of the two chains share "
        "a line of characters that survive every level",
    )
