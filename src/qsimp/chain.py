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
That 2d-row fold is `step_pos`, which maps any lattice. `compute_chain`
uses it for level 1 only, K = G^{-1} Z^d. With M = G^{-1} F the levels
are L_1 = K and L_{k+1} = K + M L_k, and M^k Z^d lies in M^{k-1} K,
inside L_k; so L_{k+1} = L_k + sum_i Z M^k w_i for any w_i that generate
K / Z^d. The rows of K's canonical basis whose pivot is below its
denominator give r such generators (r = 1 when |det G| is prime): a row
with pivot D is D e_i plus a combination of later rows, so any level L
is Z^d + sum Z row / D over the other rows. `_levels` carries the
generators' images as integer numerators over the next fold denominator
D |det G|, so each later level folds only r rows into the known
triangular basis |det G| B. The pair's matrices are plain values that
each public entry point computes and passes down; nothing is cached.

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

import math
from operator import mul
from typing import NamedTuple, Optional

from . import poly
from .errors import ConsistencyError, DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, charpoly, det_adjugate
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


def _sides(f: IntMatrix, g: IntMatrix) -> tuple[_Side, _Side]:
    """Check the pair and return the forward and the backward side.

    Each matrix's det and adjugate come from one Faddeev-LeVerrier pass.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    (df, adj_f), (dg, adj_g) = det_adjugate(f), det_adjugate(g)
    if df == 0 or dg == 0:
        raise SingularMatrix("chain iteration needs nonsingular F and G")
    f_t, g_t = f.transpose(), g.transpose()
    adj_f_t, adj_g_t = adj_f.transpose(), adj_g.transpose()
    return (
        _Side(adj_g_t @ f_t, adj_g_t, dg, f_t @ adj_g_t),
        _Side(adj_f_t @ g_t, adj_f_t, df, g_t @ adj_f_t),
    )


def step_pos(f: IntMatrix, g: IntMatrix, l: RationalLattice) -> RationalLattice:
    """One forward level: G-preimage of the F-image, in one canonicalisation.

    step_pos(g, f, l) is the backward level, the F-preimage of the G-image.
    It folds the rows of B F^T adj(G)^T and D adj(G)^T, with l = span(B)/D.
    """
    if l.dim != f.dim:
        raise DimensionMismatch("lattice and matrices differ in dimension")
    side = _sides(f, g)[0]
    rows = [*(l.basis @ side.step).rows,
            *([l.denom * x for x in row] for row in side.adj_t.rows)]
    return from_rational_rows(l.dim, l.denom * abs(side.c), rows)


def _levels(side: _Side, level: RationalLattice, depth: int) -> list[RationalLattice]:
    """Levels 1..depth of a chain from its level 1 and its side.

    Each later level folds only the images of the generators of level 1
    over Z^d, by the recurrence of the module docstring. The images u over
    den are kept modulo den: that moves an image by a vector of Z^d, and
    each later image by one of M^j Z^d, inside the level it is folded
    into. An image u / den lies in the level, whose denominator D divides
    den (the canonical form only cancels a common factor), so its M-image
    u step / (den det G) is, up to a sign that leaves the span alone, the
    integer numerator (u step) / (den / D) over D |det G|; the division is
    checked.
    """
    levels = [level]
    n, cols = abs(side.c), list(zip(*side.step.rows))
    den = level.denom
    rows = [row for i, row in enumerate(level.basis.rows) if row[i] != den]
    while len(levels) < depth:
        div, den = den // level.denom, level.denom * n
        images = []
        for row in rows:
            image = [sum(map(mul, row, col)) for col in cols]
            if any(x % div for x in image):
                raise ConsistencyError("chain generator image is not integral "
                                       "over the fold denominator")
            images.append([x // div % den for x in image])
        rows = images
        start = [[n * x for x in row] for row in level.basis.rows]
        level = from_rational_rows(level.dim, den, rows, start)
        levels.append(level)
    return levels


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
    sides = _sides(f, g)  # raises on a mismatched or singular pair
    if depth < 1:
        raise ValueError("depth must be at least 1")
    z = standard(f.dim)
    pos = [z, *_levels(sides[0], step_pos(f, g, z), depth)]
    neg = [z, *_levels(sides[1], step_pos(g, f, z), depth)]
    joins, annihilators, indices = [z], [dual_annihilator(z)], [1]
    for fwd, bwd in zip(pos[1:], neg[1:]):
        lam = join(fwd, bwd)
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
