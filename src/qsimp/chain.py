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
each public entry point computes and passes down; nothing is cached. A
trace takes each matrix's adjugate from two `det_adjugate` passes, its own
and one in a level-1 `step_pos` call, and its det once more by Bareiss in
the other call. A singular matrix stops its pass, or its Bareiss det, at
the missing pivot, so a singular pair raises after one elimination of
each matrix at most, and no entry point builds an adjugate it does not
read.

The join J_k of the forward level N_1 / D_1 and the backward level
N_2 / D_2 (canonical forms) is built by `lattice.joins`. D_1 divides a
power of |det G| and D_2 a power of |det F|, so when gcd(det F, det G) = 1
the denominators are coprime. Then, with D = D_1 D_2, D*J_k = D_2 N_1 +
D_1 N_2 is the intersection of N_1 and N_2, whose basis follows from the
two level bases by the Chinese remainder theorem with no elimination, and
the denominator of J_k is D, because it is a multiple of both D_1 and
D_2. The CRT needs D_1^{-1} mod D_2, and from level 2 on it is carried
from the level before. With e the denominator of level 1, e G^{-1} is
integral, so each forward denominator divides the one before times e,
and e divides every later one; the backward chain is the same with F.
So D_1 grows by a factor s dividing |det G|, the next D_2 divides D_2
squared, and one Newton step and a small inverse s^{-1} give the next
inverse. A join whose denominators share a prime is one fold.

The annihilators A_k of the joins J_k of the forward and backward level k
are built deepest first, by `lattice.dual_annihilators`. The joins
ascend, so A_{k+1} lies in A_k, and so does D_k Z^d for the denominator
D_k of J_k; the reduction A_{k+1} + D_k Z^d, the HNF of the basis of
A_{k+1} modulo D_k, is A_k whenever its index is [J_k : Z^d] and its rows
pair integrally with J_k, which is checked. That holds exactly when J_k
= J_{k+1} cap Z^d / D_k, so always when J_{k+1} / Z^d is cyclic. A level
where it fails folds the d rows of D_k B_k^{-T}, by back-substitution,
into the reduction, and [Z^d : A_k] = [J_k : Z^d] checks that fold. Only
the deepest annihilator is computed from scratch. The index of each join
is that of its annihilator, the product of its pivots; below the deepest
level the two are checked equal.

The density decision:

* a character m annihilates every forward level exactly when y = G^{-T} m
  is integral and D^k y stays integral for every k, where D = (F G^{-1})^T;
* those y span the primary components ker q(D)^m of D for the irreducible
  factors q of its characteristic polynomial that are monic over Z
  (Gauss's lemma, and Z[D] is a finitely generated Z-module on that
  subspace), so the forward obstruction space is G^T times their sum;
* D's characteristic polynomial is P / det G for the pencil polynomial
  P(x) = det(xG - F), and a primitive factor q of P gives a monic one
  exactly when |q[0]| = 1;
* the backward chain's matrix is D' = (G F^{-1})^T = D^{-1}. Its pencil
  det(xF - G) is (-1)^d x^d P(1/x), so its factors are those of P with
  their coefficients reversed, with the same components ker q(D)^m, and
  the reversed q is monic when |q[-1]| = 1. As F^T = G^T D and D maps
  each component onto itself, the backward obstruction space is G^T times
  the sum of the components with |q[-1]| = 1;
* the components are independent, so the two spaces meet in G^T times the
  sum over the factors that are units at both ends. The subgroup is dense
  exactly when no irreducible factor of P has leading and constant
  coefficients +-1, that is, when no eigenvalue of F G^{-1} is an
  algebraic unit; otherwise a scaled vector of the meet is a witness
  character lying in every annihilator. `decide_density` factors P alone,
  tags each factor by its two ends, and builds an obstruction space, from
  the factors that are units at both ends, only for a witness. The
  witness's vector v is the first reduced echelon row of the meet, read
  off one elimination of the space's equations with their columns
  reversed;
* v is scaled from G's side alone. With y = G^{-T} v, U(D) y = 0 for the
  product U of the factors that are units at both ends, with their
  multiplicities and made monic, and U(0) = +-1. On the lattice Z[D] y,
  spanned by the D^j y for j < deg U, D^{-1} is then an integer
  polynomial in D, and each backward value D'^j F^{-T} v = D^{-(j+1)} y
  lies in that lattice. So the lcm e of the denominators of the D^j y,
  j < d, clears them too, and the backward chain needs no side and no
  walk of its own.

`lattice` and `poly` are lazy submodules (see the package docstring),
used here as module attributes: a trace runs `lattice` and never `poly`,
and a density decision runs `poly` and never `lattice`.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Optional

from . import lattice, poly
from .errors import ConsistencyError, DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, charpoly, det, det_adjugate, evaluate

DENSE = "Dense"
NOT_DENSE = "NotDense"
_MISMATCH = "F and G must have equal dimensions"
_SINGULAR = "chain iteration needs nonsingular F and G"


class ChainTrace(NamedTuple):
    """Levels 0..depth of both chains, their joins, and the dual data."""

    depth: int
    pos: list[lattice.RationalLattice]
    neg: list[lattice.RationalLattice]
    joins: list[lattice.RationalLattice]
    annihilators: list[lattice.IntegerSublattice]
    indices: list[int]


class DensityVerdict(NamedTuple):
    status: str
    witness: Optional[tuple[int, ...]]
    reason: str


class _Side(NamedTuple):
    """One chain's data for the density decision of a pair (F, G):
    D = a / c and G^{-T} = adj_t / c."""

    a: IntMatrix
    adj_t: IntMatrix
    c: int


def _side(f: IntMatrix, dg: int, adj_g: IntMatrix) -> _Side:
    """The forward side of (F, G) from F and the det and adjugate of G,
    the only side `decide_density` builds; _side(g, det F, adj F) is the
    backward one."""
    adj_g_t = adj_g.transpose()
    return _Side(adj_g_t @ f.transpose(), adj_g_t, dg)


def _step(f: IntMatrix, adj_g: IntMatrix) -> IntMatrix:
    """The row map F^T adj(G)^T of a forward level; _step(g, adj F) is the
    backward one."""
    return f.transpose() @ adj_g.transpose()


def step_pos(f: IntMatrix, g: IntMatrix, l: lattice.RationalLattice) -> lattice.RationalLattice:
    """One forward level: G-preimage of the F-image, in one canonicalisation.

    step_pos(g, f, l) is the backward level, the F-preimage of the G-image.
    It folds the rows of B F^T adj(G)^T and D adj(G)^T, with l = span(B)/D.
    G's det and adjugate come from one `det_adjugate` pass, which stops at
    a singular G; F needs only its Bareiss det, to be checked nonzero.
    """
    if l.dim != f.dim:
        raise DimensionMismatch("lattice and matrices differ in dimension")
    if f.dim != g.dim:
        raise DimensionMismatch(_MISMATCH)
    dg, adj_g = det_adjugate(g)
    if dg == 0 or det(f) == 0:
        raise SingularMatrix(_SINGULAR)
    rows = [*(l.basis @ _step(f, adj_g)).rows,
            *([l.denom * x for x in row] for row in adj_g.transpose().rows)]
    return lattice.from_rational_rows(l.dim, l.denom * abs(dg), rows)


def _levels(step: IntMatrix, c: int, level: lattice.RationalLattice,
            depth: int) -> list[lattice.RationalLattice]:
    """Levels 1..depth of a chain from its level 1, its row map `step` and
    c = det G.

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
    n, cols = abs(c), list(zip(*step.rows))
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
        level = lattice.from_rational_rows(level.dim, den, rows, start)
        levels.append(level)
    return levels


def annihilator_step_pos(f: IntMatrix, g: IntMatrix,
                         m: lattice.IntegerSublattice) -> lattice.IntegerSublattice:
    """Dual of step_pos: G^T (F^{-T} M intersected with Z^d).

    Derived from <m, G^{-1} y> = <G^{-T} m, y>; must agree with
    dual_annihilator(step_pos(f, g, dual of M)), which the tests enforce.
    The pair is checked by two Bareiss dets; no adjugate is built.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(_MISMATCH)
    if det(f) == 0 or det(g) == 0:
        raise SingularMatrix(_SINGULAR)
    inter = lattice.dual_annihilator(lattice.pushforward(f, lattice.dual_lattice(m)))
    return lattice.sublattice_transform(inter, g.transpose())


def compute_chain(f: IntMatrix, g: IntMatrix, depth: int) -> ChainTrace:
    """Fill every level 0..depth; no early exit.

    The forward level-1 `step_pos` call checks the pair. The later levels
    need both adjugates, so each matrix takes two `det_adjugate` passes and
    one Bareiss det in all.
    """
    z = lattice.standard(f.dim)
    first = step_pos(f, g, z)  # raises on a mismatched or singular pair
    if depth < 1:
        raise ValueError("depth must be at least 1")
    (df, adj_f), (dg, adj_g) = det_adjugate(f), det_adjugate(g)
    pos = [z, *_levels(_step(f, adj_g), dg, first, depth)]
    neg = [z, *_levels(_step(g, adj_f), df, step_pos(g, f, z), depth)]
    joins = lattice.joins(pos, neg)
    annihilators = lattice.dual_annihilators(joins)
    return ChainTrace(depth, pos, neg, joins, annihilators,
                      list(map(lattice.sublattice_index, annihilators)))


def _obstruction_equations(
    side: _Side, factors: list[tuple[list[int], int]]
) -> Optional[IntMatrix]:
    """N whose kernel is the chain's obstruction space, or None if it is 0.

    `factors` is the factor list [(q, multiplicity), ...] of the pencil
    polynomial c chi_D. By Gauss's lemma a primitive factor q of degree k
    divides chi_D as a polynomial monic over Z exactly when |q[0]| = 1, and
    then q[0] c^k q(x / c), with the coefficients q[0] q_i c^i, is the
    matching monic factor of the characteristic polynomial of a = c D.
    With M the product of those factors, raised to their multiplicities
    and evaluated at a, the space is G^T ker M = ker M adj(G)^T. The
    kernels ker q(D)^m of distinct factors are independent, so passing a
    part of the factor list gives G^T times the sum of its components;
    `decide_density` passes the factors that are units at both ends, whose
    components make up the meet of the two chains' spaces.
    """
    m = None
    for q, mult in factors:
        if abs(q[0]) == 1:
            pa = evaluate([q[0] * x * side.c**i for i, x in enumerate(q)], side.a)
            for _ in range(mult):
                m = pa if m is None else m @ pa
    return None if m is None else m @ side.adj_t


def _pencil(side: _Side) -> list[int]:
    """The pencil polynomial P(x) = det(xG - F) = c chi_D of a side: a = c D
    has the characteristic polynomial c^(d-1) P(x / c), so P_0 = c and
    P_i = a_i / c^(i-1), a division that is checked."""
    out = [side.c]
    for i, x in enumerate(charpoly(side.a)[1:]):
        q, r = divmod(x, side.c**i)
        if r:
            raise ConsistencyError("a characteristic polynomial is not a scaled pencil")
        out.append(q)
    return out


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


def _kernel_row(rows: list[list[int]]) -> Optional[list[int]]:
    """The first row of the reduced echelon form of the rational kernel
    {x : rows x = 0}, made primitive with a positive pivot; None when the
    kernel is 0.

    One elimination of the rows with their columns reversed. There each
    row is nonzero only at its pivot and at free columns, all right of
    the pivot in the reversed order, so the kernel vector of a free column
    f is nonzero only at f and at the pivot columns right of f in the
    original order, and zero at the other free columns. Those vectors are
    the reduced echelon rows of the kernel, and the first one is that of
    the leftmost free column.
    """
    ech = _echelon([row[::-1] for row in rows])
    pivots = [next(j for j, x in enumerate(row) if x) for row in ech]
    free = max(set(range(len(rows[0]))) - set(pivots), default=None)
    if free is None:
        return None
    scale = math.lcm(*(row[p] for row, p in zip(ech, pivots)))
    x = [0] * len(rows[0])
    x[free] = scale
    for row, p in zip(ech, pivots):
        x[p] = -row[free] * (scale // row[p])
    return poly.primitive(x[::-1])


def _denominators(side: _Side, v, steps: int) -> list[int]:
    """The denominators of D^j G^{-T} v for 0 <= j < steps."""
    num, den, out = side.adj_t.apply(v), side.c, []
    for _ in range(steps):
        g = math.gcd(den, *num)
        num, den = [x // g for x in num], den // g
        out.append(den)
        num, den = side.a.apply(num), den * side.c
    return out


_NO_MONIC_FACTOR = DensityVerdict(
    DENSE, None, "no factor of a chain's characteristic polynomial is monic "
    "over Z, so no character survives it",
)


def decide_density(f: IntMatrix, g: IntMatrix) -> DensityVerdict:
    """Decide whether the subgroup the two chains generate is dense.

    Dense when the forward and backward obstruction spaces meet only in 0.
    With D = (F G^{-1})^T, the backward chain's matrix is D' = (G F^{-1})^T
    = D^{-1}, and F^T = G^T D. The forward space is G^T times the sum of
    the primary components ker q(D)^m over the factors q of the pencil
    polynomial P(x) = det(xG - F) with |q[0]| = 1. The backward space is
    F^T times the components of the reversed factors that are monic, those
    with |q[-1]| = 1; D maps each component onto itself, so it is G^T times
    the same components. The components are independent, so the spaces
    meet in G^T times the sum over the factors that are units at both ends:
    the pair is dense exactly when no irreducible factor of P has leading
    and constant coefficients +-1, that is, when no eigenvalue of F G^{-1}
    is an algebraic unit.

    So only G's det and adjugate, the forward side and P's factor list are
    needed to decide; P(0) = det(-F) checks F. Only a NotDense pair builds
    more. Then v, the first row of the reduced echelon form of the meet
    made primitive, comes from one elimination of the meet's equations
    with their columns reversed (`_kernel_row`). It is scaled by the lcm e
    of the denominators of D^j y for j < d, with y = G^{-T} v, from one
    walk on G's side. With U the product of the factors that are units at
    both ends, with their multiplicities and made monic, U(D) y = 0,
    deg U <= d and U(0) = +-1. So the lattice Z[D] y is spanned by the
    D^j y for j < deg U, e clears it, and e v lies in every forward
    annihilator. On that lattice D^{-1} is an integer polynomial in D,
    since U(0) = +-1, and as F^T = G^T D each backward value
    D'^j F^{-T} v equals D^{-(j+1)} y and lies in the lattice: e v lies in
    every backward annihilator too, and a backward walk could never raise
    e. So F enters only through a = adj(G)^T F^T. The walk checks that
    the denominator at step d divides e.
    """
    if f.dim != g.dim:
        raise DimensionMismatch(_MISMATCH)
    dg, adj_g = det_adjugate(g)
    if dg == 0:
        raise SingularMatrix(_SINGULAR)
    forward = _side(f, dg, adj_g)
    pencil = _pencil(forward)
    if pencil[-1] == 0:
        raise SingularMatrix(_SINGULAR)
    factors = poly.factor(pencil)[1]
    ends = [(abs(q[0]) == 1, abs(q[-1]) == 1) for q, _ in factors]
    if not any(lead for lead, _ in ends) or not any(const for _, const in ends):
        return _NO_MONIC_FACTOR
    units = [qm for qm, (lead, const) in zip(factors, ends) if lead and const]
    if not units:
        return DensityVerdict(
            DENSE, None, "the obstruction spaces of the two chains meet only "
            "in 0",
        )
    v = _kernel_row(_obstruction_equations(forward, units).rows)
    walk = _denominators(forward, v, f.dim + 1)
    e = math.lcm(*walk[:-1])
    if e % walk[-1]:
        raise ConsistencyError("witness character leaves the integers")
    return DensityVerdict(
        NOT_DENSE, tuple(e * x for x in v), "the obstruction spaces of the "
        "two chains share a line of characters that survive every level",
    )
