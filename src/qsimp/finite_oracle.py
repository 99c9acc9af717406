"""Desk-scale ground truth on finite cyclic groups and the 1-torus.

Everything in this module is deliberately literal: quivers are materialized
edge by edge, condition (L) and the closures follow their definitions, and
the subgroup chains are set-valued. The point is to cross-check the lattice
machinery against computations too dumb to share its bugs.

The density-minimality equivalence this module sweeps is a finite-group
specialization of a compact-group statement; the finite case follows the
same argument but is checked here exhaustively rather than assumed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import SingularMatrix

SCOPE_NOTE = (
    "finite-group specialization of the compact-group minimality criterion; "
    "verified exhaustively, not assumed"
)


class FiniteQuiver:
    """Vertices Z_m with an edge (x, y) whenever a*y = b*x mod m.

    The range of (x, y) is x and the source is y, so paths follow edges from
    source to range. `a` and `b` are stored reduced mod m, so quivers whose
    multipliers agree mod m compare and hash equal.
    """

    def __init__(self, m: int, a: int, b: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        self.m, self.a, self.b = m, a % m, b % m

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteQuiver):
            return NotImplemented
        return (self.m, self.a, self.b) == (other.m, other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.m, self.a, self.b))

    def __repr__(self) -> str:
        return f"FiniteQuiver(m={self.m}, a={self.a}, b={self.b})"

    @property
    def is_surjective(self) -> bool:
        return math.gcd(self.a, self.m) == 1 and math.gcd(self.b, self.m) == 1

    def edges(self) -> list[tuple[int, int]]:
        return [
            (x, y)
            for x in range(self.m)
            for y in range(self.m)
            if (self.a * y - self.b * x) % self.m == 0
        ]

    @cached_property
    def _targets(self) -> list[frozenset[int]]:
        """targets[y] = ranges of the edges with source y.

        The same relation as `edges()`, read in O(m): x is a range of y
        exactly when b*x mod m equals a*y mod m, so the ranges of y are the
        bucket of x by b*x mod m at a*y mod m.
        """
        m, a, b = self.m, self.a, self.b
        buckets = [[] for _ in range(m)]
        for x in range(m):
            buckets[b * x % m].append(x)
        sets = list(map(frozenset, buckets))
        return [sets[a * y % m] for y in range(m)]


def condition_L_finite(q: FiniteQuiver) -> bool:
    """Condition (L): no loop is exit-free, that is, no vertex comes back to
    itself within m steps along single out-edges. Each vertex of an exit-free
    loop has one edge out, the loop's own, and a loop has at most m vertices.
    """
    targets = q._targets
    for start in range(q.m):
        v = start
        for _ in range(q.m):
            if len(targets[v]) != 1:
                break
            (v,) = targets[v]
            if v == start:
                return False
    return True


def _closure(q: FiniteQuiver, v: int) -> frozenset[int]:
    """Smallest saturated hereditary vertex set containing v.

    Hereditary: a source in the set pulls in the ranges of its edges.
    Saturated: a regular vertex whose edge ranges all lie in the set joins
    it. Each round takes both steps; the first that adds nothing stops.
    """
    targets = q._targets
    u = frozenset([v])
    while True:
        grown = u.union(*[targets[y] for y in u])
        grown |= {x for x in range(q.m) if targets[x] and targets[x] <= grown}
        if grown == u:
            return u
        u = grown


def minimal_finite(q: FiniteQuiver) -> bool:
    """No proper nonempty saturated hereditary vertex set exists."""
    full = frozenset(range(q.m))
    return all(_closure(q, v) == full for v in range(q.m))


def gamma0_finite(q: FiniteQuiver) -> frozenset[int]:
    """Subgroup of Z_m generated by both subgroup chains.

    Iterates the forward and backward chains as literal subsets until they
    stabilize, then closes the union under addition. Non-surjective pairs
    are outside the minimality theorem's hypotheses but still computable;
    callers flag them via is_surjective.
    """
    m, a, b = q.m, q.a, q.b

    def iterate(first: int, second: int) -> frozenset[int]:
        cur = frozenset([0])
        while True:
            img = {(first * x) % m for x in cur}
            nxt = frozenset(x for x in range(m) if (second * x) % m in img)
            if nxt == cur:
                return cur
            cur = nxt

    forward = iterate(a, b)  # preimage under b of the a-image
    backward = iterate(b, a)
    gen = forward | backward
    sub = set(gen)
    while True:
        grown = {(x + y) % m for x in sub for y in gen} | sub
        if grown == sub:
            return frozenset(sub)
        sub = grown


class MinimalityReport(NamedTuple):
    m_max: int
    pairs_checked: int
    counterexamples: list[dict]
    note: str = SCOPE_NOTE


def verify_minimality_theorem(m_max: int) -> MinimalityReport:
    """Sweep all surjective (m, a, b) with m <= m_max.

    Asserts the equivalence "generated subgroup is everything iff the quiver
    is minimal" instance by instance and reports any counterexample.
    """
    if m_max > 64:
        raise ValueError("sweep is desk scale; keep m_max at 64 or below")
    pairs_checked = 0
    counterexamples = []
    for m in range(1, m_max + 1):
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for a in units:
            for b in units:
                q = FiniteQuiver(m, a, b)
                pairs_checked += 1
                dense_side = gamma0_finite(q) == frozenset(range(m))
                minimal_side = minimal_finite(q)
                if dense_side != minimal_side:
                    counterexamples.append(
                        {
                            "m": m,
                            "a": a,
                            "b": b,
                            "gamma0_full": dense_side,
                            "minimal": minimal_side,
                        }
                    )
    return MinimalityReport(m_max, pairs_checked, counterexamples)


def saturated_hereditary_subsets(q: FiniteQuiver) -> list[frozenset[int]]:
    """All saturated hereditary vertex sets, by definitional check."""
    targets = q._targets
    out = []
    for mask in range(1 << q.m):
        u = frozenset(i for i in range(q.m) if mask >> i & 1)
        hereditary = all(targets[y] <= u for y in u)
        saturated = all(
            x in u
            for x in range(q.m)
            if targets[x] and targets[x] <= u
        )
        if hereditary and saturated:
            out.append(u)
    return out


class GapResult(NamedTuple):
    status: str  # dense_at_resolution | not_dense | gap
    gap: Fraction
    depth: int
    subgroup_order: int


def density_1d(f: int, g: int, depth: int, epsilon: Fraction) -> GapResult:
    """Resolution-qualified density check on the circle.

    Follows the orders of the two subgroup chains, cyclic groups of
    rationals mod 1; the group they generate is the cyclic group of the
    lcm order, whose points {k/order} have largest gap 1/order. A finite computation cannot certify topological density, so
    the best positive answer is dense-at-resolution; exact stabilization of
    both chains is a definitive negative.
    """
    if f == 0 or g == 0:
        raise SingularMatrix("f and g must be nonzero")
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    fa, ga = abs(f), abs(g)

    def orders(first: int, second: int) -> list[int]:
        # subgroup of order q maps to its image of order q/gcd(first, q),
        # then to the full preimage under multiplication by `second`
        qs = [1]
        for _ in range(depth):
            q = qs[-1]
            qs.append((q // math.gcd(first, q)) * second)
        return qs

    pos = orders(fa, ga)
    neg = orders(ga, fa)
    stabilized = depth >= 1 and pos[-1] == pos[-2] and neg[-1] == neg[-2]
    order = math.lcm(pos[-1], neg[-1])
    gap = Fraction(1, order)
    if stabilized:
        return GapResult("not_dense", gap, depth, order)
    if gap < epsilon:
        return GapResult("dense_at_resolution", gap, depth, order)
    return GapResult("gap", gap, depth, order)
