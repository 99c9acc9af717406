"""Conformance boxes: every nonsingular pair of a small box against a closed
form of the criterion written without `qsimp.poly` or `qsimp.chain`.

A nonsingular pair (F, G) is NotSimple exactly when some irreducible factor
of P(x) = det(xG - F) has leading and constant coefficients +-1.
- d = 1: P = g x - f is one linear factor, so NotSimple exactly when
  |f| = |g|.
- d = 2: P = p2 x^2 + p1 x + p0 with p2 = det G, p0 = det F and content
  c = gcd(p2, p1, p0). A linear factor that is a unit at both ends is
  x - 1 or x + 1, a root of P(1) P(-1). Otherwise a unit factor is all of
  P / c, irreducible exactly when the discriminant is not a square, and a
  unit at both ends exactly when |p2| = |p0| = c.
- d = 3: P = p3 x^3 + ... + p0. A root +-1 makes the pair NotSimple. The
  other linear factors s x - r have a rational root r / s with s | p3 and
  r | p0; once they are divided out, what is left is 1, an irreducible
  quadratic, judged by its primitive part as at d = 2, or all of P, an
  irreducible cubic that is a unit at both ends exactly when
  |p3| = |p0| = content.
- R4: F = n I against a triangular B, in either orientation, is NotSimple
  exactly when some |b_ii| = n. The rule is R3 when B is unimodular, R4
  for the other Simple pairs and R5 for the NotSimple ones.

The boxes: d = 1 with 1 <= |f|, |g| <= 60 (14,400 pairs); d = 2 with
entries in [-2, 2] (496 nonsingular matrices, 246,016 pairs); d = 3, a
seeded sample of SAMPLE_3 draws from the nonsingular matrices with
entries in {0, 1, 2} (12,792) and in {-1, 0, 1} (11,808), each draw in
both orientations; and the R4 box, n = 2..5 against B with diagonal in
[-6, 6] without 0 and off-diagonal entries in [-2, 2], upper and lower,
in both orientations (11,520 pairs at d = 2, 3,456,000 at d = 3). The
suite runs the d = 1 box whole and a fixed stride of each other box;
`PYTHONPATH=src python tests/test_boxes.py` runs the boxes whole, but for
a stride of STRIDE_R4_WHOLE through the d = 3 R4 box. Every NotSimple
witness m must survive WITNESS_STEPS exact steps on both sides: G^-T m,
then D = G^-T F^T applied to it, stay integral, and so do F^-T m and its
images under F^-T G^T. Every rule R1, R3, R4 and R5 decides some pair of
the run.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from operator import mul

from helpers import adj_oracle, det_oracle
from qsimp.intmat import IntMatrix
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, decide

WITNESS_STEPS = 6
BOX_1 = [s * k for k in range(1, 61) for s in (1, -1)]
# prime strides: the strided pairs (k // n, k % n) of the d = 2 box meet
# every F and every G; an odd stride through the d = 3 sample takes both
# orientations; a stride through an R4 box, coprime to its count of
# triangular matrices, meets every n, orientation and B position
STRIDE_2 = 23
SAMPLE_3 = 25_000
STRIDE_3 = 23
STRIDE_R4 = {2: 7, 3: 2311}
STRIDE_R4_WHOLE = 37
R4_DIAG = [x for x in range(-6, 7) if x]
R4_OFF = range(-2, 3)


def not_simple_1(f, g):
    return abs(f[0][0]) == abs(g[0][0])


def not_simple_2(f, g):
    (f11, f12), (f21, f22) = f
    (g11, g12), (g21, g22) = g
    p2 = g11 * g22 - g12 * g21
    p1 = f12 * g21 + f21 * g12 - f11 * g22 - f22 * g11
    p0 = f11 * f22 - f12 * f21
    if (p2 + p1 + p0) * (p2 - p1 + p0) == 0:
        return True
    disc = p1 * p1 - 4 * p2 * p0
    square = disc >= 0 and math.isqrt(disc) ** 2 == disc
    c = math.gcd(p2, p1, p0)
    return not square and abs(p2) == abs(p0) == c


def _value(q, r, s):
    """s^deg q(r / s), for q highest degree first."""
    deg = len(q) - 1
    return sum(c * r ** (deg - k) * s ** k for k, c in enumerate(q))


def _divide(q, s, r):
    """q / (s x - r) for a root r / s of q in lowest terms; every quotient
    coefficient is an integer, by Gauss's lemma."""
    out, rem = [], list(q)
    while len(rem) > 1:
        c = rem[0] // s
        out.append(c)
        rem = [rem[1] + c * r] + rem[2:]
    return out


def _divisors(n):
    return [k for k in range(1, abs(n) + 1) if n % k == 0]


def _pencil_at(f, g, t):
    """P(t) = det(t G - F)."""
    return det_oracle([[t * y - x for x, y in zip(fr, gr)] for fr, gr in zip(f, g)])


def not_simple_3(f, g):
    p0, at_1, at_minus_1 = (_pencil_at(f, g, t) for t in (0, 1, -1))
    if at_1 * at_minus_1 == 0:
        return True
    p3 = det_oracle(g)
    # P(1) + P(-1) = 2 (p2 + p0) and P(1) - P(-1) = 2 (p3 + p1)
    q = [p3, (at_1 + at_minus_1) // 2 - p0, (at_1 - at_minus_1) // 2 - p3, p0]
    # divide out every rational root r / s, with its multiplicity
    for s in _divisors(p3):
        for r in (k * sign for k in _divisors(p0) for sign in (1, -1)):
            if math.gcd(r, s) == 1:
                while len(q) > 1 and _value(q, r, s) == 0:
                    q = _divide(q, s, r)
    if len(q) == 1:
        return False
    return abs(q[0]) == abs(q[-1]) == math.gcd(*q)


def _triangular(d, t):
    """The t-th triangular B of the R4 box: upper for even t, lower for odd
    t, then the diagonal and the off-diagonal entries by the digits of
    t // 2."""
    lower, t = t % 2, t // 2
    b = [[0] * d for _ in range(d)]
    for i in range(d):
        t, k = divmod(t, len(R4_DIAG))
        b[i][i] = R4_DIAG[k]
    for i, j in combinations(range(d), 2):
        t, k = divmod(t, len(R4_OFF))
        if lower:
            b[j][i] = R4_OFF[k]
        else:
            b[i][j] = R4_OFF[k]
    return b


def _apply(m, v):
    return [sum(map(mul, row, v)) for row in m]


def survives(f, g, m):
    """m stays integral for WITNESS_STEPS steps on both sides: the first
    step is B^-T m, and each later one applies B^-T A^T, for (A, B) =
    (F, G) and (G, F). Each step ends in Fractions, which must all be
    integers."""
    for a, b in ((f, g), (g, f)):
        adj_t, det = list(zip(*adj_oracle(b))), det_oracle(b)
        a_t = list(zip(*a))
        y = m
        for k in range(WITNESS_STEPS):
            y = [Fraction(x, det) for x in _apply(adj_t, _apply(a_t, y) if k else y)]
            if any(x.denominator != 1 for x in y):
                return False
            y = [x.numerator for x in y]
    return True


def check_box(pairs, not_simple, rule=None):
    """Decide every pair and compare with the closed form, and with the
    deciding rule where `rule` names it; returns the count of deciding
    rules. A NotSimple witness must survive the walk; only R1, whose
    levels are all Z^d, gives none."""
    rules = Counter()
    for f, g in pairs:
        v = decide(IntMatrix(f), IntMatrix(g))
        want = NOT_SIMPLE if not_simple(f, g) else SIMPLE
        assert v.status == want, (f, g, v.status)
        got = v.rules_fired[-1][0][:2]
        assert rule is None or got == rule(f, g), (f, g, got)
        rules[got] += 1
        if v.status == NOT_SIMPLE:
            if got == "R1":
                assert v.witness is None, (f, g)
            else:
                assert any(v.witness) and survives(f, g, v.witness), (f, g, v.witness)
    return rules


def box_1():
    return [([[f]], [[g]]) for f in BOX_1 for g in BOX_1]


def _nonsingular(d, entries):
    rows = product(product(entries, repeat=d), repeat=d)
    return [m for m in rows if det_oracle(m)]


def box_2(stride=1):
    mats = _nonsingular(2, range(-2, 3))
    assert len(mats) == 496
    n = len(mats)
    return [(mats[k // n], mats[k % n]) for k in range(0, n * n, stride)]


def box_3(stride=1):
    """The seeded d = 3 sample, each draw (A, B) as (A, B) and (B, A)."""
    small, signed = _nonsingular(3, range(3)), _nonsingular(3, range(-1, 2))
    assert (len(small), len(signed)) == (12_792, 11_808)
    rng = random.Random(3)
    pairs = []
    for _ in range(SAMPLE_3):
        a, b = rng.choice(small), rng.choice(signed)
        pairs += [(a, b), (b, a)]
    return pairs[::stride]


def box_r4(d, stride=1):
    """(n I, B) and (B, n I) for n = 2..5 and each triangular B of the R4
    box; k runs through B fastest, then the orientation, then n."""
    count = 2 * len(R4_DIAG) ** d * len(R4_OFF) ** (d * (d - 1) // 2)
    pairs = []
    for k in range(0, 8 * count, stride):
        high, t = divmod(k, count)
        n, swapped = divmod(high, 2)
        scalar = [[(n + 2) * (i == j) for j in range(d)] for i in range(d)]
        b = _triangular(d, t)
        pairs.append((b, scalar) if swapped else (scalar, b))
    return pairs


def _n_and_b(f, g):
    """(n, B) of an R4 box pair: n from the matrix that is n I with
    n >= 2, F's when both are (verdict and rule are symmetric then)."""
    for a, b in ((f, g), (g, f)):
        n = a[0][0]
        if n >= 2 and all(x == n * (i == j) for i, row in enumerate(a) for j, x in enumerate(row)):
            return n, b


def not_simple_r4(f, g):
    n, b = _n_and_b(f, g)
    return any(abs(b[i][i]) == n for i in range(len(b)))


def rule_r4(f, g):
    b = _n_and_b(f, g)[1]
    if math.prod(abs(b[i][i]) for i in range(len(b))) == 1:
        return "R3"
    return "R5" if not_simple_r4(f, g) else "R4"


def test_closed_forms_examples():
    assert not_simple_1([[2]], [[-2]]) and not not_simple_1([[2]], [[3]])
    # P(x) = 2 (x + 1)^2: a root -1
    assert not_simple_2(((-2, -2), (2, 1)), ((2, 0), (-2, 1)))
    # P(x) = x^2 - 3x + 1, irreducible and a unit at both ends
    assert not_simple_2(((2, 1), (1, 1)), ((1, 0), (0, 1)))
    # P(x) = 2 (x^2 - 3x + 1): content 2, so a unit at both ends too
    assert not_simple_2(((2, 1), (2, 2)), ((2, 0), (0, 1)))
    # (x - 2)(3x - 1) and (3x - 2)(4x - 3): rational roots, none +-1
    assert not not_simple_2(((2, 0), (0, 1)), ((1, 0), (0, 3)))
    assert not not_simple_2(((2, 0), (0, 3)), ((3, 0), (0, 4)))
    # x^2 - 2x - 2 is a unit at its leading end only
    assert not not_simple_2(((2, 2), (1, 0)), ((1, 0), (0, 1)))
    i3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    # (x - 1)(x - 2)(x - 3): a root 1
    assert not_simple_3(((1, 0, 0), (0, 2, 0), (0, 0, 3)), i3)
    # x^3 - x - 1, and 2 (x^3 - x - 1) with content 2: irreducible cubics,
    # units at both ends
    assert not_simple_3(((0, 0, 1), (1, 0, 1), (0, 1, 0)), i3)
    assert not_simple_3(((0, 0, 2), (1, 0, 1), (0, 1, 0)), ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
    # x^3 - 2: an irreducible cubic, a unit at its leading end only
    assert not not_simple_3(((0, 0, 2), (1, 0, 0), (0, 1, 0)), i3)
    # (x - 2)(x^2 - 3x + 1) and (x - 2) 2 (x^2 - 3x + 1): the quadratic
    # left after the root 2 is a unit at both ends
    assert not_simple_3(((2, 0, 0), (0, 2, 1), (0, 1, 1)), i3)
    assert not_simple_3(((2, 0, 0), (0, 4, 2), (0, 1, 1)), ((1, 0, 0), (0, 2, 0), (0, 0, 1)))
    # (x - 2)(x^2 - 2x - 2), and linear factors only, a repeated one too
    assert not not_simple_3(((2, 0, 0), (0, 2, 2), (0, 1, 0)), i3)
    assert not not_simple_3(((2, 0, 0), (0, 3, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert not not_simple_3(((3, 0, 0), (0, 3, 0), (0, 0, 2)), ((2, 0, 0), (0, 2, 0), (0, 0, 3)))
    # R4: 3 I against a diagonal entry -3 in either orientation; a
    # unimodular B is R3's
    b = [[2, 1], [0, -3]]
    assert not_simple_r4([[3, 0], [0, 3]], b) and not_simple_r4(b, [[3, 0], [0, 3]])
    assert rule_r4(b, [[3, 0], [0, 3]]) == "R5" and rule_r4([[4, 0], [0, 4]], b) == "R4"
    assert rule_r4([[2, 0], [0, 2]], [[1, 2], [0, -1]]) == "R3"
    assert _triangular(2, 1) == [[-6, 0], [-2, -6]] and _triangular(2, 2) == [[-5, -2], [0, -6]]


def test_witness_walk_checks_the_first_step():
    # F = 2, G = -2: G^-T m = -1/2 for m = 1, though (F^T G^-T)^k m = (-1)^k
    assert not survives([[2]], [[-2]], [1])
    assert survives([[2]], [[-2]], [2])


def test_d1_box():
    rules = check_box(box_1(), not_simple_1)
    assert sum(rules.values()) == 14_400
    assert set(rules) == {"R1", "R3", "R4", "R5"}


def test_d2_box_strided():
    rules = check_box(box_2(STRIDE_2), not_simple_2)
    assert sum(rules.values()) == -(-496 * 496 // STRIDE_2)
    # R4 never fires in this box: every triangular G with |det G| > 1 has
    # a diagonal entry +-2, the only n of an F = n I there
    assert set(rules) == {"R1", "R3", "R5"}


def test_d3_box_strided():
    rules = check_box(box_3(STRIDE_3), not_simple_3)
    assert sum(rules.values()) == -(-2 * SAMPLE_3 // STRIDE_3)
    # R4 never fires in this box: its only n I with n >= 2 is 2 I, and a
    # triangular matrix with entries in {-1, 0, 1} is unimodular, R3's
    assert set(rules) == {"R1", "R3", "R5"}


def test_r4_boxes_strided():
    for d, count in ((2, 11_520), (3, 3_456_000)):
        rules = check_box(box_r4(d, STRIDE_R4[d]), not_simple_r4, rule_r4)
        assert sum(rules.values()) == -(-count // STRIDE_R4[d])
        assert set(rules) == {"R3", "R4", "R5"}


if __name__ == "__main__":
    import time

    for name, make, form, rule in (
        ("d = 1", box_1, not_simple_1, None),
        ("d = 2", box_2, not_simple_2, None),
        ("d = 3 sample", box_3, not_simple_3, None),
        ("R4 d = 2", lambda: box_r4(2), not_simple_r4, rule_r4),
        (f"R4 d = 3, every {STRIDE_R4_WHOLE}th pair", lambda: box_r4(3, STRIDE_R4_WHOLE),
         not_simple_r4, rule_r4),
    ):
        start = time.perf_counter()
        rules = check_box(make(), form, rule)
        print(name, sum(rules.values()), "pairs, 0 mismatches", dict(sorted(rules.items())),
              f"{time.perf_counter() - start:.1f} s")
