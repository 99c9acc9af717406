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

The boxes: d = 1 with 1 <= |f|, |g| <= 60 (14,400 pairs), and d = 2 with
entries in [-2, 2] (496 nonsingular matrices, 246,016 pairs). The suite
runs the d = 1 box whole and a fixed stride of the d = 2 box;
`PYTHONPATH=src python tests/test_boxes.py` runs both boxes whole. Every NotSimple witness m must survive WITNESS_STEPS
exact steps on both sides: G^-T m, then D = G^-T F^T applied to it, stay
integral, and so do F^-T m and its images under F^-T G^T. Every rule
R1, R3, R4 and R5 decides some pair of the run.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

from qsimp.intmat import IntMatrix
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, decide

WITNESS_STEPS = 6
BOX_1 = [s * k for k in range(1, 61) for s in (1, -1)]
# a prime stride: the strided pairs (k // n, k % n) meet every F and every G
STRIDE_2 = 23


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


def _adjugate_transpose(m):
    """(adj(m)^T, det m), so that m^-T = adj(m)^T / det m, for d <= 2."""
    if len(m) == 1:
        return [[1]], m[0][0]
    (a, b), (c, d) = m
    return [[d, -c], [-b, a]], a * d - b * c


def _apply(m, v):
    return [sum(map(mul, row, v)) for row in m]


def survives(f, g, m):
    """m stays integral for WITNESS_STEPS steps on both sides: the first
    step is B^-T m, and each later one applies B^-T A^T, for (A, B) =
    (F, G) and (G, F). Each step ends in Fractions, which must all be
    integers."""
    for a, b in ((f, g), (g, f)):
        adj_t, det = _adjugate_transpose(b)
        a_t = list(zip(*a))
        y = m
        for k in range(WITNESS_STEPS):
            y = [Fraction(x, det) for x in _apply(adj_t, _apply(a_t, y) if k else y)]
            if any(x.denominator != 1 for x in y):
                return False
            y = [x.numerator for x in y]
    return True


def check_box(pairs, not_simple):
    """Decide every pair and compare with the closed form; returns the
    count of deciding rules. A NotSimple witness must survive the walk;
    only R1, whose levels are all Z^d, gives none."""
    rules = Counter()
    for f, g in pairs:
        v = decide(IntMatrix(f), IntMatrix(g))
        want = NOT_SIMPLE if not_simple(f, g) else SIMPLE
        assert v.status == want, (f, g, v.status)
        rule = v.rules_fired[-1][0][:2]
        rules[rule] += 1
        if v.status == NOT_SIMPLE:
            if rule == "R1":
                assert v.witness is None, (f, g)
            else:
                assert any(v.witness) and survives(f, g, v.witness), (f, g, v.witness)
    return rules


def box_1():
    return [([[f]], [[g]]) for f in BOX_1 for g in BOX_1]


def box_2(stride=1):
    mats = [((a, b), (c, d)) for a, b, c, d in product(range(-2, 3), repeat=4) if a * d - b * c]
    assert len(mats) == 496
    n = len(mats)
    return [(mats[k // n], mats[k % n]) for k in range(0, n * n, stride)]


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


if __name__ == "__main__":
    for name, pairs, form in (("d = 1", box_1(), not_simple_1),
                              ("d = 2", box_2(), not_simple_2)):
        rules = check_box(pairs, form)
        print(name, sum(rules.values()), "pairs, 0 mismatches", dict(sorted(rules.items())))
