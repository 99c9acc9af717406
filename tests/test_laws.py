"""Laws of the verdict that follow from its closed form.

A nonsingular pair (F, G) is Simple exactly when no eigenvalue of F G^-1
is an algebraic unit, and R1, R3 and R4 are closed forms of that
statement. So the status must not change when the pair is swapped (units
are closed under inversion), when both matrices are transposed (G^-1 F is
similar to F G^-1), when one matrix is negated, or under (H F, H G) and
(F H, G H) for a nonsingular H; and a block sum is Simple exactly when
every block is. Each check compares `decide` statuses alone, on seeded
pairs from every rule family.
"""

import functools

import pytest

from helpers import block_sum, rand_matrix, rand_unimodular, seeded
from qsimp.intmat import IntMatrix, det
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, decide


def _nonsingular(rng, d, lo, hi):
    while True:
        m = rand_matrix(rng, d, lo, hi)
        if det(m):
            return m


def _triangular(rng, d, diagonal):
    """An upper triangular matrix with the given diagonal."""
    return IntMatrix([[diagonal[i] if i == j else rng.randint(-2, 2) * (j > i)
                       for j in range(d)] for i in range(d)])


def _pair(rng, d, kind):
    """A seeded nonsingular pair of one rule family."""
    if kind == "R1":  # two unimodular matrices
        return rand_unimodular(rng, d), rand_unimodular(rng, d)
    if kind == "R3":  # F G^-1 triangular, G unimodular; a dilation unless
        g = rand_unimodular(rng, d)  # a diagonal entry is +-1
        return _triangular(rng, d, [rng.choice([-3, -2, -1, 2, 3]) for _ in range(d)]) @ g, g
    if kind == "R4":  # n I against a triangular G, some diagonal entries +-n
        n = rng.randint(2, 3)
        g = _triangular(rng, d, [rng.choice([-n, n, -4, 4, 5, -1, 1]) for _ in range(d)])
        return IntMatrix.scalar(d, n), g
    return _nonsingular(rng, d, -3, 3), _nonsingular(rng, d, -3, 3)


@functools.cache
def _pairs(seed, count, dims):
    """(pair, status) for `count` seeded pairs, cycling through the rule
    families; every family and both statuses occur."""
    rng = seeded(seed)
    out, rules = [], set()
    for k in range(count):
        f, g = _pair(rng, rng.choice(dims), ("R1", "R3", "R4", "R5")[k % 4])
        v = decide(f, g)
        assert v.status in (SIMPLE, NOT_SIMPLE)
        rules.add(v.rules_fired[-1][0][:2])
        out.append(((f, g), v.status))
    assert rules == {"R1", "R3", "R4", "R5"}
    assert {s for _, s in out} == {SIMPLE, NOT_SIMPLE}
    return out


def _neg(m):
    return IntMatrix([[-x for x in row] for row in m.rows])


@pytest.mark.parametrize("law, mapped", [
    ("transpose both", lambda f, g: (f.transpose(), g.transpose())),
    ("negate F", lambda f, g: (_neg(f), g)),
    ("negate G", lambda f, g: (f, _neg(g))),
])
def test_status_survives_transpose_and_sign(law, mapped):
    for (f, g), status in _pairs(181, 400, range(1, 7)):
        assert decide(*mapped(f, g)).status == status, (law, f, g)


def test_status_survives_swap_and_products():
    rng = seeded(191)
    for (f, g), status in _pairs(193, 300, range(1, 9)):
        assert decide(g, f).status == status, ("swap", f, g)
        h = _nonsingular(rng, f.dim, -2, 2)
        assert decide(h @ f, h @ g).status == status, ("H F, H G", f, g, h)
        assert decide(f @ h, g @ h).status == status, ("F H, G H", f, g, h)


def test_block_sum_is_simple_exactly_when_every_block_is():
    blocks = _pairs(197, 400, range(1, 5))
    statuses = set()
    for ((f1, g1), s1), ((f2, g2), s2) in zip(blocks[::2], blocks[1::2]):
        status = decide(block_sum(f1, f2), block_sum(g1, g2)).status
        assert status == (SIMPLE if s1 == s2 == SIMPLE else NOT_SIMPLE), (f1, g1, f2, g2)
        statuses.add((s1, s2, status))
    # every combination of block statuses occurs
    assert len(statuses) == 4
