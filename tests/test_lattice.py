import math
from collections import Counter
from fractions import Fraction

import pytest

from helpers import count_calls, lattice_points_oracle, rand_nonsingular, seeded
from qsimp import intmat, lattice
from qsimp.errors import ConsistencyError, DimensionMismatch, SingularMatrix
from qsimp.intmat import IntMatrix, det
from qsimp.lattice import (
    RationalLattice,
    contains,
    dual_annihilator,
    dual_lattice,
    from_rational_rows,
    index,
    join,
    preimage,
    pushforward,
    standard,
    sublattice_contains,
    sublattice_from_rows,
    sublattice_index,
    sublattice_transform,
)

Z1 = standard(1)
Z2 = standard(2)
HALF = from_rational_rows(1, 2, [[1]])  # (1/2)Z
THIRD = from_rational_rows(1, 3, [[1]])  # (1/3)Z


def rand_lattice(rng, d, spread=4):
    """Random lattice from kernels and joins, denominators kept modest."""
    z = standard(d)
    l = preimage(rand_nonsingular(rng, d, -spread, spread), z)
    if rng.random() < 0.5:
        l = join(l, preimage(rand_nonsingular(rng, d, -spread, spread), z))
    if rng.random() < 0.5:
        l = preimage(rand_nonsingular(rng, d, -2, 2), l)
    return l


def test_from_kernel_examples():
    # the lattice from the kernel of G: G^{-1} Z^d, whose image in the
    # torus is ker(G)
    k3 = preimage(IntMatrix([[3]]), Z1)
    assert k3 == THIRD
    assert index(k3) == 3
    assert preimage(IntMatrix.identity(2), Z2) == Z2
    g = IntMatrix([[2, 1], [0, 2]])
    k = preimage(g, Z2)
    # brute-force oracle: points x of the (1/4)-grid with G x integral
    pts = lattice_points_oracle(
        4, 2, lambda x: all(Fraction(s).denominator == 1 for s in g.apply(x))
    )
    assert len(pts) == 4
    assert index(k) == 4
    for p in pts:
        assert contains(k, p)


def test_from_kernel_singular():
    with pytest.raises(SingularMatrix):
        preimage(IntMatrix([[0]]), Z1)


def test_join_examples():
    rng = seeded(3)
    for _ in range(20):
        l = rand_lattice(rng, rng.randint(1, 3))
        assert join(l, standard(l.dim)) == l
        assert join(l, l) == l
    # gcd-of-fractions oracle: {a/2 + b/3} generates (1/6)Z
    assert join(HALF, THIRD) == from_rational_rows(1, 6, [[1]])


def test_join_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        join(Z1, Z2)


def test_pushforward_examples():
    f = IntMatrix([[2]])
    assert pushforward(f, Z1) == Z1
    assert pushforward(f, HALF) == Z1
    quarter = from_rational_rows(1, 4, [[1]])
    assert pushforward(f, quarter) == HALF


def test_preimage_examples():
    assert preimage(IntMatrix.identity(1), HALF) == HALF
    assert preimage(IntMatrix([[3]]), Z1) == THIRD
    assert preimage(IntMatrix([[2]]), THIRD) == from_rational_rows(1, 6, [[1]])


def test_preimage_computes_det_and_adjugate_once(monkeypatch):
    passes = Counter()

    def counted(m, orig=intmat._faddeev_leverrier):
        passes[m] += 1
        return orig(m)

    monkeypatch.setattr(intmat, "_faddeev_leverrier", counted)
    dets = count_calls(monkeypatch, (intmat, lattice), "det")
    g = IntMatrix([[1, 2], [3, -4]])
    k = preimage(g, Z2)
    assert passes[g] == 1
    assert preimage(g, k) == preimage(g @ g, Z2)
    # one Faddeev-LeVerrier pass gives the det and the adjugate of each
    # call, and no Bareiss det runs
    assert passes[g] == 2 and not dets
    with pytest.raises(SingularMatrix):
        preimage(IntMatrix([[1, 2], [2, 4]]), Z2)


def test_dual_annihilator_examples():
    za = dual_annihilator(Z2)
    assert za.basis == IntMatrix.identity(2)
    half_ann = dual_annihilator(HALF)
    assert half_ann.basis == IntMatrix([[2]])
    sixth = from_rational_rows(1, 6, [[1]])
    assert dual_annihilator(sixth).basis == IntMatrix([[6]])


def test_index_examples():
    assert index(Z2) == 1
    assert index(preimage(IntMatrix.diagonal([2, 3]), Z2)) == 6
    assert index(join(HALF, THIRD)) == 6


def test_inconsistent_lattice_raises():
    # basis 3Z under denominator 2 does not contain 2Z, so it is no
    # canonical lattice; the invariant checks hold under python -O too
    bad = RationalLattice(1, 2, IntMatrix([[3]]))
    with pytest.raises(ConsistencyError):
        index(bad)
    with pytest.raises(ConsistencyError):
        dual_annihilator(bad)


def test_contains_examples():
    assert contains(Z2, (1, 0))
    assert contains(HALF, [Fraction(1, 2)])
    assert not contains(HALF, [Fraction(1, 3)])


def test_equals_examples():
    assert Z2 == standard(2)
    assert HALF == join(HALF, Z1)
    assert HALF != THIRD


def test_membership_brute_force_agreement():
    rng = seeded(17)
    checked = 0
    while checked < 12:
        d = rng.randint(1, 2)
        l = rand_lattice(rng, d, 3)
        if index(l) > 64 or l.denom > 12:
            continue
        checked += 1
        pts = lattice_points_oracle(l.denom, d, lambda x: contains(l, x))
        assert len(pts) == index(l)


def test_duality_identities_random():
    rng = seeded(23)
    for _ in range(60):
        d = rng.randint(1, 3)
        l = rand_lattice(rng, d)
        ann = dual_annihilator(l)
        assert sublattice_index(ann) == index(l)
        assert dual_lattice(ann) == l
        # Galois monotonicity against a larger lattice
        bigger = join(l, rand_lattice(rng, d))
        ann_big = dual_annihilator(bigger)
        for row in ann_big.basis.rows:
            assert sublattice_contains(ann, row)


def test_pushforward_preimage_monotone_and_galois():
    rng = seeded(29)
    for _ in range(40):
        d = rng.randint(1, 3)
        l = rand_lattice(rng, d)
        g = rand_nonsingular(rng, d, -3, 3)
        bigger = join(l, rand_lattice(rng, d))
        # monotone in l
        for small, big in [
            (pushforward(g, l), pushforward(g, bigger)),
            (preimage(g, l), preimage(g, bigger)),
        ]:
            assert join(small, big) == big
        # round trip contains l; equality exactly when ker(g) already inside l
        rt = preimage(g, pushforward(g, l))
        assert join(rt, l) == rt
        expect_equal = join(l, preimage(g, standard(d))) == l
        assert (rt == l) == expect_equal
        if abs(det(g)) == 1:
            assert rt == l


def test_join_semilattice_laws():
    rng = seeded(31)
    for _ in range(30):
        d = rng.randint(1, 3)
        a, b, c = (rand_lattice(rng, d) for _ in range(3))
        assert join(a, b) == join(b, a)
        assert join(join(a, b), c) == join(a, join(b, c))
        assert join(a, a) == a
        assert join(a, standard(d)) == a


def test_join_equals_the_fold_of_both_bases():
    rng = seeded(37)
    for _ in range(60):
        d = rng.randint(1, 4)
        a, b = rand_lattice(rng, d), rand_lattice(rng, d)
        denom = math.lcm(a.denom, b.denom)
        rows = [[x * (denom // l.denom) for x in row] for l in (a, b) for row in l.basis.rows]
        assert join(a, b) == from_rational_rows(d, denom, rows) == join(b, a)


def test_lattice_is_z_d_plus_its_rows_below_the_denominator():
    # a canonical row with pivot D is D e_i plus a combination of later
    # rows, so the other rows over D generate L together with Z^d; chain
    # levels take their generators this way
    rng = seeded(41)
    cases = [standard(d) for d in range(1, 5)]
    for _ in range(200):
        d = rng.randint(1, 4)
        denom = rng.choice([4, 8, 9, 12, 18, 25, 27, rng.randint(1, 30)])
        rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(rng.randint(1, d))]
        cases.append(from_rational_rows(d, denom, rows))
        cases.append(rand_lattice(rng, d))
    square_factors = set()
    for l in cases:
        gens = [row for i, row in enumerate(l.basis.rows) if row[i] < l.denom]
        assert from_rational_rows(l.dim, l.denom, gens) == l
        square_factors.update(p for p in (2, 3, 5) if l.denom % (p * p) == 0)
    assert square_factors == {2, 3, 5}


def test_sublattice_contains_rejects_non_integral_entries():
    m = sublattice_from_rows(2, [[2, 0], [0, 2]])
    assert sublattice_contains(m, [2, 0])
    assert sublattice_contains(m, [Fraction(4, 2), 2.0])
    # int() would truncate these to the member (2, 0)
    assert not sublattice_contains(m, [2.9, 0])
    assert not sublattice_contains(m, [Fraction(5, 2), 0])
    assert not sublattice_contains(m, [3, 0])


def test_sublattice_transform():
    two_z = sublattice_from_rows(1, [[1]])
    doubled = sublattice_transform(two_z, IntMatrix([[2]]))
    assert doubled.basis == IntMatrix([[2]])
