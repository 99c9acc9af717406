import math
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    count_calls,
    count_passes,
    fold_join,
    lattice_points_oracle,
    member,
    rand_nonsingular,
    seeded,
)
from qsimp import intmat, lattice
from qsimp.errors import ConsistencyError, DimensionMismatch, SingularMatrix
from qsimp.intmat import IntMatrix, det
from qsimp.lattice import (
    IntegerSublattice,
    RationalLattice,
    dual_annihilator,
    dual_annihilators,
    dual_lattice,
    from_rational_rows,
    index,
    join,
    preimage,
    pushforward,
    standard,
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
        assert member(k, p)


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
    passes = count_passes(monkeypatch, "det_adjugate")
    dets = count_calls(monkeypatch, (intmat, lattice), "det")
    g = IntMatrix([[1, 2], [3, -4]])
    k = preimage(g, Z2)
    assert passes[g] == 1
    assert preimage(g, k) == preimage(g @ g, Z2)
    # one Gauss-Jordan pass gives the det and the adjugate of each call,
    # and no Bareiss det runs
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
    assert member(Z2, (1, 0))
    assert member(HALF, [Fraction(1, 2)])
    assert not member(HALF, [Fraction(1, 3)])


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
        pts = lattice_points_oracle(l.denom, d, lambda x: member(l, x))
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
            assert member(ann, row)


def test_dual_annihilators_of_ascending_lattices():
    rng = seeded(43)
    for _ in range(60):
        d = rng.randint(1, 4)
        chain = [standard(d)]
        for _ in range(rng.randint(0, 5)):
            chain.append(join(chain[-1], rand_lattice(rng, d)))
        assert dual_annihilators(chain) == [dual_annihilator(l) for l in chain]
    assert dual_annihilators([]) == []
    # the fold of HALF's annihilator 2Z into THIRD's 3Z is Z, not 2Z
    with pytest.raises(ConsistencyError):
        dual_annihilators([THIRD, HALF])
    # the halves of two axes: the reduction of the second's annihilator
    # {m : m_2 even} modulo 2 is itself, with the index 2 of the first's
    # annihilator {m : m_1 even}, but it does not pair integrally with the
    # first
    x_half = from_rational_rows(2, 2, [[1, 0]])
    y_half = from_rational_rows(2, 2, [[0, 1]])
    with pytest.raises(ConsistencyError):
        dual_annihilators([x_half, y_half])
    with pytest.raises(DimensionMismatch):
        dual_annihilators([Z1, Z2])


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


def _rows_lattice(rng, d, denom):
    rows = [[rng.randrange(denom) for _ in range(d)] for _ in range(rng.randint(1, d))]
    return from_rational_rows(d, denom, rows)


def test_join_equals_the_fold_of_both_bases(monkeypatch):
    rng = seeded(37)
    pairs = [(rand_lattice(rng, d), rand_lattice(rng, d))
             for d in (rng.randint(1, 4) for _ in range(60))]
    # prime powers of about 40 bits
    big = {p: p ** (40 // p.bit_length()) for p in (2, 3, 5, 7)}
    for _ in range(25):
        d = rng.randint(1, 4)
        p, q = rng.sample(sorted(big), 2)
        # coprime denominators, joined by CRT: 1 on either side, and two
        # prime powers; then a shared prime p, which the join folds
        for dens in ((1, big[p]), (big[q], 1), (big[p], rng.choice([q, q * q, big[q]])),
                     (big[p], p * rng.choice([1, q, big[q]]))):
            pairs.append(tuple(_rows_lattice(rng, d, x) for x in dens))
    want = [fold_join(a, b) for a, b in pairs]
    crt = count_calls(monkeypatch, (lattice,), "reduce_above_pivots")
    folds = count_calls(monkeypatch, (lattice,), "_hnf_fold")
    taken = Counter()
    for (a, b), w in zip(pairs, want):
        before = crt["qsimp.lattice"], folds["qsimp.lattice"]
        assert join(a, b) == w == join(b, a)
        # each call takes the CRT path exactly when the denominators are
        # coprime, and the fold path otherwise
        coprime = math.gcd(a.denom, b.denom) == 1
        path = crt["qsimp.lattice"] - before[0], folds["qsimp.lattice"] - before[1]
        assert path == ((2, 0) if coprime else (0, 2))
        taken["fold" if not coprime else "unimodular" if 1 in (a.denom, b.denom) else "crt"] += 1
    assert min(taken[k] for k in ("fold", "unimodular", "crt")) >= 20, taken


def test_joins_equal_pairwise_join_across_shared_primes(monkeypatch):
    # lists whose pairs switch between coprime and shared-prime
    # denominators: the list form equals pairwise join, and a pair is
    # joined with a carried inverse, with a fresh one, or by the fold
    rng = seeded(83)
    carried = []

    def carry(*args, orig=lattice._carried_inverse):
        u = orig(*args)
        carried.append(u is not None)
        return u

    monkeypatch.setattr(lattice, "_carried_inverse", carry)
    folds = count_calls(monkeypatch, (lattice,), "_fold_join")
    taken = Counter()
    for _ in range(30):
        d = rng.randint(1, 4)
        ls1 = [_rows_lattice(rng, d, 2**k * rng.choice((1, 1, 5))) for k in range(12)]
        ls2 = [_rows_lattice(rng, d, 3**k * rng.choice((1, 1, 1, 2))) for k in range(12)]
        carried.clear()
        folds.clear()
        got = lattice.joins(ls1, ls2)
        taken["carried"] += sum(carried)
        taken["folded"] += folds["qsimp.lattice"]
        taken["fresh"] += 12 - sum(carried) - folds["qsimp.lattice"]
        assert got == [join(a, b) for a, b in zip(ls1, ls2)]
    assert min(taken.values()) >= 40, taken
    assert lattice.joins([], []) == []
    with pytest.raises(DimensionMismatch):
        lattice.joins([Z1], [Z2])
    with pytest.raises(ValueError):
        lattice.joins([Z1, HALF], [Z1])


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


def test_sublattice_transform():
    z = IntegerSublattice(1, IntMatrix.identity(1))
    doubled = sublattice_transform(z, IntMatrix([[2]]))
    assert doubled.basis == IntMatrix([[2]])
    # like pushforward and preimage, a transform of another dimension is a
    # DimensionMismatch, not the matrix product's ValueError
    z2 = IntegerSublattice(2, IntMatrix.identity(2))
    with pytest.raises(DimensionMismatch):
        sublattice_transform(z2, IntMatrix.scalar(3, 2))
