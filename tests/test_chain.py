import functools
import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    block_sum,
    count_calls,
    count_passes,
    fold_join,
    member,
    rand_matrix,
    rand_nonsingular,
    rand_unimodular,
    rebind_kernel,
    seeded,
)
from qsimp import chain, cli, intmat, lattice, poly, simplicity
from qsimp.chain import (
    DENSE,
    NOT_DENSE,
    annihilator_step_pos,
    compute_chain,
    decide_density,
    step_pos,
)
from qsimp.errors import ConsistencyError, DimensionMismatch, SingularMatrix
from qsimp.finite_oracle import density_1d
from qsimp.intmat import IntMatrix, charpoly, det
from qsimp.lattice import (
    IntegerSublattice,
    dual_annihilator,
    from_rational_rows,
    join,
    preimage,
    pushforward,
    standard,
)
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, decide


def m1(x):
    return IntMatrix([[x]])


def _step(f, g):
    """The forward row map F^T adj(G)^T of the levels of (F, G)."""
    return chain._step(f, intmat.det_adjugate(g)[1])


Z1 = standard(1)
HALF = from_rational_rows(1, 2, [[1]])
THIRD = from_rational_rows(1, 3, [[1]])
NINTH = from_rational_rows(1, 9, [[1]])
QUARTER = from_rational_rows(1, 4, [[1]])


def test_step_pos_examples():
    assert step_pos(m1(2), m1(3), Z1) == THIRD
    assert step_pos(m1(2), m1(3), THIRD) == NINTH
    assert step_pos(m1(2), m1(2), HALF) == HALF


def test_step_neg_examples():
    # the backward level is the forward one with F and G swapped
    assert step_pos(m1(3), m1(2), Z1) == HALF
    assert step_pos(m1(1), m1(2), HALF) == QUARTER
    assert step_pos(m1(1), m1(1), Z1) == Z1


def test_step_rejects_singular():
    with pytest.raises(SingularMatrix):
        step_pos(m1(0), m1(1), Z1)
    with pytest.raises(SingularMatrix):
        step_pos(m1(2), m1(0), Z1)
    with pytest.raises(DimensionMismatch):
        step_pos(m1(2), IntMatrix.diagonal([3, 1]), Z1)


def test_compute_chain_2_3():
    tr = compute_chain(m1(2), m1(3), 2)
    assert tr.pos == [Z1, THIRD, NINTH]
    assert tr.neg == [Z1, HALF, QUARTER]
    assert tr.indices == [1, 6, 36]


def test_compute_chain_identity():
    tr = compute_chain(m1(1), m1(1), 3)
    assert all(l == Z1 for l in tr.pos + tr.neg + tr.joins)
    assert all(a.basis == IntMatrix([[1]]) for a in tr.annihilators)


def test_compute_chain_fixed_point():
    tr = compute_chain(m1(2), m1(2), 3)
    assert tr.joins[-1] == HALF
    assert tr.annihilators[-1].basis == IntMatrix([[2]])


def test_chain_monotone_and_divisible():
    rng = seeded(41)
    for _ in range(25):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -4, 4)
        g = rand_nonsingular(rng, d, -4, 4)
        tr = compute_chain(f, g, 4)
        for lvlist in (tr.pos, tr.neg, tr.joins):
            for a, b in zip(lvlist, lvlist[1:]):
                assert join(a, b) == b
        for a, b in zip(tr.indices, tr.indices[1:]):
            assert b % a == 0
        # forward level one is the kernel lattice of g
        assert tr.pos[1] == preimage(g, standard(d))


def test_annihilator_step_examples():
    z = IntegerSublattice(1, IntMatrix.identity(1))
    assert annihilator_step_pos(m1(2), m1(1), z).basis == IntMatrix([[1]])
    assert annihilator_step_pos(m1(1), m1(2), z).basis == IntMatrix([[2]])
    assert annihilator_step_pos(m1(1), m1(1), z).basis == IntMatrix([[1]])


def test_dual_recursion_consistency():
    rng = seeded(43)
    for _ in range(40):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -5, 5)
        g = rand_nonsingular(rng, d, -5, 5)
        l = join(
            from_rational_rows(
                d,
                rng.randint(1, 6),
                [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)],
            ),
            standard(d),
        )
        lhs = dual_annihilator(step_pos(f, g, l))
        rhs = annihilator_step_pos(f, g, dual_annihilator(l))
        assert lhs == rhs
        lhs_n = dual_annihilator(step_pos(g, f, l))
        rhs_n = annihilator_step_pos(g, f, dual_annihilator(l))
        assert lhs_n == rhs_n


def test_fused_step_matches_pushforward_then_preimage():
    rng = seeded(47)
    signs = set()
    for _ in range(160):
        d = rng.randint(1, 4)
        f = rand_nonsingular(rng, d, -4, 4)
        g = rand_nonsingular(rng, d, -4, 4)
        signs.add(det(g) > 0)
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(rng.randint(1, d + 1))]
        l = from_rational_rows(d, rng.randint(1, 12), rows)
        assert step_pos(f, g, l) == preimage(g, pushforward(f, l))
    assert signs == {True, False}
    with pytest.raises(DimensionMismatch):
        step_pos(m1(2), m1(3), standard(2))


def test_decide_density_computes_each_det_and_adjugate_once(monkeypatch):
    passes = count_passes(monkeypatch, "det_adjugate")
    charpolys = count_passes(monkeypatch, "charpoly")
    dets = count_calls(monkeypatch, (intmat, chain, lattice), "det")
    kernels = count_calls(monkeypatch, (chain,), "_kernel_row")
    eliminations = count_calls(monkeypatch, (chain,), "_echelon")
    evaluations = count_calls(monkeypatch, (chain,), "evaluate")
    walks = count_calls(monkeypatch, (chain,), "_denominators")
    f, g = IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]])
    assert decide_density(f, g).status == DENSE
    # a Dense pair is read off the factor list of det(xG - F): one
    # Gauss-Jordan pass gives G's det and adjugate, F needs none, no Bareiss
    # det runs, and no obstruction space is built; the characteristic
    # polynomial is the forward side's only
    assert passes == {g: 1}
    assert not dets and not kernels and not evaluations
    assert charpolys and not charpolys.keys() & {f, g}
    assert not eliminations and not walks
    # a NotDense pair needs none of F's either: one kernel row from one
    # elimination, scaled by one walk on G's side, which also clears the
    # backward values (decide_density's docstring)
    passes.clear()
    f, g = IntMatrix([[-2, -2], [2, 1]]), IntMatrix([[2, 0], [-2, 1]])
    assert decide_density(f, g).status == NOT_DENSE
    assert passes == {g: 1}
    assert not dets and kernels == {"qsimp.chain": 1}
    assert eliminations == {"qsimp.chain": 1} and walks == {"qsimp.chain": 1}


def test_singular_pairs_raise_before_any_adjugate(monkeypatch):
    passes = count_passes(monkeypatch, "det_adjugate")
    dets = count_passes(monkeypatch, "det")
    charpolys = count_passes(monkeypatch, "charpoly")
    evaluations = count_calls(monkeypatch, (intmat, chain, lattice, simplicity), "evaluate")
    # a trace computes each matrix's det and adjugate twice, by one pass
    # of its own and one in a level-1 step_pos call, and its Bareiss det
    # once, in the other level-1 step_pos call, at every depth
    f, g = IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]])
    for depth in (1, 24):
        passes.clear()
        dets.clear()
        compute_chain(f, g, depth)
        assert passes == {f: 2, g: 2} and dets == {f: 1, g: 1}
    assert not charpolys and not evaluations
    # a singular matrix stops its det_adjugate pass at the missing pivot,
    # and every entry point raises its error before it reads an adjugate
    sing = IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reg = IntMatrix([[2, 1, 0], [1, 3, 1], [0, 1, 2]])
    z, ann = standard(3), IntegerSublattice(3, IntMatrix.identity(3))
    chain_msg = "chain iteration needs nonsingular F and G"
    both = ((sing, reg), (reg, sing))
    for a, b in both:
        for entry, arg in ((compute_chain, 4), (step_pos, z), (annihilator_step_pos, ann)):
            with pytest.raises(SingularMatrix, match=chain_msg):
                entry(a, b, arg)
    with pytest.raises(SingularMatrix, match=chain_msg):
        decide_density(reg, sing)
    with pytest.raises(SingularMatrix, match="preimage needs det != 0"):
        preimage(sing, z)
    with pytest.raises(SingularMatrix, match=r"normalize needs det\(F\) != 0"):
        simplicity.normalize(sing, reg)
    with pytest.raises(ValueError, match="matrix is not unimodular"):
        intmat.unimodular_inverse(sing)
    for a, b in both:
        job = {"command": "trace", "d": 3, "F": [list(r) for r in a.rows],
               "G": [list(r) for r in b.rows], "max_depth": 4}
        assert cli.run(cli.parse_job(json.dumps(job))) == (
            1, '{"status":"Error","error":"SingularMatrix","message":"' + chain_msg + '"}')
    assert not charpolys and not evaluations
    # decide_density reads det F off the pencil's constant term, det(-F):
    # its one characteristic polynomial is the forward side's, not F's
    with pytest.raises(SingularMatrix, match=chain_msg):
        decide_density(sing, reg)
    assert sum(charpolys.values()) == 1 and sing not in charpolys
    assert not evaluations


def test_compute_chain_hnf_count(monkeypatch):
    # per call of the HNF kernel, in order: the rows it folds, and whether
    # it starts from modulus * I. hnf_rows, the level and join folds and
    # the annihilators all reach it
    folded, fresh = [], []

    def wrap(orig):
        def counted(rows, dim, modulus, start=None):
            folded.append(len(rows))
            fresh.append(start is None)
            return orig(rows, dim, modulus, start)

        return counted

    rebind_kernel(monkeypatch, "_hnf_fold", wrap)
    back = count_calls(monkeypatch, (lattice,), "_scaled_inverse_columns")
    # (F, G, generators of the forward and backward level 1 over Z^d,
    # {depth n: back-substitutions}); the determinants are coprime, so
    # every join is built by CRT, with no fold
    cases = [
        # det F = 4 and det G = 3: only the deepest annihilator is
        # back-substituted; each other one is the reduction of the next
        # deeper one
        (IntMatrix([[2, 0], [1, 2]]), IntMatrix([[2, 1], [1, 2]]), (1, 2), {1: 1, 5: 1, 24: 1}),
        # det F = 5 and det G = 3: the backward levels alternate between a
        # cyclic quotient and (Z/5^j)^2, and below each of the latter the
        # reduction is smaller than the annihilator, so every other level
        # back-substitutes and folds
        (IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]]), (1, 1), {1: 1, 5: 3, 24: 13}),
    ]
    for f, g, (r_pos, r_neg), subs in cases:
        for n in (1, 5, 24):
            fresh.clear()
            folded.clear()
            back.clear()
            compute_chain(f, g, n)
            assert back["qsimp.lattice"] == subs[n]
            # two level folds and an annihilator per level, one annihilator
            # at level 0, and a fold after each back-substitution but the
            # deepest one
            assert len(fresh) == 3 * n + subs[n]
            # the two level-1 step_pos folds, the deepest annihilator and
            # the n reductions start from modulus * I
            assert sum(fresh) == n + 3
            # per orientation, level 1 is step_pos's fold of the d rows of
            # Z^d's image and the d rows of adj(G)^T, and each later level
            # folds the r generator images; at depth 1 that is one fold per
            # orientation. Each annihilator call after them takes d rows
            assert folded[:2 * n] == [4] + [r_pos] * (n - 1) + [4] + [r_neg] * (n - 1)
            assert folded[2 * n:] == [2] * (n + subs[n])
    # det F = 3 and det G = 9 share the prime 3: G = 3I has r = d = 2
    # generators, and each join folds the d rows of a backward level
    f, g = IntMatrix([[1, 1], [-1, 2]]), IntMatrix.scalar(2, 3)
    for n, subs in ((1, 1), (5, 3), (24, 12)):
        fresh.clear()
        folded.clear()
        back.clear()
        compute_chain(f, g, n)
        assert back["qsimp.lattice"] == subs
        assert len(fresh) == 4 * n + subs
        assert sum(fresh) == n + 3
        assert folded[:3 * n] == [4] + [2] * (n - 1) + [4] + [1] * (n - 1) + [2] * n
        assert folded[3 * n:] == [2] * (n + subs)
    rng = seeded(61)
    for _ in range(40):
        d = rng.randint(1, 4)
        f = rand_nonsingular(rng, d, -6, 6)
        g = rand_nonsingular(rng, d, -6, 6)
        for a, b in ((f, g), (g, f)):
            folded.clear()
            first = step_pos(a, b, standard(d))
            chain._levels(_step(a, b), det(b), first, 6)
            r = sum(first.basis.rows[i][i] != first.denom for i in range(d))
            assert len(folded) == 6 and folded[0] == 2 * d
            assert max(folded[1:]) <= r


def test_chain_joins_equal_the_fold_of_both_levels():
    # seeded pairs at depth 48, whose level denominators reach hundreds of
    # bits: coprime determinants give CRT joins, a shared prime folds
    rng = seeded(67)
    cases = {(d, coprime): 0 for d in (2, 3) for coprime in (True, False)}
    bits = 0
    while min(cases.values()) < 3:
        d = rng.choice((2, 3))
        f, g = rand_nonsingular(rng, d, -3, 3), rand_nonsingular(rng, d, -3, 3)
        df, dg = abs(det(f)), abs(det(g))
        if min(df, dg) < 2 or max(df, dg) > 12:
            continue
        coprime = math.gcd(df, dg) == 1
        if cases[d, coprime] >= 3:
            continue
        cases[d, coprime] += 1
        tr = compute_chain(f, g, 48)
        assert tr.joins == list(map(fold_join, tr.pos, tr.neg))
        bits = max(bits, tr.joins[-1].denom.bit_length())
    assert bits > 200


def test_annihilators_of_swapped_joins_raise():
    # det F = 5 and det G = 3: every join has a larger index than the last
    tr = compute_chain(IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]]), 4)
    assert tr.indices == sorted(set(tr.indices))
    assert lattice.dual_annihilators(tr.joins) == tr.annihilators
    for i in range(4):
        joins = list(tr.joins)
        joins[i], joins[i + 1] = joins[i + 1], joins[i]
        with pytest.raises(ConsistencyError):
            lattice.dual_annihilators(joins)


def test_annihilators_reduce_from_the_next_deeper_one(monkeypatch):
    # seeded chains at depth 24: random pairs with coprime or shared-prime
    # determinants, and G = 2I and 3I in either orientation. Every
    # annihilator equals the one computed from scratch, and both the
    # accepted reduction and the back-substitution and fold are taken
    rng = seeded(79)
    pairs = []
    while len(pairs) < 24:
        d = rng.choice((2, 3))
        f, g = rand_nonsingular(rng, d, -3, 3), rand_nonsingular(rng, d, -3, 3)
        if min(abs(det(f)), abs(det(g))) > 1:
            pairs.append((f, g))
    for c in (2, 3):
        for d in (2, 3):
            f = rand_nonsingular(rng, d, -3, 3)
            pairs += [(f, IntMatrix.scalar(d, c)), (IntMatrix.scalar(d, c), f)]
    back = count_calls(monkeypatch, (lattice,), "_scaled_inverse_columns")
    taken = {"reduced": 0, "folded": 0, "shared": 0, "scalar": 0}
    for f, g in pairs:
        joins = compute_chain(f, g, 24).joins
        back.clear()
        got = lattice.dual_annihilators(joins)
        # the deepest annihilator and one per level whose reduction is refused
        folds = back["qsimp.lattice"] - 1
        assert got == [dual_annihilator(l) for l in joins]
        taken["reduced"] += 24 - folds
        taken["folded"] += folds
        if math.gcd(det(f), det(g)) > 1 and folds:
            taken["shared"] += 1
        if (f.is_diagonal() or g.is_diagonal()) and 0 < folds < 24:
            taken["scalar"] += 1
    assert min(taken.values()) >= 4, taken


def test_chain_joins_carry_the_crt_inverse(monkeypatch):
    # the list form equals pairwise join: on chains whose denominators
    # stay put for a level (D_1 or D_2 unchanged), on chains with a
    # unimodular side (a denominator of 1 at every level), and on the
    # det-4/3 and det-5/3 pairs. Past level 1 no coprime join takes a
    # fresh inverse
    cases = [
        ([[-3, -1, 0], [-2, -2, -1], [-3, -1, -1]], [[3, 1, 1], [-3, 1, 2], [2, -1, -3]]),
        ([[-1, 0, -1], [-2, 0, -3], [-3, 2, 1]], [[0, -2, -1], [-3, 3, -2], [3, 0, -3]]),
        ([[-3, 0, 2], [0, -3, -3], [3, -3, -2]], [[1, 2, 3], [-3, 2, -2], [-1, 2, 0]]),
        ([[2, 1], [1, 3]], [[1, 1], [1, 2]]),
        ([[1, 1], [1, 2]], [[2, 1], [1, 3]]),
        ([[2, 0], [1, 2]], [[2, 1], [1, 2]]),
        ([[2, 1], [1, 3]], [[3, 0], [1, 1]]),
    ]
    carried = []

    def carry(*args, orig=lattice._carried_inverse):
        u = orig(*args)
        carried.append(u is not None)
        return u

    monkeypatch.setattr(lattice, "_carried_inverse", carry)
    for f, g in cases:
        tr = compute_chain(IntMatrix(f), IntMatrix(g), 48)
        carried.clear()
        got = lattice.joins(tr.pos, tr.neg)
        assert len(carried) == 49 and all(carried[2:]), carried
        assert got == list(map(join, tr.pos, tr.neg))


def test_levels_check_the_generator_images(monkeypatch):
    # a fold that drops the image (2/9, 0) of the generator (1/3, 0) of
    # F = diag(2, 1), G = diag(3, 1) keeps level 2 at level 1; the next
    # image (4/27, 0) is then off the fold denominator 9 of level 3
    f, g = IntMatrix.diagonal([2, 1]), IntMatrix.diagonal([3, 1])
    third = from_rational_rows(2, 3, [[1, 0]])
    assert step_pos(f, g, standard(2)) == third
    step = _step(f, g)
    orig = chain._hnf_fold
    monkeypatch.setattr(chain, "_hnf_fold",
                        lambda rows, dim, modulus, start=None: orig([], dim, modulus, start))
    # no image is advanced past the last level
    assert chain._levels(step, 3, third, 2) == [third, third]
    with pytest.raises(ConsistencyError):
        chain._levels(step, 3, third, 3)


def test_levels_reduce_images_modulo_the_fold_denominator(monkeypatch):
    folds = []

    def counted(rows, dim, modulus, start=None, orig=chain._hnf_fold):
        folds.append((modulus, rows))
        return orig(rows, dim, modulus, start)

    monkeypatch.setattr(chain, "_hnf_fold", counted)
    rng = seeded(89)
    entries = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -6, 6)
        g = rand_nonsingular(rng, d, -6, 6)
        for a, b in ((f, g), (g, f)):
            first = step_pos(a, b, standard(d))
            folds.clear()
            chain._levels(_step(a, b), det(b), first, 8)
            # every row folded after level 1 is an image kept in [0, den)
            for den, rows in folds:
                for row in rows:
                    assert all(0 <= x < den for x in row), (a, b, den, row)
                    entries += len(row)
    assert entries


def _with_det(rng, d, target):
    while True:
        m = rand_matrix(rng, d, -3, 3)
        if abs(det(m)) == target:
            return m


def _spans_multiples(start, modulus):
    """Whether modulus * e_i lies in the row span of the upper-triangular
    `start` for every i, by back-substitution."""
    for i in range(len(start)):
        v = [modulus * (j == i) for j in range(len(start))]
        for c, top in enumerate(start):
            if v[c] % top[c]:
                return False
            q = v[c] // top[c]
            v = [x - q * y for x, y in zip(v, top)]
    return True


def test_hnf_kernel_inputs_meet_the_hnf_rows_contract(monkeypatch):
    # every fold a trace makes reaches the kernel with the inputs hnf_rows
    # would accept, and gives every argument row back unchanged
    calls = Counter()

    def wrap(orig):
        def checked(live, dim, modulus, start=None):
            assert modulus > 0 and dim > 0
            for row in live:
                assert len(row) == dim and all(0 <= x < modulus for x in row)
            if start is None:
                calls["fresh"] += 1
            else:
                calls["start"] += 1
                assert len(start) == dim
                for c, top in enumerate(start):
                    assert len(top) == dim and top[c] > 0 and not any(top[:c])
                assert _spans_multiples(start, modulus)
            before = [list(map(list, live)), start and list(map(list, start))]
            out = orig(live, dim, modulus, start)
            assert [list(map(list, live)), start and list(map(list, start))] == before
            return out

        return checked

    rebind_kernel(monkeypatch, "_hnf_fold", wrap)
    join_folds = count_calls(monkeypatch, (lattice,), "_fold_join")
    back = count_calls(monkeypatch, (lattice,), "_scaled_inverse_columns")
    rng = seeded(97)
    jobs = []
    # the trace-deep cells (d, depth, |det F|, |det G|)
    for d, depth, df, dg in ((2, 96, 2, 3), (2, 96, 3, 4), (2, 192, 2, 3), (2, 192, 3, 4),
                             (3, 96, 2, 3), (3, 96, 3, 4), (3, 192, 2, 3)):
        jobs.append((_with_det(rng, d, df), _with_det(rng, d, dg), depth))
    for _ in range(40):
        d = rng.randint(1, 3)
        jobs.append((rand_nonsingular(rng, d, -6, 6), rand_nonsingular(rng, d, -6, 6),
                     rng.randint(1, 24)))
    for d in (1, 2, 3):
        # G = 2I, r = d generators, in either orientation
        f = rand_nonsingular(rng, d, -6, 6)
        jobs += [(f, IntMatrix.scalar(d, 2), 24), (IntMatrix.scalar(d, 2), f, 24)]
    for d in (2, 3):
        # determinants sharing a prime: every join past level 0 is a fold
        for df, dg in ((3, 9), (2, 4)):
            f, g = _with_det(rng, d, df), _with_det(rng, d, dg)
            jobs += [(f, g, 24), (g, f, 24)]
    for f, g, depth in jobs:
        compute_chain(f, g, depth)
    # the level, join and annihilator folds all ran: each chain
    # back-substitutes its deepest annihilator, and some chains more
    assert calls["fresh"] and calls["start"] and join_folds["qsimp.lattice"]
    assert back["qsimp.lattice"] > len(jobs)


def _plain_levels(f, g, depth):
    """Levels 0..depth by step_pos from Z^d, the d-row fold."""
    levels = [standard(f.dim)]
    for _ in range(depth):
        levels.append(step_pos(f, g, levels[-1]))
    return levels


def _reference_chain(f, g, depth):
    """The chain of compute_chain built from the d-row fold."""
    pos, neg = _plain_levels(f, g, depth), _plain_levels(g, f, depth)
    joins = [join(a, b) for a, b in zip(pos, neg)]
    return chain.ChainTrace(
        depth, pos, neg, joins, [dual_annihilator(l) for l in joins],
        [lattice.index(l) for l in joins],
    )


def test_chain_levels_match_iterated_step_pos():
    rng = seeded(67)
    pairs = []
    for _ in range(400):
        d = rng.randint(1, 4)
        pairs.append((rand_nonsingular(rng, d, -6, 6), rand_nonsingular(rng, d, -6, 6)))
    # G = 2I and 3I: r = d generators of K / Z^d, in either orientation
    for d in range(1, 5):
        for c in (2, 3):
            for _ in range(3):
                f = rand_nonsingular(rng, d, -6, 6)
                pairs += [(f, IntMatrix.scalar(d, c)), (IntMatrix.scalar(d, c), f)]
    for f, g in pairs:
        depth = rng.randint(1, 14)
        assert compute_chain(f, g, depth) == _reference_chain(f, g, depth), (f, g, depth)


CHAIN_HAND_CASES = [
    # unimodular G: no generator, every forward level is Z^d
    ([[2, 1], [1, 3]], [[2, 1], [1, 1]], 5),
    # G = 2 I: K / Z^d is (Z/2)^2, so r = d
    ([[1, 1], [-1, 2]], [[2, 0], [0, 2]], 6),
    # negative determinants on both sides
    ([[1, 2], [2, 1]], [[1, 2], [3, 1]], 7),
    ([[1, 0, 1], [0, 2, 1], [1, 1, 0]], [[-3, 1, 0], [0, 1, 0], [0, 0, 1]], 5),
    # d = 1
    ([[-4]], [[6]], 9),
    # depth 1
    ([[3, 1], [1, -1]], [[0, 3], [1, 1]], 1),
]


@pytest.mark.parametrize(
    "f, g, depth", CHAIN_HAND_CASES,
    ids=["unimodular-G", "G-2I", "neg-det-d2", "neg-det-d3", "d1", "depth1"],
)
def test_trace_hand_cases_match_iterated_step_pos(f, g, depth):
    fm, gm = IntMatrix(f), IntMatrix(g)
    ref = _reference_chain(fm, gm, depth)
    assert compute_chain(fm, gm, depth) == ref
    if abs(det(gm)) == 1:
        assert all(l == standard(fm.dim) for l in ref.pos)
    for output, render in (("json", cli._encode), ("text", cli._to_text)):
        doc = {"command": "trace", "d": len(f), "F": f, "G": g,
               "max_depth": depth, "output": output}
        code, out = cli.run(cli.parse_job(json.dumps(doc)))
        assert code == 0
        assert out == render({"status": "Trace", "trace": cli._trace_dict(ref)})


def test_chain_levels_work_as_dict_keys():
    # with F = G = 2 both chains stop at Z/2 from level 1 on
    trace = compute_chain(m1(2), m1(2), 4)
    first_seen = {}
    for i, level in enumerate(trace.pos + trace.neg):
        first_seen.setdefault(level, i)
    assert first_seen == {standard(1): 0, from_rational_rows(1, 2, [[1]]): 1}


def annihilates_every_level(f, g, witness, depth=30):
    """The witness lies in every annihilator of levels 0..depth."""
    trace = compute_chain(f, g, depth)
    return all(member(a, witness) for a in trace.annihilators)


def test_decide_density_dense():
    v = decide_density(m1(2), m1(3))
    assert v.status == DENSE
    assert v.witness is None
    # no small character survives: the level-8 annihilator of (2, 3) is
    # 6^8 Z
    assert compute_chain(m1(2), m1(3), 8).annihilators[-1].basis == m1(6**8)


def test_decide_density_automorphisms():
    for d in (1, 2, 3):
        v = decide_density(IntMatrix.identity(d), IntMatrix.identity(d))
        assert v.status == NOT_DENSE
        assert v.witness == tuple([1] + [0] * (d - 1))


def test_decide_density_fixed_point():
    v = decide_density(m1(2), m1(2))
    assert v.status == NOT_DENSE
    assert v.witness == (2,)
    # the chain stabilizes at the annihilator 2Z, fixed by one more
    # application of the step (with F = G both chains take the same one),
    # and the witness generates it
    a = compute_chain(m1(2), m1(2), 4).annihilators[-1]
    assert a.basis == IntMatrix([[2]])
    assert annihilator_step_pos(m1(2), m1(2), a) == a


def test_decide_density_witness_annihilates_every_level():
    v = decide_density(m1(2), m1(2))
    assert annihilates_every_level(m1(2), m1(2), v.witness)
    # G = -2 keeps the character 1 integral under F^T G^{-T} = -1, but
    # 1 does not annihilate the first level G^{-1} Z = Z/2
    f, g = m1(2), m1(-2)
    v = decide_density(f, g)
    assert v.witness == (2,)
    assert annihilates_every_level(f, g, v.witness)
    assert not member(compute_chain(f, g, 1).annihilators[1], (1,))


def test_decide_density_orbit_witness_d2():
    # the join chain never stabilizes because the second coordinate runs
    # away, yet (2, 0) survives every level
    f = IntMatrix.diagonal([2, 2])
    g = IntMatrix.diagonal([2, 1])
    v = decide_density(f, g)
    assert v.status == NOT_DENSE
    assert v.witness == (2, 0)
    assert annihilates_every_level(f, g, v.witness)


def test_decide_density_needs_no_budget():
    # none of the closed-form rules resolves this pair, and the exact test
    # settles it without any chain depth
    f = IntMatrix([[2, 1], [0, 1]])
    g = IntMatrix([[1, 0], [1, 3]])
    assert decide_density(f, g).status == DENSE
    assert decide(f, g).status == SIMPLE


def test_decide_density_rechecks_witness(monkeypatch):
    # with the denominators below step d forced to 1, the scaling e is 1,
    # and the unscaled witness (1,) of (2, 2), whose denominator at step d
    # is 2, fails the integrality check
    real = chain._denominators

    def unscaled(side, v, steps):
        return [1] * (steps - 1) + real(side, v, steps)[-1:]

    monkeypatch.setattr(chain, "_denominators", unscaled)
    with pytest.raises(ConsistencyError):
        decide_density(m1(2), m1(2))


@functools.cache
def _factor_pairs():
    """Seeded nonsingular pairs for d = 1..8, and block sums of a repeated
    block, whose characteristic polynomials have repeated factors; built
    once, as a tuple."""
    rng = seeded(61)
    pairs = []
    for d in range(1, 9):
        for _ in range(12 if d <= 4 else 4):
            pairs.append((rand_nonsingular(rng, d, -3, 3), rand_nonsingular(rng, d, -3, 3)))
    for d in (1, 2, 3, 4):
        for copies in (2, 3) if d <= 2 else (2,):
            for _ in range(3):
                f, g = rand_nonsingular(rng, d, -3, 3), rand_nonsingular(rng, d, -3, 3)
                pairs.append((block_sum(*[f] * copies), block_sum(*[g] * copies)))
    return tuple(pairs)


def _sides(f, g):
    """The forward and backward density sides of (F, G)."""
    (df, adj_f), (dg, adj_g) = intmat.det_adjugate(f), intmat.det_adjugate(g)
    return chain._side(f, dg, adj_g), chain._side(g, df, adj_f)


def _multiset(factors):
    return sorted((tuple(p), mult) for p, mult in factors)


def _positive(factors):
    """The factors with their signs flipped to a positive lead."""
    return [([x if q[0] > 0 else -x for x in q], mult) for q, mult in factors]


def test_pencil_factors_are_the_scaled_monic_factors_of_chi_a():
    kept, dims = 0, set()
    for f, g in _factor_pairs():
        for side in _sides(f, g):
            c = side.c
            # the reference: the factors p of the characteristic polynomial
            # of a = c D with c^i | p_i
            want = [(p, mult) for p, mult in poly.factor(charpoly(side.a))[1]
                    if all(x % c**i == 0 for i, x in enumerate(p))]
            got = [([q[0] * x * c**i for i, x in enumerate(q)], mult)
                   for q, mult in poly.factor(chain._pencil(side))[1] if abs(q[0]) == 1]
            assert _multiset(got) == _multiset(want), (f, g)
            kept += bool(want)
        dims.add(f.dim)
    assert 30 <= kept < 2 * len(_factor_pairs()) and dims == set(range(1, 9))


def test_reversed_pencil_factors_give_the_backward_equations():
    signs, repeated, leads = set(), 0, set()
    for f, g in _factor_pairs():
        forward, backward = _sides(f, g)
        factors = poly.factor(chain._pencil(forward))[1]
        # det(xG - F) has the constant term det(-F) != 0, so no factor is x
        assert all(q[-1] for q, _ in factors)
        reversed_ = [(q[::-1], mult) for q, mult in factors]
        want = poly.factor(chain._pencil(backward))[1]
        assert _multiset(_positive(reversed_)) == _multiset(want), (f, g)
        # the obstruction equations are one matrix, whichever order and
        # sign the commuting factors come in
        assert (chain._obstruction_equations(backward, reversed_)
                == chain._obstruction_equations(backward, want))
        signs.add(det(f) * det(g) > 0)
        repeated += any(mult > 1 for _, mult in want)
        leads.update(q[0] for q, _ in reversed_)
    assert signs == {True, False} and repeated >= 18 and {-1, 1} <= leads


def _sympy_pencil(sympy, f, g):
    """det(xG - F) over Z[x], by sympy, independently of charpoly and the
    division."""
    from sympy.polys.matrices import DomainMatrix

    x = sympy.symbols("x")
    ring = sympy.ZZ[x]
    m = x * sympy.Matrix([list(r) for r in g.rows]) - sympy.Matrix([list(r) for r in f.rows])
    p = DomainMatrix.from_Matrix(m).convert_to(ring).det()
    return [int(c) for c in sympy.Poly(ring.to_sympy(p), x).all_coeffs()]


def test_pencil_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def pencil(f, g):
        return _sympy_pencil(sympy, f, g)

    def factors(p):
        content, fs = sympy.factor_list(sympy.Poly(p, x))
        return int(content), _multiset(([int(c) for c in q.all_coeffs()], m) for q, m in fs)

    for f, g in _factor_pairs()[::3]:
        forward, backward = _sides(f, g)
        p = chain._pencil(forward)
        assert p == pencil(f, g) and chain._pencil(backward) == pencil(g, f)
        content, got = poly.factor(p)
        assert (content, _multiset(got)) == factors(p), (f, g)
        reversed_ = _positive([(q[::-1], mult) for q, mult in got])
        assert _multiset(reversed_) == factors(pencil(g, f))[1], (f, g)


def test_pencil_division_rejects_a_perturbed_characteristic_polynomial(monkeypatch):
    # det G = 2 and chi_a = x^2 + 4x + 4, so P_2 = 4 / 2; a perturbed
    # 5 / 2 is not integral
    f, g = IntMatrix([[-2, -2], [2, 1]]), IntMatrix([[2, 0], [-2, 1]])
    forward, _ = _sides(f, g)
    assert charpoly(forward.a) == [1, 4, 4] and chain._pencil(forward) == [2, 4, 2]
    real = chain.charpoly
    monkeypatch.setattr(chain, "charpoly", lambda m: [*real(m)[:-1], real(m)[-1] + 1])
    with pytest.raises(ConsistencyError):
        chain._pencil(forward)
    with pytest.raises(ConsistencyError):
        decide_density(f, g)


NO_MONIC = ("no factor of a chain's characteristic polynomial is monic over Z, so no "
            "character survives it")
MEET_IN_0 = "the obstruction spaces of the two chains meet only in 0"
SHARE_A_LINE = ("the obstruction spaces of the two chains share a line of characters "
                "that survive every level")

# (F, G) blocks for block sums. F G^-1 = [[2, 1], [1, 1]] and [[1, 1], [1, 0]]
# have unit eigenvalues. [[0, 1], [2, 0]] has the eigenvalues +-sqrt 2,
# algebraic integers that are not units: its pencil x^2 - 2 is monic at the
# lead only, and that of the swapped block, 2x^2 - 1, at the constant only
UNIT_BLOCKS = [([[2, 1], [1, 1]], [[1, 0], [0, 1]]), ([[1, 1], [1, 0]], [[1, 0], [0, 1]])]
HALF_UNIT_BLOCKS = [([[0, 1], [2, 0]], [[1, 0], [0, 1]]), ([[1, 0], [0, 1]], [[0, 1], [2, 0]])]


def _random_block_sum(rng, size, unit_share):
    """A block sum (F, G) of dimension `size` of the blocks above and of
    d = 1 blocks (f, g), 1 <= |f|, |g| <= 3; a d = 1 block with |f| = |g|
    has a unit eigenvalue."""
    vals = [-3, -2, -1, 1, 2, 3]
    blocks, d = [], 0
    while d < size:
        kind = rng.random()
        if kind < unit_share:
            if d + 2 <= size and rng.random() < 0.5:
                blocks.append(rng.choice(UNIT_BLOCKS))
            else:
                f = rng.choice(vals)
                blocks.append(([[f]], [[rng.choice((f, -f))]]))
        elif kind < 0.5 and d + 2 <= size:
            blocks.append(rng.choice(HALF_UNIT_BLOCKS))
        else:
            f = rng.choice(vals)
            blocks.append(([[f]], [[rng.choice([g for g in vals if abs(g) != abs(f)])]]))
        d += len(blocks[-1][0])
    return (block_sum(*(IntMatrix(b) for b, _ in blocks)),
            block_sum(*(IntMatrix(b) for _, b in blocks)))


@functools.cache
def _criterion_pairs():
    """_factor_pairs and seeded block sums up to d = 7, conjugated by a
    unimodular W and, for every fourth, multiplied on the left by a
    nonsingular X; one in three sums has no unit block, and one in three
    many. Then block sums of d = 2 to 6, rich in unit blocks, conjugated by
    W and multiplied on the right by a Y with |det Y| > 1: (F Y, G Y) keeps
    F G^-1, so a unit block's degree-2 factor, a unit at both ends, meets
    |det F|, |det G| > 1 and a nonintegral G^-T."""
    rng = seeded(163)
    pairs = list(_factor_pairs())
    for k in range(420):
        f, g = _random_block_sum(rng, rng.randint(1, 7), (0, 0.1, 0.4)[k % 3])
        w = rand_unimodular(rng, f.dim, steps=3)
        w_inv = intmat.unimodular_inverse(w)
        x = rand_nonsingular(rng, f.dim, -2, 2) @ w if k % 4 == 0 else w
        pairs.append((x @ f @ w_inv, x @ g @ w_inv))
    for _ in range(120):
        f, g = _random_block_sum(rng, rng.randint(2, 6), 0.6)
        w = rand_unimodular(rng, f.dim, steps=3)
        y = rand_nonsingular(rng, f.dim, -2, 2)
        while abs(det(y)) == 1:
            y = rand_nonsingular(rng, f.dim, -2, 2)
        w_y = intmat.unimodular_inverse(w) @ y
        pairs.append((w @ f @ w_y, w @ g @ w_y))
    return pairs


def _reference_density(f, g):
    """The two-space rule: each chain's obstruction space from the
    equations of its own factor list, their meet the kernel of the stacked
    rows, whose first echelon row v `_kernel_row` gives (checked against
    sympy below), and the witness scaled with exact fractions by the lcm of
    the denominators of D^j G^-T v and D'^j F^-T v for j < d."""
    sides = _sides(f, g)
    equations = [chain._obstruction_equations(side, poly.factor(chain._pencil(side))[1])
                 for side in sides]
    if None in equations:
        return DENSE, None, NO_MONIC
    v = chain._kernel_row([row for n in equations for row in n.rows])
    if v is None:
        return DENSE, None, MEET_IN_0
    e = 1
    for side in sides:
        w = [Fraction(x, side.c) for x in side.adj_t.apply(v)]
        for _ in range(f.dim):
            e = math.lcm(e, *(x.denominator for x in w))
            w = [sum(a * x for a, x in zip(row, w)) / side.c for row in side.a.rows]
    return NOT_DENSE, tuple(e * x for x in v), SHARE_A_LINE


def test_density_is_the_unit_factor_criterion():
    # the pair is dense exactly when no factor of det(xG - F) has leading
    # and constant coefficients +-1, which equals the rule of two
    # obstruction spaces and the kernel of their stacked equations; the
    # witness scaled by walks on both sides equals the one scaled on G's
    # side alone, also where a degree-2 unit factor meets |det| > 1
    reasons, unit_quadratics = Counter(), 0
    for f, g in _criterion_pairs():
        v = decide_density(f, g)
        assert (v.status, v.witness, v.reason) == _reference_density(f, g), (f, g)
        reasons[v.reason] += 1
        if v.status == NOT_DENSE and abs(det(f)) > 1 and abs(det(g)) > 1:
            factors = poly.factor(chain._pencil(_sides(f, g)[0]))[1]
            unit_quadratics += any(len(q) == 3 and abs(q[0]) == abs(q[-1]) == 1
                                   for q, _ in factors)
    assert set(reasons) == {NO_MONIC, MEET_IN_0, SHARE_A_LINE}
    assert min(reasons.values()) >= 100, reasons
    assert unit_quadratics >= 100, unit_quadratics


def test_density_is_the_unit_factor_criterion_by_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    statuses = set()
    for f, g in _criterion_pairs()[::4]:
        _, factors = sympy.factor_list(sympy.Poly(_sympy_pencil(sympy, f, g), x))
        unit = any(abs(q.LC()) == 1 and abs(q.TC()) == 1 for q, _ in factors)
        status = decide_density(f, g).status
        assert status == (NOT_DENSE if unit else DENSE), (f, g)
        statuses.add(status)
    assert statuses == {DENSE, NOT_DENSE}


def test_kernel_row_is_the_first_echelon_row_of_the_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = seeded(173)
    zero_rows = zero_cols = 0
    for _ in range(400):
        d, r = rng.randint(1, 6), rng.randint(0, 5)
        rank = rng.randint(0, min(d - 1, r))
        basis = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rank)]
        coeffs = [[rng.randint(-3, 3) for _ in basis] for _ in range(max(r, 1))]
        rows = [[sum(c * b[j] for c, b in zip(cs, basis)) for j in range(d)] for cs in coeffs]
        if rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = [0] * d
        if rng.random() < 0.3:
            col = rng.randrange(d)
            for row in rows:
                row[col] = 0
        zero_rows += any(not any(row) for row in rows)
        zero_cols += any(not any(row[j] for row in rows) for j in range(d))
        # the first row of the kernel's reduced echelon form has pivot 1;
        # clear its denominators and content
        first = sympy.Matrix.hstack(*sympy.Matrix(rows).nullspace()).T.rref()[0].row(0)
        scale = math.lcm(*(sympy.fraction(x)[1] for x in first))
        want = [int(x * scale) for x in first]
        content = math.gcd(*want)
        assert chain._kernel_row(rows) == [x // content for x in want], rows
    assert zero_rows >= 50 and zero_cols >= 50
    # a kernel of 0 has no row
    assert chain._kernel_row([[1, 2], [0, 3]]) is None


@pytest.mark.parametrize("f, g, status, reason", [
    # no factor of the forward side is D-monic
    ([[-1, -2], [0, 2]], [[-3, -3], [3, 1]], DENSE, NO_MONIC),
    # G unimodular, so every forward factor is D-monic; none of the
    # backward side's is
    ([[0, 3], [-2, 0]], [[1, -3], [1, -2]], DENSE, NO_MONIC),
    # det(xG - F) = 2 (x + 1)^2, and x + 1 is D-monic on both sides
    ([[-2, -2], [2, 1]], [[2, 0], [-2, 1]], NOT_DENSE, SHARE_A_LINE),
    # det(xG - F) = (x - 2)(3x - 1): x - 2 is D-monic forward and 3x - 1
    # backward, and no factor is both
    ([[2, 0], [0, 1]], [[1, 0], [0, 3]], DENSE, MEET_IN_0),
], ids=["forward-dense", "backward-dense", "not-dense", "meet-in-0"])
def test_decide_density_factors_one_characteristic_polynomial(monkeypatch, f, g, status,
                                                              reason):
    charpolys = count_calls(monkeypatch, (chain,), "charpoly")
    factors = count_calls(monkeypatch, (poly,), "factor")
    built = count_calls(monkeypatch, (chain,), "_side")
    v = decide_density(IntMatrix(f), IntMatrix(g))
    assert v.status == status
    assert charpolys == {"qsimp.chain": 1} and factors == {"qsimp.poly": 1}
    # the backward side is never built, not even for a NotDense witness
    assert built == {"qsimp.chain": 1}
    assert v.reason.startswith(reason)


def test_sides_build_only_the_products_their_callers_read(monkeypatch):
    products = []

    def counted(a, b, orig=IntMatrix.__matmul__):
        products.append((a, b))
        return orig(a, b)

    monkeypatch.setattr(IntMatrix, "__matmul__", counted)
    # a density side is a = adj(G)^T F^T alone, one product. The NotSimple
    # pair, det(xG - F) = 2 (x + 1)^2, builds the obstruction equations of
    # the forward side alone, two more products: the square of its factor
    # at a, and that times adj(G)^T; the witness is scaled on that side,
    # with no backward side. A Dense pair builds the forward side only
    for f, g, n in (([[-2, -2], [2, 1]], [[2, 0], [-2, 1]], 3),
                    ([[-1, -2], [0, 2]], [[-3, -3], [3, 1]], 1)):
        products.clear()
        assert decide(IntMatrix(f), IntMatrix(g)).rules_fired[-1][0] == "R5-density"
        assert len(products) == n
    # a trace builds no side: per orientation, the row map F^T adj(G)^T
    # for the later levels, and again in step_pos with B times it for
    # level 1; the levels themselves multiply no IntMatrix
    for depth in (1, 5):
        products.clear()
        compute_chain(IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]]), depth)
        assert len(products) == 6


def test_reproducer_not_simple():
    # diag(2, 5) and diag(3, 5) conjugated by [[1, 0], [20000, 1]]: the
    # character (-100000, 5) survives, far outside any small norm box
    f = IntMatrix([[2, 0], [-60000, 5]])
    g = IntMatrix([[3, 0], [-40000, 5]])
    v = decide(f, g)
    assert v.status == NOT_SIMPLE
    assert v.witness == (100000, -5)
    assert annihilates_every_level(f, g, v.witness)


def _conjugate(rng, d, a, b, size):
    """P diag(a) P^-1 and P diag(b) P^-1 for P a product of shears."""
    p = [[int(i == j) for j in range(d)] for i in range(d)]
    p_inv = [row[:] for row in p]
    for _ in range(d - 1):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-1, 1]) * rng.randint(max(1, size // 2), size)
        for k in range(d):  # p = E p, p_inv = p_inv E^-1 with E = I + c e_ij
            p[i][k] += c * p[j][k]
        for k in range(d):
            p_inv[k][j] -= c * p_inv[k][i]
    p, p_inv = IntMatrix(p), IntMatrix(p_inv)
    assert p @ p_inv == IntMatrix.identity(d)
    return p @ IntMatrix.diagonal(a) @ p_inv, p @ IntMatrix.diagonal(b) @ p_inv


def test_conjugated_diagonal_pairs_match_closed_form():
    rng = seeded(53)
    vals = [x for x in range(-5, 6) if x]
    for d in (2, 3, 4):
        for size in (2, 2_000, 20_000):
            for _ in range(8 if d < 4 else 2):
                a = [rng.choice(vals) for _ in range(d)]
                b = [rng.choice(vals) for _ in range(d)]
                if rng.random() < 0.5:
                    b[0] = rng.choice([-1, 1]) * a[0]
                f, g = _conjugate(rng, d, a, b, size)
                want = all(abs(x) != abs(y) for x, y in zip(a, b))
                v = decide(f, g)
                assert v.status == (SIMPLE if want else NOT_SIMPLE), (a, b, size)


def test_d1_pairs_match_finite_oracle():
    vals = [x for x in range(-6, 7) if x]
    for f in vals:
        for g in vals:
            v = decide_density(m1(f), m1(g))
            orc = density_1d(f, g, 12, Fraction(1, 1000))
            want = "dense_at_resolution" if v.status == DENSE else "not_dense"
            assert orc.status == want, (f, g)


def test_not_simple_witnesses_annihilate_every_level():
    # (X diag(a) Y, X diag(b) Y) with |a_0| = |b_0| is NotSimple: one-sided
    # compositions preserve the verdict
    rng = seeded(59)
    vals = [x for x in range(-3, 4) if x]
    for k in range(12):
        d = 2 + k % 2
        a = [rng.choice(vals) for _ in range(d)]
        b = [rng.choice(vals) for _ in range(d)]
        b[0] = rng.choice([-1, 1]) * a[0]
        x = rand_nonsingular(rng, d, -2, 2)
        y = rand_unimodular(rng, d, steps=4)
        f = x @ IntMatrix.diagonal(a) @ y
        g = x @ IntMatrix.diagonal(b) @ y
        v = decide(f, g)
        assert v.status == NOT_SIMPLE and v.witness is not None
        assert annihilates_every_level(f, g, v.witness), (f, g, v.witness)


def test_diagonal_pairs_match_closed_form():
    # diagonal pairs decompose per coordinate, where the circle chain
    # stabilizes exactly when the two scalars share an absolute value; the
    # product group is dense iff no coordinate stabilizes
    rng = seeded(97)
    vals = [x for x in range(-4, 5) if x != 0]
    for _ in range(120):
        f1, f2, g1, g2 = (rng.choice(vals) for _ in range(4))
        truly_dense = abs(f1) != abs(g1) and abs(f2) != abs(g2)
        v = decide_density(
            IntMatrix.diagonal([f1, f2]), IntMatrix.diagonal([g1, g2])
        )
        assert v.status == (DENSE if truly_dense else NOT_DENSE)


def _closed_form_pairs(kind, seed, count):
    """Seeded pairs built as a short-jobs benchmark line of rule R1 (two
    unimodular matrices), R3 (T U against U for U unimodular and T
    triangular with diagonal entries 2 to 4 in modulus) or R4 (n I against
    a triangular G whose diagonal avoids |n|), in either orientation, for
    d = 2..6."""
    rng = seeded(seed)

    def nonzero(lo, hi):
        return rng.choice((-1, 1)) * rng.randint(lo, hi)

    def triangular(diag):
        d = len(diag)
        m = [[diag[i] if i == j else rng.randint(-2, 2) * (j > i) for j in range(d)]
             for i in range(d)]
        return IntMatrix(m if rng.random() < 0.5 else [list(c) for c in zip(*m)])

    pairs = []
    for k in range(count):
        d = 2 + k % 5
        if kind == "R1":
            f, g = rand_unimodular(rng, d, 2 * d), rand_unimodular(rng, d, 2 * d)
        elif kind == "R3":
            u = rand_unimodular(rng, d, 2 * d)
            f, g = triangular([nonzero(2, 4) for _ in range(d)]) @ u, u
        else:
            n = nonzero(2, 5)
            diag = [nonzero(1, 6) for _ in range(d)]
            diag = [x if abs(x) != abs(n) else x + (1 if x > 0 else -1) for x in diag]
            if all(abs(x) == 1 for x in diag):
                diag[rng.randrange(d)] *= abs(n) + 1
            f, g = IntMatrix.scalar(d, n), triangular(diag)
        pairs.append((f, g) if rng.random() < 0.5 else (g, f))
    return pairs


def test_dilation_chain_never_not_dense():
    rng = seeded(47)
    from qsimp.simplicity import is_dilation

    found = 0
    while found < 8:
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -4, 4)
        if not is_dilation(f):
            continue
        found += 1
        v = decide_density(f, IntMatrix.identity(d))
        assert v.status == DENSE
    # and the R3 pairs, a dilation against a unimodular partner
    for f, g in _closed_form_pairs("R3", 167, 60):
        assert decide(f, g).rules_fired[-1][0] == "R3-dilation"
        assert decide_density(f, g).status == DENSE, (f, g)


def test_closed_form_rules_agree_with_the_exact_decision():
    # R1 (NotSimple) and R4 (Simple here) decide without the chain; the
    # exact decision, which they skip, gives the same answer
    for kind, seed, status in (("R1", 173, NOT_DENSE), ("R4", 179, DENSE)):
        for f, g in _closed_form_pairs(kind, seed, 60):
            assert decide(f, g).rules_fired[-1][0].startswith(kind)
            assert decide_density(f, g).status == status, (kind, f, g)


# sha256 of the `trace` output line of cli.run at depths 24, 96 and 192,
# recorded from the min-pivot Euclid HNF that preceded the modular one; the
# HNF is unique, so any correct canonicalisation prints the same bytes
TRACE_DIGESTS = [
    (
        [[2, 1], [1, 2]],
        [[1, 1], [-1, 1]],
        (
            "2578d7103626a4df3c73c53d3585b996194e0d38251b0915a46ef84bab51b51c",
            "ccb729cb088599d4647b6e6078047dfa75f47ff9123d0eb00afd8acd63b294f8",
            "7283c39df91c0c676e4f9682eb7db2805b002cd7c515e86341ee8602eeefb956",
        ),
    ),
    (
        [[3, 1], [1, -1]],
        [[0, 3], [1, 1]],
        (
            "478d1d98504570bfbde12969cc82e7f2029a44df380ce3461ed218dba38035f7",
            "abbb1dd2ca303a742adcf3448e342df39eb5c74e10d71af3fdaf5dec00f3415c",
            "5302a30f87e13ce77e68c35a32c7e0a466dc70cf83661732e239ab070ec2107a",
        ),
    ),
    (
        [[1, 1, 0], [0, 2, 1], [1, 0, 1]],
        [[2, 0, 1], [1, 1, 0], [0, -1, 2]],
        (
            "1b22b7cba901ebfe183d09320c05cfab102e23240bea03eb7c51b8c2a14c5a68",
            "8432e7def5ad235b5c1ac6bdb9a5f2133b2f127ee34dafdc20a0b81432f2644b",
            "ce2f92c7dc53f21454bede29977805bee9f05fc229d170c58444b30424947468",
        ),
    ),
    (
        [[0, 1, 0], [0, 0, 1], [2, 1, 1]],
        [[1, 1, 1], [0, 2, 1], [1, 0, 3]],
        (
            "b642b24921630d94cb4214c3020aecba78f4d75b5321830f414b9d83311cc583",
            "98ce430b7770c5d246c3bd5c07851747045749e5dfa30d6be40188f2885647fb",
            "1b6d8c04b3add00e92df41b4fd236f85903888b2887e03dfe09ab01eb5b24e3e",
        ),
    ),
]


@pytest.mark.parametrize("f, g, digests", TRACE_DIGESTS, ids=["d2a", "d2b", "d3a", "d3b"])
def test_trace_output_pinned(f, g, digests):
    for depth, digest in zip((24, 96, 192), digests):
        doc = {"command": "trace", "d": len(f), "F": f, "G": g, "max_depth": depth}
        code, out = cli.run(cli.parse_job(json.dumps(doc)))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `"output":"text"` trace line of cli.run, recorded before
# the trace dict passed its bases as tuples: det F = 4 and det G = 3 at
# depth 96 (CRT joins with the inverse carried modulo 4^k), and G = 3I at
# depth 48 (folded joins)
TEXT_TRACE_DIGESTS = [
    ([[2, 0], [1, 2]], [[2, 1], [1, 2]], 96,
     "7bec16108dd4f630cda6a083392d383a1ebe849079ec8f92665140efe78d46d1"),
    ([[1, 1], [-1, 2]], [[3, 0], [0, 3]], 48,
     "760aeb1216d36d3417c8f6ae11fef37f4541d3cd8ff57dd699e6803b4dbf3507"),
]


@pytest.mark.parametrize("f, g, depth, digest", TEXT_TRACE_DIGESTS, ids=["crt", "fold"])
def test_text_trace_output_pinned(f, g, depth, digest):
    doc = {"command": "trace", "d": len(f), "F": f, "G": g, "max_depth": depth,
           "output": "text"}
    code, out = cli.run(cli.parse_job(json.dumps(doc)))
    assert code == 0
    assert "    basis: [[1, 0], [0, 1]]" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
