import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from helpers import count_calls, rand_nonsingular, rand_unimodular, seeded
from qsimp import chain, cli, intmat, lattice
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
from qsimp.intmat import IntMatrix, det
from qsimp.lattice import (
    dual_annihilator,
    from_rational_rows,
    join,
    preimage,
    pushforward,
    standard,
    sublattice_contains,
    sublattice_from_rows,
)
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, decide


def m1(x):
    return IntMatrix([[x]])


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
    z = sublattice_from_rows(1, [[1]])
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
    passes = Counter()

    def counted(m, orig=intmat._faddeev_leverrier):
        passes[m] += 1
        return orig(m)

    monkeypatch.setattr(intmat, "_faddeev_leverrier", counted)
    dets = count_calls(monkeypatch, (intmat, chain, lattice), "det")
    f, g = IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]])
    decide_density(f, g)
    # one Faddeev-LeVerrier pass gives each matrix's det and adjugate, and
    # no Bareiss det runs
    assert passes[f] == 1 and passes[g] == 1
    assert not dets


def test_compute_chain_adjugate_passes_do_not_grow_with_depth(monkeypatch):
    passes = Counter()

    def counted(m, orig=intmat._faddeev_leverrier):
        passes[m] += 1
        return orig(m)

    monkeypatch.setattr(intmat, "_faddeev_leverrier", counted)
    f, g = IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]])
    counts = []
    for depth in (1, 24):
        passes.clear()
        compute_chain(f, g, depth)
        counts.append(sum(passes.values()))
    assert counts[0] == counts[1] > 0


def test_compute_chain_hnf_count(monkeypatch):
    calls = count_calls(monkeypatch, (chain, lattice), "hnf_rows")
    folded = []

    def counted(dim, denom, int_rows, start=None, orig=chain.from_rational_rows):
        folded.append(len(int_rows))
        return orig(dim, denom, int_rows, start)

    monkeypatch.setattr(chain, "from_rational_rows", counted)
    # det F = 5 and det G = 3 are prime, so each chain has one generator
    f, g = IntMatrix([[2, 1], [1, 3]]), IntMatrix([[3, 0], [1, 1]])
    for n in (1, 5):
        calls.clear()
        folded.clear()
        compute_chain(f, g, n)
        # two level folds, a join and an annihilator per level, and one
        # annihilator at level 0
        assert sum(calls.values()) == 4 * n + 1
        # per orientation, level 1 is step_pos's fold of the d rows of
        # Z^d's image and the d rows of adj(G)^T, and each later level
        # folds the one generator image; at depth 1 that is one fold per
        # orientation
        assert folded == ([4] + [1] * (n - 1)) * 2
    rng = seeded(61)
    for _ in range(40):
        d = rng.randint(1, 4)
        f = rand_nonsingular(rng, d, -6, 6)
        g = rand_nonsingular(rng, d, -6, 6)
        for a, b in ((f, g), (g, f)):
            folded.clear()
            first = step_pos(a, b, standard(d))
            chain._levels(chain._sides(a, b)[0], first, 6)
            r = sum(first.basis.rows[i][i] != first.denom for i in range(d))
            assert len(folded) == 6 and folded[0] == 2 * d
            assert max(folded[1:]) <= r


def test_levels_check_the_generator_images(monkeypatch):
    # a fold that drops the image (2/9, 0) of the generator (1/3, 0) of
    # F = diag(2, 1), G = diag(3, 1) keeps level 2 at level 1; the next
    # image (4/27, 0) is then off the fold denominator 9 of level 3
    f, g = IntMatrix.diagonal([2, 1]), IntMatrix.diagonal([3, 1])
    third = from_rational_rows(2, 3, [[1, 0]])
    assert step_pos(f, g, standard(2)) == third
    side = chain._sides(f, g)[0]
    orig = chain.from_rational_rows
    monkeypatch.setattr(chain, "from_rational_rows",
                        lambda dim, denom, rows, start=None: orig(dim, denom, [], start))
    # no image is advanced past the last level
    assert chain._levels(side, third, 2) == [third, third]
    with pytest.raises(ConsistencyError):
        chain._levels(side, third, 3)


def test_levels_reduce_images_modulo_the_fold_denominator(monkeypatch):
    folds = []

    def counted(dim, denom, int_rows, start=None, orig=chain.from_rational_rows):
        folds.append((denom, int_rows))
        return orig(dim, denom, int_rows, start)

    monkeypatch.setattr(chain, "from_rational_rows", counted)
    rng = seeded(89)
    entries = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -6, 6)
        g = rand_nonsingular(rng, d, -6, 6)
        for a, b in ((f, g), (g, f)):
            first = step_pos(a, b, standard(d))
            folds.clear()
            chain._levels(chain._sides(a, b)[0], first, 8)
            # every row folded after level 1 is an image kept in [0, den)
            for den, rows in folds:
                for row in rows:
                    assert all(0 <= x < den for x in row), (a, b, den, row)
                    entries += len(row)
    assert entries


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
    for _ in range(400):
        d = rng.randint(1, 4)
        f = rand_nonsingular(rng, d, -6, 6)
        g = rand_nonsingular(rng, d, -6, 6)
        depth = rng.randint(1, 14)
        for a, b in ((f, g), (g, f)):
            side, first = chain._sides(a, b)[0], step_pos(a, b, standard(d))
            levels = chain._levels(side, first, depth)
            assert levels == _plain_levels(a, b, depth)[1:], (a, b, depth)
    tr = compute_chain(f, g, depth)
    assert (tr.pos, tr.neg) == (_plain_levels(f, g, depth), _plain_levels(g, f, depth))


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
    return all(sublattice_contains(a, witness) for a in trace.annihilators)


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
    assert not sublattice_contains(compute_chain(f, g, 1).annihilators[1], (1,))


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
    # with the scaling e forced to 1 the unscaled witness (1,) of (2, 2)
    # fails the integrality re-check
    real = chain._orbit_denominator

    def unscaled(side, v, steps):
        return 1 if steps == 1 else real(side, v, steps)

    monkeypatch.setattr(chain, "_orbit_denominator", unscaled)
    with pytest.raises(ConsistencyError):
        decide_density(m1(2), m1(2))


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
