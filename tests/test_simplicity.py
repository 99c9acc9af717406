import itertools
import math
import types
from collections import Counter

import numpy as np
import pytest

from helpers import block_sum, count_calls, rand_nonsingular, rand_unimodular, seeded
from qsimp import chain, intmat, lattice, poly, simplicity
from qsimp.chain import DENSE, NOT_DENSE, decide_density
from qsimp.errors import DimensionMismatch, SingularMatrix
from qsimp.intmat import IntMatrix
from qsimp.simplicity import (
    NOT_SIMPLE,
    SIMPLE,
    UNKNOWN,
    check_hypotheses,
    decide,
    is_dilation,
    normalize,
)


def m1(x):
    return IntMatrix([[x]])


def test_check_hypotheses_examples():
    h = check_hypotheses(IntMatrix.diagonal([2, 3]), IntMatrix.identity(2))
    assert (h.ker_f_size, h.ker_g_size) == (6, 1)
    assert not h.both_automorphisms
    h = check_hypotheses(IntMatrix.identity(2), IntMatrix.identity(2))
    assert h.both_automorphisms
    h = check_hypotheses(IntMatrix([[0, 1], [1, 0]]), IntMatrix.diagonal([2, 1]))
    assert (h.ker_f_size, h.ker_g_size) == (1, 2)


def test_check_hypotheses_zero_det_reported():
    h = check_hypotheses(IntMatrix([[0]]), IntMatrix([[2]]))
    assert h.det_f == 0 and h.ker_f_size is None and h.condition_L is None
    # F is not onto, G is onto; neither is injective
    assert h.det_f == 0 and h.det_g != 0
    assert abs(h.det_f) != 1 and abs(h.det_g) != 1


def test_condition_L():
    assert check_hypotheses(m1(2), m1(3)).condition_L is True
    assert check_hypotheses(m1(2), m1(1)).condition_L is True
    assert check_hypotheses(m1(-1), m1(6)).condition_L is True
    assert check_hypotheses(m1(1), m1(-1)).condition_L is None
    assert check_hypotheses(m1(0), m1(1)).condition_L is None
    assert check_hypotheses(m1(2), m1(0)).condition_L is None


def test_is_dilation_examples():
    assert is_dilation(IntMatrix.diagonal([2, 3]))
    assert not is_dilation(IntMatrix.identity(2))
    assert is_dilation(IntMatrix([[2, 1], [0, 2]]))


def test_is_dilation_boundary_cases():
    assert not is_dilation(IntMatrix([[0, 1], [1, 0]]))  # eigenvalues +-1
    assert not is_dilation(IntMatrix([[0, 1], [-1, 0]]))  # +-i on the circle
    assert is_dilation(IntMatrix([[1, 1], [-1, 1]]))  # 1 +- i
    assert is_dilation(IntMatrix([[0, 2], [1, 0]]))  # +-sqrt(2)
    assert not is_dilation(IntMatrix([[0, 1], [1, 1]]))  # golden ratio pair
    assert not is_dilation(IntMatrix([[0]]))
    assert not is_dilation(IntMatrix([[2, 4], [1, 2]]))  # singular: eigenvalue 0


def test_is_dilation_against_numpy_eigenvalues():
    rng = seeded(53)
    checked = 0
    while checked < 300:
        d = rng.randint(1, 4)
        m = rand_nonsingular(rng, d, -5, 5)
        moduli = np.abs(np.linalg.eigvals(np.array(m.rows, dtype=float)))
        # skip near-circle cases the float oracle cannot referee
        if np.any(np.abs(moduli - 1.0) < 1e-6):
            continue
        checked += 1
        assert is_dilation(m) == bool(np.all(moduli > 1.0))


def _schur_undivided(c):
    """The Schur-Cohn recursion with no content removal: the reference
    answer, whose coefficients double in bit length at every step."""
    n = len(c) - 1
    while n > 0:
        b0, bn = c[0], c[n]
        if abs(b0) >= abs(bn):
            return False
        c = [bn * c[i + 1] - b0 * c[n - 1 - i] for i in range(n)]
        n -= 1
    return True


# cyclotomic polynomials, low coefficients first: every root on the circle
CYCLOTOMIC = [[-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, 1, 1, 1, 1], [1, -1, 1],
              [1, 0, 0, 0, 1], [1, 0, -1, 0, 1]]


def _known_moduli_factor(rng, degree, inside):
    """A linear factor b + a z, whose root has modulus |b| / a, or a
    quadratic c + b z + a z^2 with b^2 < 4ac, whose two roots have modulus
    sqrt(c / a); every root inside the unit circle, or every root on or
    outside it."""
    a = rng.randint(2, 5)
    c = rng.randint(1, a - 1) if inside else rng.randint(a, a + 3)
    if degree == 1:
        return [rng.choice((-1, 1)) * c, a]
    return [c, rng.choice((-1, 1)) * rng.randint(0, math.isqrt(4 * a * c - 1)), a]


def _product(rng, degree, outside=0):
    """A product of degree `degree` of known-moduli factors, the first
    `outside` of them with their roots on or outside the unit circle."""
    p = [1]
    while len(p) - 1 < degree:
        k = 1 if len(p) == degree or rng.random() < 0.5 else 2
        p = poly._mul(p, _known_moduli_factor(rng, k, inside=outside <= 0))
        outside -= 1
    return p


def test_schur_stable_matches_the_undivided_recursion():
    # content removal divides by a positive integer, which moves no root:
    # the answer equals that of the undivided recursion, cheap for d <= 12.
    # A dilation's reversed characteristic polynomial times a cyclotomic
    # factor has roots on the circle and answers False
    rng = seeded(181)
    answers = Counter()
    for d in range(1, 13):
        for _ in range(30):
            c = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
            got = simplicity._schur_stable(c)
            answers[got] += 1
            assert got == _schur_undivided(c), c
        for _ in range(6):
            c = _product(rng, d)
            assert simplicity._schur_stable(c) is _schur_undivided(c) is True, c
            for cyc in CYCLOTOMIC:
                if len(c) + len(cyc) - 2 <= 12:
                    cc = poly._mul(c, cyc)
                    assert simplicity._schur_stable(cc) is _schur_undivided(cc) is False, cc
        # 3 I and a triangular dilation conjugated by a unimodular W, alone
        # and as block sums with a companion matrix of x^2 + x + 1
        for f in (IntMatrix.scalar(d, 3), _conjugated_dilation(rng, d)):
            assert is_dilation(f)
            c = intmat.charpoly(f)
            assert simplicity._schur_stable(c) is _schur_undivided(c) is True
            if d <= 10:
                rotation = IntMatrix([[0, -1], [1, -1]])
                assert not is_dilation(block_sum(f, rotation))
    assert answers[True] >= 20 and answers[False] >= 200, answers


def _conjugated_dilation(rng, d):
    """W T W^-1 for an upper triangular T with diagonal in +-{2, 3} and a
    unimodular W: every eigenvalue has modulus 2 or 3."""
    t = IntMatrix([[rng.choice((-3, -2, 2, 3)) if i == j else rng.randint(-2, 2) * (j > i)
                    for j in range(d)] for i in range(d)])
    w = rand_unimodular(rng, d, steps=2 * d)
    return w @ t @ intmat.unimodular_inverse(w)


def test_schur_stable_coefficients_grow_at_most_d_times_the_input_bits(monkeypatch):
    # every step passes its new polynomial to math.gcd before dividing, so
    # a recording gcd sees each intermediate polynomial and the kept one.
    # At d = 12 and 32, on 3 I and on conjugated triangular dilations, no kept
    # coefficient has more than d times the input's bits and no
    # intermediate one more than 2 d times (measured: at most about 23 and
    # 46 times); the undivided recursion reaches about 2^32 times
    steps, peaks = Counter(), Counter()

    def recording_gcd(*c):
        g = math.gcd(*c)
        steps["all"] += 1
        peaks["intermediate"] = max(peaks["intermediate"], *(x.bit_length() for x in c))
        peaks["kept"] = max(peaks["kept"], *((x // g).bit_length() for x in c))
        return g

    monkeypatch.setattr(simplicity, "math", types.SimpleNamespace(gcd=recording_gcd))
    rng = seeded(193)
    # d = 12 first, where the undivided recursion still ends in milliseconds,
    # so a recursion that skips the division fails here instead of stalling
    for d in (12, 32):
        for f in (IntMatrix.scalar(d, 3), *(_conjugated_dilation(rng, d) for _ in range(4))):
            steps.clear(), peaks.clear()
            c = intmat.charpoly(f)
            bits = max(abs(x).bit_length() for x in c)
            assert simplicity._schur_stable(c)
            assert steps["all"] == d
            assert peaks["kept"] <= d * bits and peaks["intermediate"] <= 2 * d * bits, (bits, peaks)
    # decide of 3 I_24 against I_24, about an hour undivided by the
    # tenfold growth per 2 added to d measured up to d = 20
    v = decide(IntMatrix.scalar(24, 3), IntMatrix.identity(24))
    assert v.rules_fired[0][0] == "R3-dilation" and v.hypotheses.det_f == 3**24


def test_schur_stable_on_products_with_known_root_moduli():
    # up to d = 64, where the undivided recursion would need about 2^64
    # times the input's bits: the answer is True exactly when no factor has
    # a root on or outside the unit circle
    rng = seeded(191)
    for d in (8, 16, 24, 32, 48, 64):
        for outside in (0, 0, 1, 2) if d < 48 else (0, 1):
            c = _product(rng, d, outside)
            assert len(c) == d + 1
            assert simplicity._schur_stable(c) is (outside == 0), (d, outside)
            # reversing the coefficients inverts every root, to outside
            if outside == 0:
                assert not simplicity._schur_stable(c[::-1])


def test_triangular_criterion():
    avoids = simplicity._triangular_avoids
    assert avoids(2, IntMatrix.diagonal([3, 5]))
    assert not avoids(2, IntMatrix([[2, 7], [0, 3]]))
    assert avoids(3, IntMatrix([[2, 1], [0, 4]]))
    assert not avoids(2, IntMatrix([[-2, 0], [1, 3]]))
    # R4 applies to triangular matrices only
    assert not avoids(2, IntMatrix([[1, 2], [3, 4]]))


def test_reduce_examples():
    # (F H, G H) and (H F, H G) for a nonsingular H keep the verdict
    f, g = m1(2), m1(3)
    for h in (IntMatrix.identity(1), m1(5), m1(7)):
        for fa, ga in ((f @ h, g @ h), (h @ f, h @ g)):
            assert decide(fa, ga).status == decide(f, g).status
    assert (f @ m1(5), g @ m1(5)) == (m1(10), m1(15))


def test_reduce_by_adjugate_matches_normal_form():
    rng = seeded(59)
    from qsimp.intmat import det_adjugate

    for _ in range(20):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -3, 3)
        dt, adj = det_adjugate(f)
        # the right and the left reduction by adj(F) both make F scalar
        assert f @ adj == IntMatrix.scalar(d, dt)
        assert adj @ f == IntMatrix.scalar(d, dt)


def test_normalize_examples():
    n, t, _ = normalize(m1(2), m1(3))
    assert (n, t) == (2, m1(3))
    n, t, _ = normalize(IntMatrix.diagonal([2, 2]), IntMatrix.identity(2))
    assert n == 4
    assert t == IntMatrix.diagonal([2, 2])
    f = IntMatrix([[1, 1], [0, 1]])
    g = IntMatrix([[3, 1], [1, 2]])
    n, t, _ = normalize(f, g)
    assert n == 1
    from qsimp.intmat import det_adjugate, snf, unimodular_inverse

    p, dd, q = snf(det_adjugate(f)[1] @ g)
    assert t == dd @ unimodular_inverse(q) @ unimodular_inverse(p)


def test_normalize_rejects_pairs_out_of_scope():
    with pytest.raises(DimensionMismatch):
        normalize(m1(2), IntMatrix.identity(2))
    with pytest.raises(SingularMatrix):
        normalize(m1(0), m1(3))


def test_r5_decide_runs_one_bareiss_det_and_one_adjugate_pass_per_matrix(monkeypatch):
    calls = Counter()
    for module in (simplicity, chain, lattice, intmat):
        for name in ("det", "adjugate", "det_adjugate"):
            if hasattr(module, name):
                def counted(m, orig=getattr(module, name), name=name):
                    calls[name, m] += 1
                    return orig(m)

                monkeypatch.setattr(module, name, counted)
    f, g = IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]])
    v = decide(f, g)
    assert v.rules_fired[-1][0] == "R5-density"
    # check_hypotheses runs Bareiss; the density decision reads G's det and
    # adjugate from one fraction-free Gauss-Jordan pass, and a Dense pair
    # needs none of F's
    assert calls == {("det", f): 1, ("det", g): 1, ("det_adjugate", g): 1}


def test_r5_decide_calls_no_snf_inverse_or_normalize(monkeypatch):
    calls = {
        name: count_calls(monkeypatch, (intmat, simplicity), name)
        for name in ("snf", "unimodular_inverse", "normalize")
    }
    v = decide(IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]]))
    assert [rule for rule, _ in v.rules_fired] == ["R5-density"]
    assert not any(calls.values())


def test_r5_decide_makes_no_hnf(monkeypatch):
    calls = count_calls(monkeypatch, (simplicity, chain, lattice), "hnf_rows")
    # the package's own folds call the kernel directly
    kernel = count_calls(monkeypatch, (chain, lattice), "_hnf_fold")
    v = decide(IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]]))
    assert v.rules_fired[-1][0] == "R5-density"
    # HNF folds build chain levels, which R5 never builds
    assert not calls and not kernel


def test_triangular_normal_forms_answer_simple_through_r5():
    # pairs whose normalized partner passes the triangular test; with
    # neither matrix unimodular or scalar no closed form applies, so R5
    # alone must find them simple
    rng = seeded(83)
    found = 0
    for _ in range(1500):
        f = rand_nonsingular(rng, 2, -2, 2)
        g = rand_nonsingular(rng, 2, -2, 2)
        if any(abs(intmat.det(m)) == 1 or m.scalar_value() is not None for m in (f, g)):
            continue
        n, t, _ = normalize(f, g)
        if not simplicity._triangular_avoids(n, t):
            continue
        found += 1
        v = decide(f, g)
        assert v.status == SIMPLE
        assert [rule for rule, _ in v.rules_fired] == ["R5-density"]
    assert found >= 20


def test_decide_examples():
    v = decide(m1(2), m1(3))
    assert v.status == SIMPLE
    assert v.kirchberg_flag
    v = decide(IntMatrix.identity(2), IntMatrix.identity(2))
    assert v.status == NOT_SIMPLE
    assert v.rules_fired[0][0] == "R1-automorphisms"
    assert not v.kirchberg_flag
    v = decide(IntMatrix.diagonal([2, 2]), IntMatrix.identity(2))
    assert v.status == SIMPLE
    assert any(r[0] == "R3-dilation" for r in v.rules_fired)


def test_decide_triangular_swapped_orientation():
    # scalar matrix on the right; the symmetric pair obeys the same test
    v = decide(IntMatrix([[3, 1], [0, 5]]), IntMatrix.scalar(2, 2))
    assert v.status == SIMPLE
    assert v.rules_fired[-1][0] == "R4-triangular"


def _r4_holds(a, b):
    """R4's predicate on (A, B): A = n I and B triangular with no diagonal
    entry of modulus n."""
    n = a.scalar_value()
    return n is not None and simplicity._triangular_avoids(abs(n), b)


def _r3_covers_r4(a, b):
    """For a nonsingular pair with one unimodular matrix on which R4 holds:
    whether R3 holds with the unimodular matrix as B."""
    unimodular, other = (a, b) if abs(intmat.det(a)) == 1 else (b, a)
    assert abs(intmat.det(other)) != 1
    return is_dilation(other @ intmat.unimodular_inverse(unimodular))


def test_r3_fires_wherever_r4_holds_on_a_unimodular_pair():
    # R4 needs a scalar A, so this covers every pair with entries in
    # [-3, 3] on which it holds in either orientation, for d = 1 and 2
    covered = Counter()
    for d in (1, 2):
        for n in range(-3, 4):
            a = IntMatrix.scalar(d, n)
            for entries in itertools.product(range(-3, 4), repeat=d * d):
                b = IntMatrix([list(entries[i * d:(i + 1) * d]) for i in range(d)])
                dets = abs(n**d), abs(intmat.det(b))
                if 0 in dets or (dets[0] == 1) == (dets[1] == 1) or not _r4_holds(a, b):
                    continue
                assert _r3_covers_r4(a, b), (a, b)
                covered[d, "A" if dets[0] == 1 else "B"] += 1
    assert set(covered) == {(d, side) for d in (1, 2) for side in "AB"}
    # seeded d = 3, 4 pairs: A = +-I against a triangular B, and A = n I
    # against a triangular B with diagonal +-1
    rng = seeded(89)
    for _ in range(200):
        d = rng.randint(3, 4)
        unit = rng.random() < 0.5
        n = rng.choice((-1, 1)) if unit else rng.choice((-3, -2, 2, 3))
        diagonal = ([rng.choice([x for x in range(-4, 5) if abs(x) > 1]) for _ in range(d)]
                    if unit else [rng.choice((-1, 1)) for _ in range(d)])
        rows = [[diagonal[i] if i == j else rng.randint(-3, 3) * (j > i) for j in range(d)]
                for i in range(d)]
        b = IntMatrix(rows) if rng.random() < 0.5 else IntMatrix(rows).transpose()
        a = IntMatrix.scalar(d, n)
        assert _r4_holds(a, b) and _r3_covers_r4(a, b), (a, b)
        for f, g in ((a, b), (b, a)):
            assert [rule for rule, _ in decide(f, g).rules_fired] == ["R3-dilation"]


def test_unimodular_pair_ending_in_r5_tries_no_r4(monkeypatch):
    # with one unimodular matrix only R3 is tried; R4 reads no scalar
    scalars = count_calls(monkeypatch, (simplicity,), "_scalar_of")
    v = decide(IntMatrix.identity(2), IntMatrix([[0, -2], [1, 4]]))
    assert [rule for rule, _ in v.rules_fired] == ["R5-density"]
    assert v.status == SIMPLE and not scalars
    # a pair with no unimodular matrix tries R4 on both orientations
    v = decide(IntMatrix.scalar(2, 2), IntMatrix([[0, -2], [1, 4]]))
    assert v.rules_fired[0][0] == "R5-density" and scalars == {"qsimp.simplicity": 2}


def test_decide_zero_det_unknown():
    v = decide(IntMatrix([[0]]), m1(2))
    assert v.status == UNKNOWN
    assert v.rules_fired[0][0] == "R0-scope"


def test_decide_not_simple_attaches_witness():
    v = decide(m1(2), m1(2))
    assert v.status == NOT_SIMPLE
    assert v.witness == (2,)
    assert v.density is not None and v.density.status == NOT_DENSE


def test_simple_implies_condition_L_or_fast_path():
    rng = seeded(61)
    for _ in range(25):
        d = rng.randint(1, 2)
        f = rand_nonsingular(rng, d, -3, 3)
        g = rand_nonsingular(rng, d, -3, 3)
        v = decide(f, g)
        if v.status == SIMPLE:
            assert v.hypotheses.condition_L is True
            assert v.kirchberg_flag == (
                abs(v.hypotheses.det_f) != 1 or abs(v.hypotheses.det_g) != 1
            )


def test_symmetry_of_decide():
    rng = seeded(67)
    for _ in range(20):
        d = rng.randint(1, 2)
        f = rand_nonsingular(rng, d, -3, 3)
        g = rand_nonsingular(rng, d, -3, 3)
        a = decide(f, g).status
        b = decide(g, f).status
        if UNKNOWN not in (a, b):
            assert a == b


def test_triangular_vs_chain_no_contradiction():
    rng = seeded(71)
    for n in (2, 3):
        for _ in range(10):
            diag = [rng.choice([x for x in range(-5, 6) if x and abs(x) != n]) for _ in range(2)]
            g = IntMatrix([[diag[0], rng.randint(-5, 5)], [0, diag[1]]])
            assert simplicity._triangular_avoids(n, g)
            v = decide(IntMatrix.scalar(2, n), g)
            assert v.status == SIMPLE
            dv = decide_density(IntMatrix.scalar(2, n), g)
            assert dv.status != NOT_DENSE


def test_unimodular_pairs_not_simple():
    rng = seeded(73)
    for _ in range(20):
        d = rng.randint(1, 3)
        f = rand_unimodular(rng, d)
        g = rand_unimodular(rng, d)
        assert decide(f, g).status == NOT_SIMPLE


def test_reduction_invariance_smoke():
    rng = seeded(79)
    for _ in range(15):
        d = rng.randint(1, 2)
        f = rand_nonsingular(rng, d, -3, 3)
        g = rand_nonsingular(rng, d, -3, 3)
        h = rand_nonsingular(rng, d, -3, 3)
        base = decide(f, g).status
        for fa, ga in ((f @ h, g @ h), (h @ f, h @ g)):
            other = decide(fa, ga).status
            if UNKNOWN not in (base, other):
                assert base == other
        n, t, _ = normalize(f, g)
        norm_status = decide(IntMatrix.scalar(d, n), t).status
        if UNKNOWN not in (base, norm_status):
            assert base == norm_status
