from collections import Counter

import numpy as np
import pytest

from helpers import count_calls, rand_nonsingular, rand_unimodular, seeded
from qsimp import chain, intmat, lattice, simplicity
from qsimp.chain import DENSE, NOT_DENSE, decide_density
from qsimp.errors import DimensionMismatch, NotTriangular, SingularMatrix
from qsimp.intmat import IntMatrix
from qsimp.simplicity import (
    NOT_SIMPLE,
    SIMPLE,
    UNKNOWN,
    check_hypotheses,
    decide,
    is_dilation,
    normalize,
    triangular_criterion,
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


def test_triangular_criterion():
    assert triangular_criterion(2, IntMatrix.diagonal([3, 5]))
    assert not triangular_criterion(2, IntMatrix([[2, 7], [0, 3]]))
    assert triangular_criterion(3, IntMatrix([[2, 1], [0, 4]]))
    with pytest.raises(NotTriangular):
        triangular_criterion(2, IntMatrix([[1, 2], [3, 4]]))


def test_reduce_examples():
    # (F H, G H) and (H F, H G) for a nonsingular H keep the verdict
    f, g = m1(2), m1(3)
    for h in (IntMatrix.identity(1), m1(5), m1(7)):
        for fa, ga in ((f @ h, g @ h), (h @ f, h @ g)):
            assert decide(fa, ga).status == decide(f, g).status
    assert (f @ m1(5), g @ m1(5)) == (m1(10), m1(15))


def test_reduce_by_adjugate_matches_normal_form():
    rng = seeded(59)
    from qsimp.intmat import adjugate, det

    for _ in range(20):
        d = rng.randint(1, 3)
        f = rand_nonsingular(rng, d, -3, 3)
        # the right and the left reduction by adj(F) both make F scalar
        assert f @ adjugate(f) == IntMatrix.scalar(d, det(f))
        assert adjugate(f) @ f == IntMatrix.scalar(d, det(f))


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
    from qsimp.intmat import adjugate, snf, unimodular_inverse

    p, dd, q = snf(adjugate(f) @ g)
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
    # check_hypotheses runs Bareiss; the chain's per-pair data reads det and
    # adjugate from one Faddeev-LeVerrier pass
    assert calls == {
        (name, m): 1 for name in ("det", "det_adjugate") for m in (f, g)
    }


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
    v = decide(IntMatrix([[-4, 0], [0, 1]]), IntMatrix([[1, 2], [3, -4]]))
    assert v.rules_fired[-1][0] == "R5-density"
    # HNF folds build chain levels, which R5 never builds
    assert not calls


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
        if not (t.is_upper_triangular() or t.is_lower_triangular()):
            continue
        if not triangular_criterion(n, t):
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
            assert triangular_criterion(n, g)
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
