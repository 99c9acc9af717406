import math
from fractions import Fraction

import pytest

from qsimp.errors import SingularMatrix
from qsimp.finite_oracle import (
    FiniteQuiver,
    condition_L_finite,
    density_1d,
    gamma0_finite,
    minimal_finite,
    saturated_hereditary_subsets,
    verify_minimality_theorem,
)


def test_edges_match_definition():
    q = FiniteQuiver(4, 1, 2)
    assert set(q.edges()) == {
        (x, y) for x in range(4) for y in range(4) if (y - 2 * x) % 4 == 0
    }


def test_condition_L_examples():
    assert condition_L_finite(FiniteQuiver(1, 1, 1)) is False
    assert condition_L_finite(FiniteQuiver(4, 1, 2)) is True
    assert condition_L_finite(FiniteQuiver(5, 2, 2)) is False


def test_condition_L_matches_kernel_triviality():
    # on finite cyclic groups, some loop is exit-free exactly when the
    # second map is a bijection
    for m in range(1, 13):
        for a in range(m):
            for b in range(m):
                got = condition_L_finite(FiniteQuiver(m, a, b))
                assert got == (math.gcd(b, m) != 1)


def test_minimal_finite_examples():
    # closure of {1} under the definitional iteration stays {1} here: the
    # vertex 1 has no outgoing targets and nothing saturates into it
    assert minimal_finite(FiniteQuiver(4, 1, 2)) is False
    assert minimal_finite(FiniteQuiver(5, 1, 1)) is False
    assert minimal_finite(FiniteQuiver(2, 1, 1)) is False
    assert minimal_finite(FiniteQuiver(1, 1, 1)) is True


def test_gamma0_examples():
    assert gamma0_finite(FiniteQuiver(4, 1, 2)) == frozenset(range(4))
    assert gamma0_finite(FiniteQuiver(5, 2, 2)) == frozenset([0])
    q = FiniteQuiver(6, 2, 3)
    assert not q.is_surjective
    assert gamma0_finite(q) == frozenset(range(6))


def test_gamma0_is_subgroup():
    for m in range(1, 10):
        for a in range(m):
            for b in range(m):
                sub = gamma0_finite(FiniteQuiver(m, a, b))
                assert 0 in sub
                assert all((x + y) % m in sub for x in sub for y in sub)


def test_verify_minimality_theorem_small():
    report = verify_minimality_theorem(12)
    assert report.counterexamples == []
    assert report.pairs_checked == sum(
        max(len([x for x in range(m) if math.gcd(x, m) == 1]), 0) ** 2
        for m in range(1, 13)
    )
    assert "finite-group" in report.note


def test_verify_minimality_theorem_m1_vacuous():
    report = verify_minimality_theorem(1)
    assert report.pairs_checked == 1
    assert report.counterexamples == []


def test_crit1_subset_equivalence():
    # definitional saturated-hereditary sets equal the fixed sets of both
    # composite maps, exhaustively over all subsets
    for m in range(1, 9):
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for a in units:
            for b in units:
                q = FiniteQuiver(m, a, b)
                definitional = set(saturated_hereditary_subsets(q))
                formula = set()
                for mask in range(1 << m):
                    u = frozenset(i for i in range(m) if mask >> i & 1)
                    alpha_pre_beta = frozenset(
                        x for x in range(m) if (a * x) % m in {(b * y) % m for y in u}
                    )
                    beta_pre_alpha = frozenset(
                        x for x in range(m) if (b * x) % m in {(a * y) % m for y in u}
                    )
                    if alpha_pre_beta == u and beta_pre_alpha == u:
                        formula.add(u)
                assert definitional == formula


def test_saturated_hereditary_kernel_stability():
    for m in range(1, 9):
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for a in units:
            for b in units:
                q = FiniteQuiver(m, a, b)
                ker_a = {x for x in range(m) if (a * x) % m == 0}
                ker_b = {x for x in range(m) if (b * x) % m == 0}
                for u in saturated_hereditary_subsets(q):
                    assert {(k + x) % m for k in ker_a for x in u} == set(u)
                    assert {(k + x) % m for k in ker_b for x in u} == set(u)


def test_density_1d_examples():
    r = density_1d(2, 3, 4, Fraction(1, 50))
    assert r.status == "dense_at_resolution"
    assert r.gap <= Fraction(1, 81)
    r = density_1d(2, 2, 6, Fraction(1, 1000))
    assert r.status == "not_dense"
    assert r.subgroup_order == 2
    r = density_1d(1, 1, 3, Fraction(1, 1000))
    assert r.status == "not_dense"
    assert r.subgroup_order == 1


def test_density_1d_gap_value():
    # shallow depth: group is the sixth roots grid, gap exactly 1/6
    r = density_1d(2, 3, 1, Fraction(1, 1000))
    assert r.status == "gap"
    assert r.gap == Fraction(1, 6)


def test_density_1d_rejects_zero():
    with pytest.raises(SingularMatrix):
        density_1d(0, 2, 3, Fraction(1, 10))
