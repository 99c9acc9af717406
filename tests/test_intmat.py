import copy
import itertools
import math
import pickle
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    adj_oracle,
    count_calls,
    det_oracle,
    rand_matrix,
    rand_nonsingular,
    rand_unimodular,
    seeded,
)
from qsimp import intmat
from qsimp.errors import SingularMatrix
from qsimp.intmat import (
    IntMatrix,
    adjugate,
    charpoly,
    det,
    det_adjugate,
    evaluate,
    hnf_rows,
    snf,
    unimodular_inverse,
)
from qsimp.lattice import IntegerSublattice, sublattice_transform

I2 = IntMatrix.identity(2)
I3 = IntMatrix.identity(3)


def small_matrices(max_dim=4, lo=-9, hi=9):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(lo, hi), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).map(IntMatrix)
    )


def test_det_examples():
    assert det(I2) == 1
    assert det(IntMatrix.diagonal([2, 3])) == 6
    # frozen from the cofactor oracle: 2*3 - 1*0 = 6
    assert det_oracle([[2, 1], [0, 3]]) == 6
    assert det(IntMatrix([[2, 1], [0, 3]])) == 6


@given(small_matrices(max_dim=5))
@settings(max_examples=150, deadline=None)
def test_det_matches_cofactor_oracle(m):
    assert det(m) == det_oracle([list(r) for r in m.rows])


def test_adjugate_examples():
    assert adjugate(I3) == I3
    assert adjugate(IntMatrix([[1, 2], [3, 4]])) == IntMatrix([[4, -2], [-3, 1]])
    adj = adjugate(IntMatrix.diagonal([2, 3]))
    assert adj == IntMatrix.diagonal([3, 2])
    assert IntMatrix.diagonal([2, 3]) @ adj == IntMatrix.scalar(2, 6)


@given(small_matrices(max_dim=6))
@settings(max_examples=150, deadline=None)
def test_adjugate_identity(m):
    assert m @ adjugate(m) == IntMatrix.scalar(m.dim, det(m))


def test_det_adjugate_matches_cofactor_oracle_by_rank():
    rng = seeded(23)
    ranks = Counter()
    for _ in range(240):
        d = rng.randint(1, 6)
        # a d x r times r x d product has rank at most r
        r = rng.choice([d, d, max(d - 1, 0), max(d - 2, 0), rng.randint(0, d)])
        left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(d)]
        right = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(r)]
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                for row in left] if r else [[0] * d for _ in range(d)]
        m = IntMatrix(rows)
        dt, adj = det_adjugate(m)
        assert dt == det_oracle(rows)
        # the pass stops at a singular m; adjugate goes on by Cayley-Hamilton
        assert (adj is None) == (dt == 0)
        if adj is not None:
            assert [list(row) for row in adj.rows] == adj_oracle(rows)
        adj = adjugate(m)
        assert [list(row) for row in adj.rows] == adj_oracle(rows)
        # adj(m) is 0 exactly when the rank is at most d - 2
        rank = "d" if dt else ("d-1" if any(map(any, adj.rows)) else "<=d-2")
        ranks[rank] += 1
    assert min(ranks.values()) >= 30 and len(ranks) == 3


def test_adjugate_needs_charpoly_only_when_singular(monkeypatch):
    charpolys = count_calls(monkeypatch, (intmat,), "charpoly")
    evaluations = count_calls(monkeypatch, (intmat,), "evaluate")
    regular = IntMatrix([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
    singular = IntMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det_adjugate(regular)[0] == 7
    assert adjugate(regular) == det_adjugate(regular)[1]
    # det_adjugate stops at the missing pivot and builds no adjugate
    assert det_adjugate(singular) == (0, None)
    assert not charpolys and not evaluations
    assert adjugate(singular) == IntMatrix([[-2, 1, 0], [-2, 1, 0], [2, -1, 0]])
    assert charpolys == evaluations == {"qsimp.intmat": 1}
    # det is 0 exactly when det_adjugate answers (0, None), at every rank
    rng = seeded(37)
    for _ in range(60):
        d = rng.randint(1, 5)
        m = rand_matrix(rng, d, -2, 2)
        dt, adj = det_adjugate(m)
        assert dt == det(m) and (adj is None) == (dt == 0)
    assert charpolys == evaluations == {"qsimp.intmat": 1}


def test_charpoly_matrix_products(monkeypatch):
    # every matrix product in intmat, `@` included, is one _product call;
    # Berkowitz's recurrence makes matrix-vector products only
    products = count_calls(monkeypatch, (intmat,), "_product")
    rng = seeded(29)
    for d in (1, 2, 3, 4, 8, 16, 32):
        m = rand_matrix(rng, d, -3, 3)
        products.clear()
        c = charpoly(m)
        assert not products
        # Cayley-Hamilton, and the trace and the determinant as c_1 and c_d
        assert evaluate(c, m) == IntMatrix.scalar(d, 0)
        assert c[1] == -sum(m.rows[i][i] for i in range(d))
        assert c[-1] == (-1) ** d * det(m)


def _horner_from_scalar(p, m):
    """p(m) by Horner's rule from the scalar matrix p_0 I, one product per
    later coefficient."""
    acc = IntMatrix.scalar(m.dim, p[0])
    for coeff in p[1:]:
        acc = IntMatrix([[x + coeff * (i == j) for j, x in enumerate(row)]
                         for i, row in enumerate((acc @ m).rows)])
    return acc


def test_evaluate_matches_horner_from_the_scalar_matrix():
    rng = seeded(31)
    for d in (1, 2, 3, 4):
        for k in range(6):  # degrees 0 to 5
            for _ in range(8):
                m = rand_matrix(rng, d, -5, 5)
                # leading coefficients other than 1 included
                p = [rng.choice([-3, -1, 1, 2, 5])] + [rng.randint(-9, 9) for _ in range(k)]
                assert evaluate(p, m) == _horner_from_scalar(p, m), (p, m)
    m = IntMatrix([[2, -1], [3, 4]])
    assert evaluate([7], m) == IntMatrix.scalar(2, 7)
    assert evaluate([-2, 5], m) == IntMatrix([[1, 2], [-6, -3]])
    # adjugate's singular route evaluates (-1)^(d-1) times charpoly
    # without its constant term, so with a leading -1 at even d; m is a
    # rank-one matrix, singular for d >= 2
    for d in (1, 2, 3, 4):
        m = IntMatrix([[(i + 1) * (j - 2) for j in range(d)] for i in range(d)])
        p = [(-1) ** (d - 1) * c for c in charpoly(m)[:-1]]
        assert evaluate(p, m) == _horner_from_scalar(p, m)
        if d > 1:
            assert det_adjugate(m) == (0, None)
            assert adjugate(m) == evaluate(p, m)


def hnf(m):
    """Row HNF of a nonsingular square matrix; |det m| * Z^d lies in its
    row lattice."""
    return hnf_rows(m.rows, m.dim, abs(det(m)))


def test_hnf_examples():
    assert hnf(I3) == I3
    assert hnf(IntMatrix([[0, 1], [1, 0]])) == I2
    h = hnf(IntMatrix([[2, 0], [1, 1]]))
    assert h == IntMatrix([[1, 1], [0, 2]])
    assert abs(det(h)) == 2


def test_hnf_singular_rejected():
    with pytest.raises(SingularMatrix):
        sublattice_transform(IntegerSublattice(2, I2), IntMatrix([[1, 0], [2, 0]]))
    # span(rows) + modulus * Z^d is full rank only for a positive modulus
    for modulus in (0, -3):
        with pytest.raises(ValueError):
            hnf_rows([[1, 0], [0, 1]], 2, modulus)
    # the result is built without the public constructor's checks
    with pytest.raises(ValueError):
        hnf_rows([], 0, 1)


def _assert_hnf_shape(h):
    d = h.dim
    for i in range(d):
        assert h.rows[i][i] > 0
        for j in range(i):
            assert h.rows[i][j] == 0
        for r in range(i):
            assert 0 <= h.rows[r][i] < h.rows[i][i]


def test_hnf_idempotent_and_canonical():
    rng = seeded(7)
    for _ in range(60):
        d = rng.randint(1, 4)
        m = rand_nonsingular(rng, d, -6, 6)
        h = hnf(m)
        _assert_hnf_shape(h)
        assert abs(det(h)) == abs(det(m))
        # idempotence: an HNF matrix is its own HNF
        assert hnf(h) == h
        # canonicality: unimodular row mixing leaves the HNF unchanged
        w = rand_unimodular(rng, d)
        assert hnf(w @ m) == h


def _minor_gcd(rows, d):
    """gcd of all d x d minors of a row stack: the index of its row lattice
    in Z^d, or 0 when the stack is not full rank."""
    g = 0
    for pick in itertools.combinations(rows, d):
        g = math.gcd(g, det_oracle([list(r) for r in pick]))
    return g


def _solves_upper(h, v):
    """v is an integer combination of the rows of the upper-triangular h."""
    v = list(v)
    for i, row in enumerate(h.rows):
        if v[i] % row[i]:
            return False
        q = v[i] // row[i]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def test_hnf_rows_modular_matches_minor_oracle():
    rng = seeded(19)
    for _ in range(150):
        d = rng.randint(1, 4)
        rows = [[rng.randint(-7, 7) for _ in range(d)] for _ in range(rng.randint(1, 2 * d))]
        index = _minor_gcd(rows, d)
        if index:
            # a multiple of the index: the result is the HNF of span(rows)
            modulus = index * rng.randint(1, 3)
        else:
            modulus = rng.randint(1, 60)
        scaled = [[modulus * (i == j) for j in range(d)] for i in range(d)]
        h = hnf_rows(rows, d, modulus)
        _assert_hnf_shape(h)
        for v in rows + scaled:
            assert _solves_upper(h, v)
        assert det(h) == _minor_gcd(rows + scaled, d)
        if index:
            assert det(h) == index


def test_hnf_rows_folds_into_a_starting_basis():
    rng = seeded(23)
    for _ in range(200):
        d = rng.randint(1, 4)
        modulus = rng.choice([2, 3, 4, 6, 8, 12, 30]) * rng.randint(1, 6)
        seed_rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(rng.randint(0, d))]
        # an HNF with modulus * Z^d inside its span
        t = hnf_rows(seed_rows, d, modulus).rows
        p = t[0][0]
        tail = lambda: [rng.randint(-20, 20) for _ in range(d - 1)]
        # first column: the pivot divides the first row's entry, the second
        # row's entry divides the pivot, later rows go through the gcd step
        rows = [[p * rng.randint(1, 5)] + tail(),
                [rng.choice([x for x in range(1, p + 1) if p % x == 0])] + tail()]
        rows += [[rng.randint(-30, 30) for _ in range(d)] for _ in range(rng.randint(0, 3))]
        rng.shuffle(rows[2:])
        folded = intmat._hnf_fold([[x % modulus for x in row] for row in rows], d, modulus, t)
        _assert_hnf_shape(folded)
        assert folded == hnf_rows(t + tuple(map(tuple, rows)), d, modulus)


def test_hnf_rows_fold_shortcuts_skip_the_gcd_step(monkeypatch):
    def no_xgcd(a, b):
        raise AssertionError("extended gcd reached")

    monkeypatch.setattr(intmat, "_xgcd", no_xgcd)
    # pivot 4 divides 8; then 2 divides the pivot 4 and replaces it
    assert intmat._hnf_fold([[8], [2]], 1, 12, [[4]]) == IntMatrix([[2]])
    assert (intmat._hnf_fold([[0, 3], [2, 5]], 2, 6, [[4, 1], [0, 6]])
            == IntMatrix([[2, 2], [0, 3]]))


def test_hnf_fold_keeps_its_inputs_and_equals_hnf_rows():
    # (live rows, dim, modulus, start, HNF): in each, a live row whose
    # leading entry divides the pivot is promoted to pivot and then reduced
    # above a later pivot, which must change a copy, not the row
    cases = [
        # 2 | 4 promotes [2, 11]; the xgcd step with 9 gives pivot 3, and
        # 11 reduces to 2 above it
        ([[2, 11]], 2, 12, ((4, 7), (0, 12)), [[2, 2], [0, 3]]),
        ([(2, 11)], 2, 12, [[4, 7], [0, 12]], [[2, 2], [0, 3]]),
        # the shortcut example, with a tuple start
        ([[0, 3], [2, 5]], 2, 6, ((4, 1), (0, 6)), [[2, 2], [0, 3]]),
        # no start: 3 | 18 promotes [3, 4, 13], which ends as [3, 1, 1]
        ([[3, 4, 13], [0, 9, 0]], 3, 18, None, [[3, 1, 1], [0, 3, 12], [0, 0, 18]]),
    ]
    rng = seeded(29)
    for _ in range(150):
        d = rng.randint(1, 4)
        modulus = rng.choice([2, 4, 6, 8, 12, 30]) * rng.randint(1, 4)
        seed_rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(rng.randint(0, d))]
        start = rng.choice([None, hnf_rows(seed_rows, d, modulus).rows])
        live = [[rng.randrange(modulus) for _ in range(d)] for _ in range(rng.randint(0, 4))]
        cases.append((live, d, modulus, start, None))
    for live, d, modulus, start, want in cases:
        before = copy.deepcopy((live, start))
        got = intmat._hnf_fold(live, d, modulus, start)
        assert (live, start) == before
        # None stands for modulus * I, whose rows add nothing to hnf_rows
        assert got == hnf_rows([*(start or ()), *copy.deepcopy(live)], d, modulus)
        if want is not None:
            assert got == IntMatrix(want)


def test_constructor_takes_integers_only():
    np = pytest.importorskip("numpy")
    m = IntMatrix([[True, np.int64(-3)], [np.int32(2), 5]])
    assert m.rows == ((1, -3), (2, 5))
    assert all(type(x) is int for row in m.rows for x in row)
    # these were truncated to 2, 2, 3 and 3 before
    for bad in (2.5, 2.0, "3", Fraction(3), None):
        with pytest.raises(TypeError):
            IntMatrix([[bad]])


def test_matrices_refuse_assignment_and_deletion():
    m = IntMatrix([[2, -1], [3, 5]])
    key = hash(m)
    counts = Counter([m, IntMatrix([[2, -1], [3, 5]])])
    for change in (lambda: setattr(m, "rows", ((2,),)), lambda: delattr(m, "rows"),
                   lambda: setattr(m, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert m.rows == ((2, -1), (3, 5)) and hash(m) == key
    assert m == IntMatrix([[2, -1], [3, 5]]) and counts[m] == 2
    # copies and pickles are built without assignment
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == key and type(twin.rows) is tuple


def test_scalar_value():
    assert IntMatrix.scalar(3, -2).scalar_value() == -2
    assert IntMatrix([[0, 0], [0, 0]]).scalar_value() == 0
    assert IntMatrix([[5]]).scalar_value() == 5
    for rows in ([[2, 0], [0, 3]], [[2, 1], [0, 2]], [[2, 0], [1, 2]], [[0, 0], [0, 1]]):
        assert IntMatrix(rows).scalar_value() is None


def test_internal_results_equal_public_construction():
    m = IntMatrix([[2, -1, 0], [3, 5, 1], [0, 4, -2]])
    results = (m @ m, m.transpose(), adjugate(m), hnf_rows(m.rows, 3, abs(det(m))))
    for result in results:
        rebuilt = IntMatrix([list(row) for row in result.rows])
        assert result == rebuilt and hash(result) == hash(rebuilt)
        assert type(result.rows) is tuple
        assert all(type(row) is tuple for row in result.rows)
        assert all(type(x) is int for row in result.rows for x in row)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]])


def test_snf_examples():
    p, dd, q = snf(IntMatrix.identity(3))
    assert p == I3 and dd == I3 and q == I3
    for m, diag in (
        (IntMatrix.diagonal([2, 3]), [1, 6]),
        (IntMatrix.diagonal([2, 2]), [2, 2]),
        (IntMatrix([[2, 1], [0, 3]]), [1, 6]),
        (IntMatrix([[-3]]), [3]),
    ):
        p, dd, q = snf(m)
        assert dd == IntMatrix.diagonal(diag)
        assert p @ m @ q == dd
        assert abs(det(p)) == 1 and abs(det(q)) == 1
    # the zero trailing block shows up at the first, second and last pivot
    for rows in ([[0]], [[1, 2], [2, 4]], [[2, 0, 0], [0, 0, 0], [0, 0, 3]]):
        with pytest.raises(SingularMatrix):
            snf(IntMatrix(rows))


@given(small_matrices(max_dim=4, lo=-9, hi=9))
@settings(max_examples=120, deadline=None)
def test_snf_properties(m):
    if det(m) == 0:
        with pytest.raises(SingularMatrix):
            snf(m)
        return
    p, dd, q = snf(m)
    assert p @ m @ q == dd
    assert abs(det(p)) == 1 and abs(det(q)) == 1
    diag = [dd.rows[i][i] for i in range(m.dim)]
    assert dd.is_diagonal()
    assert all(x > 0 for x in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(len(diag) - 1))
    assert math.prod(diag) == abs(det(m))


def test_is_unimodular():
    assert abs(det(IntMatrix.identity(4))) == 1
    assert abs(det(IntMatrix.diagonal([2, 1]))) != 1
    assert abs(det(IntMatrix([[1, 5], [0, -1]]))) == 1


def test_unimodular_inverse():
    rng = seeded(11)
    for _ in range(40):
        d = rng.randint(1, 6)
        w = rand_unimodular(rng, d)
        assert w @ unimodular_inverse(w) == IntMatrix.identity(d)
