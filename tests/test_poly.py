import math

import pytest

from helpers import count_calls, rand_matrix, rand_nonsingular, rand_unimodular, seeded
from qsimp.intmat import IntMatrix, charpoly, det, unimodular_inverse
from qsimp import chain, poly
from qsimp.poly import _factor_mod, _mul, _root_candidates, factor


def corpus():
    """Seeded integer polynomials of degree 1..8 built from random factors,
    about a third of them with a repeated factor, some non-monic."""
    rng = seeded(131)
    out = []
    for _ in range(150):
        f = [rng.choice([-3, -2, -1, 1, 2, 3])]
        target = rng.randint(1, 8)
        while len(f) - 1 < target:
            k = rng.randint(1, min(3, target - (len(f) - 1)))
            g = [rng.randint(1, 3)] + [rng.randint(-6, 6) for _ in range(k)]
            f = _mul(f, g)
            if rng.random() < 0.35 and len(f) - 1 + k <= 8:
                f = _mul(f, g)
        out.append(f)
    return out


def expand(content, factors):
    prod = [content]
    for p, mult in factors:
        for _ in range(mult):
            prod = _mul(prod, p)
    return prod


def test_factor_product_gives_back_input():
    for f in corpus():
        content, factors = factor(f)
        assert expand(content, factors) == f
        assert all(p[0] > 0 and len(p) > 1 for p, _ in factors)


def test_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for f in corpus():
        content, factors = sympy.factor_list(sympy.Poly(f, x))
        want = sorted(([int(c) for c in p.all_coeffs()], m) for p, m in factors)
        got = factor(f)
        assert (got[0], sorted(got[1])) == (int(content), want), f


def test_factor_hand_cases():
    assert factor([1, 0, -2]) == (1, [([1, 0, -2], 1)])
    # x^4 + 1 is irreducible over Q but splits modulo every prime, so only
    # the recombination of its modular factors can prove it irreducible
    assert factor([1, 0, 0, 0, 1]) == (1, [([1, 0, 0, 0, 1], 1)])
    for p in (3, 5, 7, 11, 13):
        assert len(_factor_mod([1, 0, 0, 0, 1], p)) > 1
    # Swinnerton-Dyer polynomial of sqrt 2, sqrt 3: four quadratic factors
    # modulo every prime, irreducible over Q
    sd = [1, 0, -40, 0, 352, 0, -960, 0, 576]
    assert factor(sd) == (1, [(sd, 1)])
    assert factor([-4, 0, 0, 0, 1]) == (-1, [([2, 0, -1], 1), ([2, 0, 1], 1)])
    assert factor([2, 0, 0]) == (2, [([1, 0], 2)])
    assert factor([1, -3, 3, -1]) == (1, [([1, -1], 3)])
    # a root too large for the divisor search is found by the modular path
    big = 10**12 + 39
    want = (1, [([1, -big], 1), ([1, 0, 1], 1)])
    assert factor(_mul([1, -big], [1, 0, 1])) == want


# 2^4 3^2 5 7 11 13; its divisors up to 60 are the root numerators below
HIGHLY_COMPOSITE = 720720
ROOTS = [t for t in range(1, 61) if HIGHLY_COMPOSITE % t == 0]
# denominators of rational roots
DENOMS = [1, 2, 3, 4, 9, 25]
# cofactors with no rational root; the first two keep the lead non-monic
COFACTORS = [[2, 0, 3], [3, 0, -2], [1], [1, 0, 1], [1, 1, 1]]
# polynomials with their rational roots r / s as (s, r); the first root is
# the last one of its denominator that the search keeps, (|r| + 1) |f_0| >
# s (|f_0| + max |f_i|): (x - 2)(2x + 1), (x + 2)(3x - 1),
# (2x - 3)(3x^2 + 2x + 1), (2x + 19)(3x^2 - 3x + 2), (3x + 17)(4x^2 - 3x + 1)
AT_CAUCHY_BOUND = [([2, -3, -2], [(1, 2), (2, -1)]), ([3, 5, -2], [(1, -2), (3, 1)]),
                   ([6, -5, -4, -3], [(2, 3)]), ([6, 51, -53, 38], [(2, -19)]),
                   ([12, 59, -48, 17], [(3, -17)])]


def linear_products(rng, repeats, denoms=(1,)):
    """Seeded products of s x - r over 1..4 roots r / s in lowest terms, r of
    either sign dividing HIGHLY_COMPOSITE and s in `denoms`, times a
    cofactor; with `repeats` a root may recur."""
    out = []
    for _ in range(40):
        roots, n = [], rng.randint(1, 4)
        while len(roots) < n:
            s, r = rng.choice(denoms), rng.choice((1, -1)) * rng.choice(ROOTS)
            if math.gcd(s, r) == 1:
                roots.append((s, r))
        if repeats and rng.random() < 0.5:
            roots += roots[: rng.randint(1, 2)]
        if not repeats:
            roots = sorted(set(roots))
        f = rng.choice(COFACTORS)
        for s, r in roots:
            f = _mul(f, [s, -r])
        out.append((f, roots))
    return out


def sympy_factor(f):
    sympy = pytest.importorskip("sympy")
    content, factors = sympy.factor_list(sympy.Poly(f, sympy.symbols("x")))
    return int(content), sorted(([int(c) for c in p.all_coeffs()], m) for p, m in factors)


def test_factor_root_products_match_sympy():
    rng = seeded(139)
    cases = [f for f, _ in linear_products(rng, repeats=True)]
    cases += [f for f, _ in AT_CAUCHY_BOUND]
    cases += [[6 * c for c in f] for f in cases[:5]]  # content and lead 6
    for f in cases:
        got = factor(f)
        assert (got[0], sorted(got[1])) == sympy_factor(f), f


def _power(f, n):
    out = [1]
    for _ in range(n):
        out = _mul(out, f)
    return out


def test_factor_rational_root_products_match_sympy():
    rng = seeded(151)
    cases = [f for f, _ in linear_products(rng, repeats=True, denoms=DENOMS)]
    cases += [_mul(f, q) for f, _ in AT_CAUCHY_BOUND for q in ([5, 1], [1, 0, 7])]
    assert sum(abs(f[0]) > 1 for f in cases) >= 30
    # repeated roots, stripped with their multiplicity: (2x - 1)^3,
    # (x + 1)^2 (3x - 2), x^2 (x - 1)(x + 1), and seeded products of
    # degree at most 8 with a root of multiplicity 2 to 4
    cases += [_power([2, -1], 3), _mul(_power([1, 1], 2), [3, -2]),
              _mul(_power([1, 0], 2), [1, 0, -1])]
    for _ in range(20):
        f = rng.choice(COFACTORS)
        while len(f) < 8:
            s, r = rng.choice(DENOMS), rng.choice((1, -1)) * rng.choice(ROOTS[:8])
            if math.gcd(s, r) == 1:
                f = _mul(f, _power([s, -r], min(rng.randint(2, 4), 9 - len(f))))
        cases.append(f)
    assert all(len(f) <= 9 for f in cases)
    for f in cases:
        got = factor(f)
        assert (got[0], sorted(got[1])) == sympy_factor(f), f


def test_root_candidates_cost_no_division_unless_roots(monkeypatch):
    calls, tested = [], []

    def counted(a, b, orig=poly._divexact):
        if len(b) == 2:
            calls.append(b)
        return orig(a, b)

    def evaluated(a, r, s, orig=poly._value):
        tested.append((len(a) - 1, [s, -r]))
        return orig(a, r, s)

    monkeypatch.setattr(poly, "_divexact", counted)
    monkeypatch.setattr(poly, "_value", evaluated)
    monkeypatch.setattr(poly, "_zassenhaus", None)  # no recombination runs
    for f, ((s, r), *_) in AT_CAUCHY_BOUND:
        lead, top = abs(f[0]), abs(f[0]) + max(abs(c) for c in f[1:])
        assert abs(r) * lead <= s * top < (abs(r) + 1) * lead
    rng = seeded(149)
    cases = linear_products(rng, repeats=False) + AT_CAUCHY_BOUND
    cases += linear_products(rng, repeats=False, denoms=DENOMS)
    divided = closed = 0
    for f, roots in cases:
        for s, r in roots:
            assert poly._value(f, r, s) == 0
        candidates = _root_candidates(f)
        assert set(roots) < set(candidates)
        calls.clear()
        tested.clear()
        got = factor(f)[1]
        linear = sorted([s, -r] for s, r in roots)
        assert sorted(p for p, _ in got if len(p) == 2) == linear
        # each root the search finds costs one exact division, every other
        # candidate none; the rest come from a quadratic's discriminant
        assert all(b in linear for b in calls) and len(calls) == len({tuple(b) for b in calls})
        # once the remainder has degree at most 2 no candidate is tested:
        # only the root just divided out is tried again, for its multiplicity
        assert all(b == calls[-1] for n, b in tested if n <= 2)
        divided += len(calls)
        closed += len(linear) - len(calls)
    assert divided > 100 and closed > 25


def seeded_quadratics(rng, bits):
    """Quadratics with (bits)-bit coefficients, keyed by the sign of the
    discriminant and whether it is a square, each also with content 6,
    with a negative lead, and times x for a zero root."""
    def big():
        return rng.getrandbits(bits) | 1 << (bits - 1)

    a, c = big(), big()
    p, q, r, t = (big() >> bits // 2 for _ in range(4))
    cases = {
        "disc < 0": [a, rng.getrandbits(bits - 1), c],
        "disc > 0, no square": [a, big(), -c],
        "square disc": _mul([p, q], [r, -t]),
        "disc = 0": _mul([p, -q], [p, -q]),
    }
    return {f"{key}, {how}": g for key, f in cases.items()
            for how, g in (("", f), ("content 6", [6 * x for x in f]),
                           ("negative lead", [-x for x in f]), ("zero root", f + [0]))}


def test_quadratics_factor_by_discriminant_and_match_sympy(monkeypatch):
    pytest.importorskip("sympy")
    names = ("_root_candidates", "_gcd", "_zassenhaus")
    calls = {name: count_calls(monkeypatch, (poly,), name) for name in names}
    rng = seeded(163)
    for bits in (64, 200, 1000, 4000):
        for key, f in seeded_quadratics(rng, bits).items():
            a, b, c = f[:3]
            disc = b * b - 4 * a * c
            assert ("disc < 0" in key) == (disc < 0)
            square = key.startswith(("square", "disc = 0"))
            assert square == (math.isqrt(max(disc, 0)) ** 2 == disc)
            got = factor(f)
            assert (got[0], sorted(got[1])) == sympy_factor(f), (bits, key)
    # degree 2 and below take the discriminant, with no search, gcd or lifting
    for f in ([3], [-2, 4], [5, 0], [1, 0, 0], [4, 4, 1], [2, 0, -8]):
        assert expand(*factor(f)) == f
    assert not any(calls.values())
    # a cubic with a huge root search goes to gcd and Zassenhaus as before
    big = (1 << 200) + 235
    assert factor(_mul([1, -big], [1, 0, 1])) == (1, [([1, -big], 1), ([1, 0, 1], 1)])
    assert all(calls[name]["qsimp.poly"] == 1 for name in names)


def test_factor_of_degree_at_most_3_runs_no_gcd(monkeypatch):
    # the rational roots go first, with their multiplicity, and what is left
    # of degree 2 or 3 is irreducible: no squarefree split is needed
    calls = count_calls(monkeypatch, (poly,), "_gcd")
    cases = [f for f in corpus() if len(f) <= 4]
    cases += [[2, -1], [1, 0, 1], [6, 0, -4], [1, 0, 0, -2], [-8, 12, -6, 1],
              _mul([1, 2, 1], [3, -2]), _mul([2, -1], [2, -1]), [3, 3, 0, 0]]
    repeated = 0
    for f in cases:
        content, factors = factor(f)
        assert expand(content, factors) == f
        repeated += any(mult > 1 for _, mult in factors)
    assert not calls and len(cases) >= 40 and repeated >= 5


def test_decide_density_on_small_pairs_runs_no_zassenhaus(monkeypatch):
    # d <= 3 with small entries: the pencil polynomial has degree at most 3,
    # so stripping its rational roots leaves nothing or an irreducible
    # remainder. At d = 2 the pencil is a quadratic, split by its
    # discriminant however large its coefficients; at d = 3 entries of
    # about 10 bits or more make the root search too long, and the cubic
    # still reaches Zassenhaus
    calls = count_calls(monkeypatch, (poly,), "_zassenhaus")
    rng = seeded(157)
    leads = set()
    for _ in range(300):
        d = rng.randint(1, 3)
        f, g = rand_nonsingular(rng, d, -4, 4), rand_nonsingular(rng, d, -4, 4)
        chain.decide_density(f, g)
        leads.add(abs(det(g)))
    assert not calls and max(leads) > 20
    for bits in (200, 500, 1000, 2000, 4000):
        for _ in range(3):
            f = rand_nonsingular(rng, 2, -(2**bits), 2**bits)
            g = rand_nonsingular(rng, 2, -(2**bits), 2**bits)
            chain.decide_density(f, g)
            assert not calls, bits
            # triangular pairs: a pencil with two rational roots
            f, g = (IntMatrix([[rng.getrandbits(bits) | 1, rng.getrandbits(bits)],
                               [0, -1 - rng.getrandbits(bits)]]) for _ in range(2))
            chain.decide_density(f, g)
            assert not calls, bits


def test_charpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = seeded(137)
    cases = [rand_matrix(rng, rng.randint(1, 8), -6, 6) for _ in range(40)]
    for d in range(1, 9):
        # nilpotent: strictly upper triangular, conjugated by a unimodular w
        w = rand_unimodular(rng, d)
        n = IntMatrix([[rng.randint(-3, 3) if j > i else 0 for j in range(d)]
                       for i in range(d)])
        cases.append(w @ n @ unimodular_inverse(w))
        assert charpoly(cases[-1]) == [1] + [0] * d
        # singular: the last row is the sum of the others
        rows = [list(r) for r in rand_matrix(rng, d, -5, 5).rows]
        rows[-1] = [sum(col) for col in zip(*rows[:-1])] if d > 1 else [0]
        cases.append(IntMatrix(rows))
        # repeated eigenvalues: a conjugated diagonal
        diag = [[2, 2, -1, -1, 3, 3, 3, 0][i] for i in range(d)]
        cases.append(w @ IntMatrix.diagonal(diag) @ unimodular_inverse(w))
        # 60-bit entries
        cases.append(rand_matrix(rng, d, -(2**60), 2**60))
    for m in cases:
        want = sympy.Matrix([list(r) for r in m.rows]).charpoly(x).all_coeffs()
        assert charpoly(m) == [int(c) for c in want]
    assert charpoly(IntMatrix([[2, 1], [0, 3]])) == [1, -5, 6]
