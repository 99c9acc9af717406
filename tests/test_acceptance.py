"""Acceptance suite: one criterion per test, with a timed pass/fail line.

Every expected value is either structurally trivial or produced by an
independent oracle inside the test; tolerances are zero throughout and each
criterion carries the wall-clock budget it must meet.
"""

import math
import time
from fractions import Fraction

from helpers import rand_nonsingular, rand_unimodular, seeded
from qsimp.chain import DENSE, NOT_DENSE, decide_density
from qsimp.finite_oracle import (
    FiniteQuiver,
    density_1d,
    saturated_hereditary_subsets,
    verify_minimality_theorem,
)
from qsimp.intmat import IntMatrix, det
from qsimp.lattice import (
    dual_annihilator,
    dual_lattice,
    from_rational_rows,
    index,
    join,
    preimage,
    standard,
    sublattice_index,
)
from qsimp.presentation import from_dict, index_set, present, render
from qsimp.simplicity import NOT_SIMPLE, SIMPLE, UNKNOWN, decide, is_dilation, normalize
import json


def _report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"{name} {status}  ({elapsed:.2f}s / budget {budget:.0f}s){tail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: exceeded time budget ({elapsed:.2f}s)"


def test_ac1_automorphism_pairs_not_simple():
    rng = seeded(101)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(50):
        d = rng.randint(1, 3)
        f = rand_unimodular(rng, d)
        g = rand_unimodular(rng, d)
        if decide(f, g).status != NOT_SIMPLE:
            failures += 1
    _report(
        "AC1 automorphism corollary",
        failures == 0,
        time.perf_counter() - t0,
        1.0,
        f"{failures} failures over 50 unimodular pairs",
    )


def test_ac2_dilation_fast_path_vs_chain():
    rng = seeded(102)
    t0 = time.perf_counter()
    bad = 0
    found = 0
    while found < 20:
        d = rng.randint(1, 3)
        f = IntMatrix([[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
        if det(f) == 0 or not is_dilation(f):
            continue
        found += 1
        v = decide(f, IntMatrix.identity(d))
        if v.status != SIMPLE or not any(r == "R3-dilation" for r, _ in v.rules_fired):
            bad += 1
        if decide_density(f, IntMatrix.identity(d)).status == NOT_DENSE:
            bad += 1
    _report(
        "AC2 dilation fast path vs chain",
        bad == 0,
        time.perf_counter() - t0,
        30.0,
        f"{bad} bad outcomes over 20 dilation matrices",
    )


def test_ac3_triangular_theorem_exhaustive():
    t0 = time.perf_counter()
    contradictions = 0
    checked = 0
    for n in (2, 3):
        diag_choices = [x for x in range(-4, 5) if x != 0 and abs(x) != n]
        for d1 in diag_choices:
            for d2 in diag_choices:
                for off in range(-4, 5):
                    g = IntMatrix([[d1, off], [0, d2]])
                    f = IntMatrix.scalar(2, n)
                    checked += 1
                    v = decide(f, g)
                    closed_form = any(
                        r in ("R3-dilation", "R4-triangular") for r, _ in v.rules_fired
                    )
                    if v.status != SIMPLE or not closed_form:
                        contradictions += 1
                        continue
                    if abs(det(g)) != 1 and v.rules_fired[-1][0] != "R4-triangular":
                        contradictions += 1
                    if decide_density(f, g).status == NOT_DENSE:
                        contradictions += 1
    _report(
        "AC3 triangular theorem",
        contradictions == 0,
        time.perf_counter() - t0,
        60.0,
        f"{contradictions} contradictions over {checked} exhaustive instances",
    )


def test_ac4_reduction_invariance():
    rng = seeded(104)
    t0 = time.perf_counter()
    contradictions = 0
    for _ in range(200):
        d = rng.randint(1, 2)
        f = rand_nonsingular(rng, d, -3, 3)
        g = rand_nonsingular(rng, d, -3, 3)
        h = rand_nonsingular(rng, d, -3, 3)
        n, t, _ = normalize(f, g)
        statuses = [
            decide(f, g).status,
            decide(f @ h, g @ h).status,
            decide(h @ f, h @ g).status,
            decide(IntMatrix.scalar(d, n), t).status,
        ]
        definite = {s for s in statuses if s != UNKNOWN}
        if len(definite) > 1:
            contradictions += 1
    _report(
        "AC4 reduction invariance",
        contradictions == 0,
        time.perf_counter() - t0,
        120.0,
        f"{contradictions} contradictions over 200 random triples",
    )


def test_ac5_finite_group_theorem_sweep():
    t0 = time.perf_counter()
    report = verify_minimality_theorem(32)
    crit1_bad = 0
    for m in range(1, 13):
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for a in units:
            for b in units:
                q = FiniteQuiver(m, a, b)
                definitional = set(saturated_hereditary_subsets(q))
                formula = set()
                for mask in range(1 << m):
                    u = frozenset(i for i in range(m) if mask >> i & 1)
                    im_a = {(a * y) % m for y in u}
                    im_b = {(b * y) % m for y in u}
                    alpha_pre_beta = frozenset(
                        x for x in range(m) if (a * x) % m in im_b
                    )
                    beta_pre_alpha = frozenset(
                        x for x in range(m) if (b * x) % m in im_a
                    )
                    if alpha_pre_beta == u and beta_pre_alpha == u:
                        formula.add(u)
                if definitional != formula:
                    crit1_bad += 1
    ok = report.counterexamples == [] and crit1_bad == 0
    _report(
        "AC5 finite-group theorem sweep",
        ok,
        time.perf_counter() - t0,
        300.0,
        f"{report.pairs_checked} surjective pairs, "
        f"{len(report.counterexamples)} minimality counterexamples, "
        f"{crit1_bad} subset-equivalence failures",
    )


def test_ac6_d1_concordance():
    t0 = time.perf_counter()
    contradictions = 0
    values = [x for x in range(-6, 7) if abs(x) >= 2]
    for f in values:
        for g in values:
            dv = decide_density(IntMatrix([[f]]), IntMatrix([[g]]))
            orc = density_1d(f, g, 8, Fraction(1, 1000))
            if dv.status == DENSE and orc.status == "not_dense":
                contradictions += 1
            if dv.status == NOT_DENSE and orc.status == "dense_at_resolution":
                contradictions += 1
    ok = contradictions == 0
    ok &= decide(IntMatrix([[2]]), IntMatrix([[3]])).status == SIMPLE
    for a in range(2, 7):
        ok &= decide(IntMatrix([[a]]), IntMatrix([[a]])).status == NOT_SIMPLE
    _report(
        "AC6 d=1 concordance",
        ok,
        time.perf_counter() - t0,
        30.0,
        f"{contradictions} contradictions over {len(values) ** 2} pairs",
    )


def test_ac7_lattice_engine_identities():
    rng = seeded(107)
    t0 = time.perf_counter()
    bad = 0
    from qsimp.chain import annihilator_step_pos, step_pos

    for _ in range(500):
        d = rng.randint(1, 3)
        l = preimage(rand_nonsingular(rng, d, -4, 4), standard(d))
        if rng.random() < 0.5:
            l = join(l, preimage(rand_nonsingular(rng, d, -4, 4), standard(d)))
        if rng.random() < 0.3:
            l = preimage(rand_nonsingular(rng, d, -2, 2), l)
        ann = dual_annihilator(l)
        if sublattice_index(ann) != index(l):
            bad += 1
        if dual_lattice(ann) != l:
            bad += 1
        f = rand_nonsingular(rng, d, -3, 3)
        g = rand_nonsingular(rng, d, -3, 3)
        if dual_annihilator(step_pos(f, g, l)) != annihilator_step_pos(f, g, ann):
            bad += 1
    _report(
        "AC7 lattice engine identities",
        bad == 0,
        time.perf_counter() - t0,
        60.0,
        f"{bad} identity failures over 500 random lattices",
    )


def test_ac8_presentation_counts_and_roundtrip():
    rng = seeded(108)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(100):
        d = rng.randint(1, 3)
        diag = [rng.randint(1, 4) for _ in range(d)]
        f = IntMatrix.diagonal(diag)
        while True:
            g = IntMatrix([[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
            if det(g) != 0:
                break
        toeplitz = rng.random() < 0.5
        p = present(f, g, toeplitz=toeplitz)
        if len(p.index_set) != det(f):
            bad += 1
        if len(p.relations) != (3 if toeplitz else 4):
            bad += 1
        if len(index_set(diag)) != math.prod(diag):
            bad += 1
        if from_dict(json.loads(render(p, "json"))) != p:
            bad += 1
    _report(
        "AC8 presentation counts",
        bad == 0,
        time.perf_counter() - t0,
        5.0,
        f"{bad} failures over 100 presentations",
    )
