"""Seeded job generators for the three benchmark workloads.

Each generator returns a list of `Job`s: the JSONL line the program sees,
plus the construction data the oracle checks the answer against. The same
(workload, seed) always yields the same lines. `decide` lines carry no
`max_depth` or `norm_bound`, so the defaults a user gets are measured.

Why these workloads:

* decide-chain: `decide` jobs that reach the chain, where nearly all time
  is the box search in `chain.decide_density`. Conjugated diagonal pairs
  and d=1 pairs have a known verdict; the reproducer is a known wrong
  Simple of the norm-bounded Dense test.
* short-jobs: thousands of jobs that never reach the chain (closed-form
  R1/R3/R4 verdicts, `present`, d=1 `oracle`), so CLI parsing, JSON
  output, small-matrix algebra and pool dispatch dominate.
* trace-deep: `trace` jobs at depths 96 and 192, where the time is Hermite
  normal forms of lattices with large denominators; no box search runs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from oracle import det, matmul

WORKLOADS = ("decide-chain", "short-jobs", "trace-deep")

# diag(2, 5) and diag(3, 5) conjugated by [[1, 0], [20000, 1]]
REPRODUCER = ([[2, 0], [-60000, 5]], [[3, 0], [-40000, 5]], [2, 5], [3, 5])


@dataclass
class Job:
    line: str
    family: str
    params: dict = field(default_factory=dict)


def _line(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def _decide(family: str, f, g, **params) -> Job:
    doc = {"command": "decide", "d": len(f), "F": f, "G": g}
    return Job(_line(doc), family, {"F": f, "G": g, **params})


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(lo, hi)


def _random_matrix(rng: random.Random, d: int, bound: int):
    return [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]


def _random_pair(rng: random.Random, d: int, bound: int = 4):
    while True:
        f, g = _random_matrix(rng, d, bound), _random_matrix(rng, d, bound)
        if det(f) and det(g):
            return f, g


def _diagonal(entries):
    d = len(entries)
    return [[entries[i] if i == j else 0 for j in range(d)] for i in range(d)]


def _elementary(d: int, i: int, j: int, c: int):
    m = _diagonal([1] * d)
    m[i][j] = c
    return m


def _unimodular(rng: random.Random, d: int, steps: int, size: int):
    """Signed permutation times `steps` elementary shears of |entry| <= size;
    returns (P, P^{-1})."""
    p = _diagonal([1] * d)
    p_inv = _diagonal([1] * d)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = _nonzero(rng, max(1, size // 2), size)
        p = matmul(_elementary(d, i, j, c), p)
        p_inv = matmul(p_inv, _elementary(d, i, j, -c))
    perm = list(range(d))
    rng.shuffle(perm)
    signs = [rng.choice([-1, 1]) for _ in range(d)]
    s = [[signs[i] if perm[i] == j else 0 for j in range(d)] for i in range(d)]
    s_inv = [[signs[j] if perm[j] == i else 0 for j in range(d)] for i in range(d)]
    return matmul(s, p), matmul(p_inv, s_inv)


def _triangular(rng: random.Random, diag):
    d = len(diag)
    m = _diagonal(diag)
    for i in range(d):
        for j in range(i + 1, d):
            m[i][j] = rng.randint(-2, 2)
    return m if rng.random() < 0.5 else [list(c) for c in zip(*m)]


def _with_det(rng: random.Random, d: int, target: int):
    """Random matrix with entries in [-3, 3] and |det| = target."""
    while True:
        m = _random_matrix(rng, d, 3)
        if abs(det(m)) == target:
            return m


def _diagonal_pair(rng: random.Random, d: int, equal: int):
    """Diagonals a, b with |a_i| = |b_i| at exactly `equal` positions."""
    a = [_nonzero(rng, 1, 5) for _ in range(d)]
    b = []
    for i, x in enumerate(a):
        if i < equal:
            b.append(rng.choice([-1, 1]) * abs(x))
        else:
            b.append(rng.choice([y for y in range(-5, 6) if y and abs(y) != abs(x)]))
    order = list(range(d))
    rng.shuffle(order)
    return [a[i] for i in order], [b[i] for i in order]


def decide_chain(rng: random.Random, base: random.Random) -> list[Job]:
    jobs = []
    # the ROADMAP prototype distribution: entries in [-4, 4]
    for d, count, src in ((1, 10, rng), (2, 6, base), (3, 1, base)):
        for _ in range(count):
            f, g = _random_pair(src, d)
            params = {"a": [f[0][0]], "b": [g[0][0]]} if d == 1 else {}
            jobs.append(_decide("random", f, g, **params))
    # P diag(a) P^-1 against P diag(b) P^-1, shears from 2 to 2*10^4, with a
    # set count of coordinates where |a_i| = |b_i|, which decides the
    # verdict: none is Simple, any is NotSimple
    for d, extra in ((2, (2,)), (3, (2, 3))):
        for size in (2, 20_000):
            for equal in (0, 1):
                jobs.append(_conjugate(base, d, equal, size))
        for equal in extra:
            jobs.append(_conjugate(base, d, equal, 2_000))
    f, g, a, b = REPRODUCER
    jobs.append(_decide("reproducer", f, g, a=a, b=b))
    return jobs


def _conjugate(rng: random.Random, d: int, equal: int, size: int) -> Job:
    a, b = _diagonal_pair(rng, d, equal)
    p, p_inv = _unimodular(rng, d, d - 1, size)
    f = matmul(matmul(p, _diagonal(a)), p_inv)
    g = matmul(matmul(p, _diagonal(b)), p_inv)
    return _decide("conjugate", f, g, a=a, b=b)


def short_jobs(rng: random.Random, base: random.Random) -> list[Job]:
    jobs = []
    for k in range(1_400):
        d = 2 + k % 5
        kind = ("R1", "R3", "R4")[k % 3]
        if kind == "R1":
            f = _unimodular(rng, d, d, 2)[0]
            g = _unimodular(rng, d, d, 2)[0]
        elif kind == "R3":
            u = _unimodular(rng, d, d, 2)[0]
            t = _triangular(rng, [_nonzero(rng, 2, 4) for _ in range(d)])
            f, g = matmul(t, u), u
        else:
            n = _nonzero(rng, 2, 5)
            diag = [_nonzero(rng, 1, 6) for _ in range(d)]
            diag = [x if abs(x) != abs(n) else x + (1 if x > 0 else -1) for x in diag]
            if all(abs(x) == 1 for x in diag):
                diag[rng.randrange(d)] *= abs(n) + 1
            f, g = _diagonal([n] * d), _triangular(rng, diag)
        if rng.random() < 0.5:
            f, g = g, f
        jobs.append(_decide(kind, f, g))
    for _ in range(300):
        d = rng.randint(1, 3)
        f = _diagonal([rng.randint(1, 3) for _ in range(d)])
        g = _random_pair(rng, d, 3)[1]
        doc = {"command": "present", "d": d, "F": f, "G": g}
        if rng.random() < 0.5:
            doc["toeplitz"] = True
        jobs.append(Job(_line(doc), "present", {"F": f, "G": g}))
    for _ in range(300):
        f, g = _nonzero(rng, 1, 6), _nonzero(rng, 1, 6)
        doc = {"command": "oracle", "d": 1, "F": [[f]], "G": [[g]]}
        jobs.append(Job(_line(doc), "oracle", {"f": f, "g": g}))
    return jobs


def trace_deep(rng: random.Random, base: random.Random) -> list[Job]:
    # (d, depth, |det F|, |det G|, count); depth 96 at d=2 is drawn from the
    # seed, the rest comes from the base set
    cells = ((2, 96, 2, 3, 1), (2, 96, 3, 4, 1), (2, 192, 2, 3, 1),
             (2, 192, 3, 4, 1), (3, 96, 2, 3, 1), (3, 96, 3, 4, 1),
             (3, 192, 2, 3, 1))
    jobs = []
    for d, depth, det_f, det_g, count in cells:
        src = rng if (d, depth) == (2, 96) else base
        for _ in range(count):
            f, g = _with_det(src, d, det_f), _with_det(src, d, det_g)
            doc = {"command": "trace", "d": d, "F": f, "G": g, "max_depth": depth}
            jobs.append(Job(_line(doc), "trace", {"F": f, "G": g, "depth": depth}))
    return jobs


_GENERATORS = {
    "decide-chain": decide_chain,
    "short-jobs": short_jobs,
    "trace-deep": trace_deep,
}


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of `workload` for `seed`.

    A decide job that reaches the chain, or a deep trace, costs from
    milliseconds to seconds depending on the draw, so the few dozen that
    fit in a round would swing its figures by seed. Those come from a base
    set drawn once per workload from the same distributions; the seed
    draws the rest (d=1 pairs, depth-96 traces at d=2, all short jobs).
    The order is fixed too: where a multi-second job sits decides when the
    `--jobs 2` pool finishes.
    """
    rng = random.Random(f"{workload}/{seed}")
    base = random.Random(f"{workload}/base")
    return _GENERATORS[workload](rng, base)
