"""Shared test utilities: independent oracles, random generators and a
call counter.

The oracles here deliberately avoid the production code paths they check.
"""

import random
from collections import Counter
from fractions import Fraction

from qsimp.intmat import IntMatrix


def det_oracle(rows):
    """Cofactor-expansion determinant, written independently of qsimp."""
    d = len(rows)
    if d == 1:
        return rows[0][0]
    total = 0
    for j in range(d):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(d) if k != j] for row in rows[1:]]
        term = rows[0][j] * det_oracle(minor)
        total += term if j % 2 == 0 else -term
    return total


def rand_matrix(rng, d, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)])


def rand_nonsingular(rng, d, lo=-9, hi=9):
    while True:
        m = rand_matrix(rng, d, lo, hi)
        if det_oracle([list(r) for r in m.rows]) != 0:
            return m


def rand_unimodular(rng, d, steps=12):
    """Random product of elementary shears, swaps, and sign flips."""
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(d), rng.randrange(d)
        if kind == 0 and i != j:
            q = rng.randint(-2, 2)
            for k in range(d):
                rows[i][k] += q * rows[j][k]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return IntMatrix(rows)


def lattice_points_oracle(denom, d, member):
    """All cosets x in (1/denom)Z^d / Z^d with member(x) true.

    Brute-force grid sweep; `member` receives a tuple of Fractions.
    """
    pts = []

    def rec(prefix):
        if len(prefix) == d:
            if member(tuple(prefix)):
                pts.append(tuple(prefix))
            return
        for num in range(denom):
            rec(prefix + [Fraction(num, denom)])

    rec([])
    return pts


def seeded(seed):
    return random.Random(seed)


def count_calls(monkeypatch, modules, name):
    """Counter of calls to `name` through each module's own binding of it,
    keyed by module name; the bindings are restored with monkeypatch."""
    calls = Counter()
    for module in modules:
        if hasattr(module, name):
            def counted(*args, orig=getattr(module, name), key=module.__name__):
                calls[key] += 1
                return orig(*args)

            monkeypatch.setattr(module, name, counted)
    return calls
