"""Shared test utilities: independent oracles, random generators and a
call counter.

The oracles here deliberately avoid the production code paths they check.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

from qsimp import lattice
from qsimp.intmat import IntMatrix, hnf_rows


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


def block_sum(*blocks):
    """The block diagonal matrix of the square IntMatrix blocks."""
    d = sum(b.dim for b in blocks)
    rows, at = [], 0
    for b in blocks:
        rows += [[0] * at + list(row) + [0] * (d - at - b.dim) for row in b.rows]
        at += b.dim
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


def member(l, x):
    """Whether the rational vector x lies in l, a RationalLattice or an
    IntegerSublattice, exactly, by the public hnf_rows.

    x scaled by l's denominator (1 for a sublattice) must be integral, and
    adding it to l's basis must leave the basis's HNF unchanged. The fold's
    modulus is the denominator, or the sublattice's index, since that
    multiple of Z^d lies in span(basis).
    """
    if isinstance(l, lattice.IntegerSublattice):
        denom, modulus = 1, lattice.sublattice_index(l)
    else:
        denom = modulus = l.denom
    scaled = [Fraction(xi) * denom for xi in x]
    if any(s.denominator != 1 for s in scaled):
        return False
    v = [s.numerator for s in scaled]
    return hnf_rows([*l.basis.rows, v], l.dim, modulus) == l.basis


def fold_join(a, b):
    """The join of two rational lattices as one fold of both canonical
    bases over the lcm of their denominators, by from_rational_rows."""
    denom = math.lcm(a.denom, b.denom)
    rows = [[x * (denom // l.denom) for x in row] for l in (a, b) for row in l.basis.rows]
    return lattice.from_rational_rows(a.dim, denom, rows)


def seeded(seed):
    return random.Random(seed)


def _loaded(modules):
    """`modules`, each run if it is a lazy qsimp module that has not run.

    A lazy module runs at its first attribute access and binds what its
    imports name at that moment. Run midway through a rebinding, it would
    bind a counter that monkeypatch never restores.
    """
    for module in modules:
        vars(module)
    return modules


def count_calls(monkeypatch, modules, name):
    """Counter of calls to `name` through each module's own binding of it,
    keyed by module name; the bindings are restored with monkeypatch."""
    calls = Counter()
    for module in _loaded(modules):
        if hasattr(module, name):
            def counted(*args, orig=getattr(module, name), key=module.__name__):
                calls[key] += 1
                return orig(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def rebind_kernel(monkeypatch, name, wrap):
    """Bind wrap(orig), for the intmat kernel orig = intmat.<name>, in place
    of orig in every qsimp module that binds it, intmat included; the
    bindings are restored with monkeypatch."""
    from qsimp import intmat

    orig = getattr(intmat, name)
    wrapper = wrap(orig)
    modules = [m for key, m in list(sys.modules.items()) if key.startswith("qsimp.")]
    for module in _loaded(modules):
        if getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, wrapper)


def count_passes(monkeypatch, name):
    """Counter of calls to the intmat kernel `name`, keyed by the matrix
    passed, through every qsimp module's binding of it; the bindings are
    restored with monkeypatch."""
    passes = Counter()

    def wrap(orig):
        def counted(m):
            passes[m] += 1
            return orig(m)

        return counted

    rebind_kernel(monkeypatch, name, wrap)
    return passes


def adj_oracle(rows):
    """Adjugate by cofactors, written independently of qsimp."""
    d = len(rows)
    if d == 1:
        return [[1]]
    return [
        [
            (-1) ** (i + j) * det_oracle(
                [[row[k] for k in range(d) if k != i] for r, row in enumerate(rows) if r != j]
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
