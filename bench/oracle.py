"""Verdict oracle and trace reference, written independently of qsimp.

Nothing here imports the package under test. Matrices are lists of integer
rows, vectors act as columns, and all arithmetic is exact (int or Fraction).

* `expected_status` gives the verdict that a job's construction fixes:
  d=1, diagonal and unimodular-conjugate pairs are Simple iff |a_i| != |b_i|
  for every i; the built R1/R3/R4 families carry their verdict.
* `witness_survives` follows a NotSimple witness m under F^T G^{-T} and
  G^T F^{-T} and requires it to stay integral.
* `oracle_1d` recomputes the circle chains behind a d=1 `oracle` job.
* `trace_line` recomputes the `trace` output of the chain with its own
  Hermite normal form, computed modulo the lattice denominator
  (Domich-Kannan-Trotter style), where qsimp uses a Euclidean row loop.
  The HNF is unique, so a correct program prints the same bytes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

SIMPLE = "Simple"
NOT_SIMPLE = "NotSimple"
WITNESS_STEPS = 30


def det(m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * x * det(minor)
    return total


def adjugate(m):
    d = len(m)
    if d == 1:
        return [[1]]
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            minor = [row[:j] + row[j + 1:] for r, row in enumerate(m) if r != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def inverse(m):
    """Exact rational inverse by Gauss-Jordan elimination."""
    d = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(m)]
    for c in range(d):
        p = next(r for r in range(c, d) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for r in range(d):
            if r != c and a[r][c] != 0:
                k = a[r][c]
                a[r] = [x - k * y for x, y in zip(a[r], a[c])]
    return [row[d:] for row in a]


def expected_status(family: str, params: dict):
    """Verdict fixed by the construction, or None where none is known.

    `params` holds the diagonals a, b of a d=1, diagonal or conjugated
    pair; the R1/R3/R4 families need none.
    """
    if "a" in params:
        pairs = zip(params["a"], params["b"])
        return SIMPLE if all(abs(x) != abs(y) for x, y in pairs) else NOT_SIMPLE
    if family == "R1":
        return NOT_SIMPLE
    if family in ("R3", "R4"):
        return SIMPLE
    return None


def witness_survives(f, g, m, steps: int = WITNESS_STEPS) -> bool:
    """m stays integral for `steps` steps under both elimination maps."""
    if not any(m):
        return False
    for a, b in ((f, g), (g, f)):
        step = matmul(transpose(a), transpose(inverse(b)))
        x = [Fraction(v) for v in m]
        for _ in range(steps):
            x = [sum(s * v for s, v in zip(row, x)) for row in step]
            if any(v.denominator != 1 for v in x):
                return False
    return True


def oracle_1d(f: int, g: int, depth: int, epsilon: Fraction):
    """(status, gap, order) of the d=1 circle chains at a given depth.

    The level-n subgroup of each chain is cyclic of order q_n: its image
    under the first map has order q_n / gcd(first, q_n), and the preimage
    under the second map multiplies that by |second|.
    """
    def orders(first, second):
        qs = [1]
        for _ in range(depth):
            qs.append(qs[-1] // math.gcd(first, qs[-1]) * second)
        return qs

    pos, neg = orders(abs(f), abs(g)), orders(abs(g), abs(f))
    order = math.lcm(pos[-1], neg[-1])
    gap = Fraction(1, order)
    if pos[-1] == pos[-2] and neg[-1] == neg[-2]:
        return "not_dense", gap, order
    return ("dense_at_resolution" if gap < epsilon else "gap"), gap, order


# -- trace reference -------------------------------------------------------


def hnf_mod(rows, modulus: int, d: int):
    """Upper-triangular row HNF of span(rows) + modulus * Z^d.

    Column by column, unimodular extended-gcd steps fold modulus * e_c and
    every live row into one pivot row, leaving the live rows zero in column
    c; those rows and modulus * Z^d then generate the part of the lattice
    that vanishes in columns 0..c. Entries right of the pivot column are
    kept reduced modulo `modulus`, which only adds lattice vectors.
    """
    live = [[x % modulus for x in row] for row in rows]
    basis = []
    for c in range(d):
        piv = [0] * d
        piv[c] = modulus
        for row in live:
            if row[c] == 0:
                continue
            g, s, t = _xgcd(piv[c], row[c])
            u, v = piv[c] // g, row[c] // g
            new_piv = [(s * p + t * r) for p, r in zip(piv, row)]
            row[:] = [(v * p - u * r) for p, r in zip(piv, row)]
            piv = new_piv
        basis.append([x if j <= c else x % modulus for j, x in enumerate(piv)])
        live = [[x % modulus for x in row] for row in live]
        live = [row for row in live if any(row)]
    for c in range(d):
        if basis[c][c] < 0:
            basis[c] = [-x for x in basis[c]]
        p = basis[c][c]
        for i in range(c):
            q = basis[i][c] // p
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[c])]
    return basis


def _xgcd(a: int, b: int):
    """(g, s, t) with g = s*a + t*b = gcd(a, b) > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if a < 0:
        a, s0, t0 = -a, -s0, -t0
    return a, s0, t0


def _lattice(denom: int, rows, d: int):
    """Canonical (denominator, basis) of span(rows)/denom + Z^d."""
    h = hnf_mod(rows, denom, d)
    g = 0
    for row in h:
        for x in row:
            g = math.gcd(g, x)
    if g > 1:
        h = [[x // g for x in row] for row in h]
        denom //= g
    return denom, h


def push(f, lat):
    """F L + Z^d for a lattice given as (denominator, HNF basis)."""
    denom, basis = lat
    return _lattice(denom, matmul(basis, transpose(f)), len(f))


def pull(g, lat):
    """G^{-1} L."""
    denom, basis = lat
    rows = matmul(basis, transpose(adjugate(g)))
    return _lattice(denom * abs(det(g)), rows, len(g))


def _join(l1, l2, d):
    denom = math.lcm(l1[0], l2[0])
    rows = [[x * (denom // l1[0]) for x in row] for row in l1[1]]
    rows += [[x * (denom // l2[0]) for x in row] for row in l2[1]]
    return _lattice(denom, rows, d)


def _annihilator(lat, d):
    """HNF of {m : <m, L> in Z}, the rows of denom * B^{-T}.

    L lies in Z^d / denom, so the annihilator contains denom * Z^d.
    """
    denom, basis = lat
    rows = []
    for row in transpose(inverse(basis)):
        scaled = [denom * x for x in row]
        if any(x.denominator != 1 for x in scaled):
            raise ArithmeticError("annihilator rows must be integral")
        rows.append([x.numerator for x in scaled])
    return hnf_mod(rows, denom, d)


def trace_line(f, g, depth: int) -> str:
    """The exact JSON line `qsimp` prints for a `trace` job."""
    d = len(f)
    z = (1, [[int(i == j) for j in range(d)] for i in range(d)])
    pos, neg, joins = [z], [z], [z]
    for _ in range(depth):
        pos.append(pull(g, push(f, pos[-1])))
        neg.append(pull(f, push(g, neg[-1])))
        joins.append(_join(pos[-1], neg[-1], d))

    def lat_dict(lat):
        return {"denom": lat[0], "basis": lat[1]}

    trace = {
        "depth": depth,
        "pos": [lat_dict(x) for x in pos],
        "neg": [lat_dict(x) for x in neg],
        "joins": [lat_dict(x) for x in joins],
        "annihilators": [{"basis": _annihilator(x, d)} for x in joins],
        "indices": [x[0] ** d // det(x[1]) for x in joins],
    }
    return json.dumps({"status": "Trace", "trace": trace}, separators=(",", ":"))
