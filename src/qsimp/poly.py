"""Integer polynomials: factorisation over Z.

A polynomial is a list of integer coefficients, highest degree first, with
no leading zeros; [1, 0, -2] is x^2 - 2. `factor` splits a quadratic in
closed form: it is reducible exactly when its discriminant is a square, and
the integer square root gives both factors at any coefficient size, with no
search. An input of degree 3 or more first has its rational roots stripped,
each with its multiplicity: every candidate from a divisor search is tested
by evaluation, and only a root costs a division. The search stops once what
is left has degree at most 2, which the closed form finishes, and a cubic
left without rational roots is irreducible, so squarefree. Small inputs end
there, with no gcd and no lifting. A remainder of degree 4 or more, and a
polynomial of degree 3 or more whose divisor search would be too long,
take the classical Zassenhaus method (Zassenhaus, J. Number Theory 1,
1969): split off the repeated part with gcd(f, f'), factor the squarefree
part modulo a small prime with Cantor-Zassenhaus (Math. Comp. 36, 1981),
Hensel-lift the modular factors and recombine them exhaustively.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Sequence

# divisor candidates tried before leaving rational roots to the modular path
_ROOT_SEARCH_LIMIT = 1 << 14


def factor(f: Sequence[int]) -> tuple[int, list[tuple[list[int], int]]]:
    """(content, [(p, multiplicity), ...]) with f = content * prod p^mult.

    Every p is irreducible over Z, primitive, with a positive leading
    coefficient; the list is sorted by degree, then coefficients. A
    quadratic, whether the input or what is left once rational roots are
    stripped, is factored from its discriminant and never reaches gcd or
    Hensel lifting; an input of degree at most 2 makes no divisor search.
    """
    f = _strip(list(f))
    if not any(f):
        raise ValueError("cannot factor the zero polynomial")
    content, f = f[0], primitive(f)
    content //= f[0]
    out = []
    zeros = 0
    while f[-1 - zeros] == 0:
        zeros += 1
    if zeros:
        out.append(([1, 0], zeros))
        f = f[: len(f) - zeros]
    roots = _root_candidates(f) if len(f) > 3 else ()
    for s, r in roots or ():
        if len(f) <= 3:
            break
        # s x - r is primitive, so it divides f over Z exactly when f(r/s) = 0;
        # then s divides the lead and r the constant term of what is left
        mult = 0
        while f[0] % s == 0 and f[-1] % r == 0 and not _value(f, r, s):
            f, mult = _divexact(f, [s, -r]), mult + 1
        if mult:
            out.append(([s, -r], mult))
    if len(f) == 3:
        # a x^2 + b x + c splits exactly when b^2 - 4ac = s^2, and then
        # (2a x + b - s)(2a x + b + s) = 4a (a x^2 + b x + c); f is
        # primitive, so by Gauss's lemma it is the product of the two
        # primitive parts
        a, b, c = f
        disc = b * b - 4 * a * c
        s = math.isqrt(max(disc, 0))
        if s * s != disc:
            out.append((f, 1))
        elif s == 0:
            out.append((primitive([2 * a, b]), 2))
        else:
            out += [(primitive([2 * a, b - s]), 1), (primitive([2 * a, b + s]), 1)]
    elif len(f) == 2 or (roots is not None and len(f) == 4):
        # a linear remainder is its own factor, and a cubic with no
        # rational root left is irreducible
        out.append((f, 1))
    elif len(f) > 1:
        # gcd(f, f') is the product of p^(mult - 1) over the factors p of f,
        # so a squarefree f makes no trial division for multiplicities
        repeated = _gcd(f, _derivative(f))
        f = _divexact(f, repeated)
        for p in _zassenhaus(f) if roots is None or len(f) > 4 else [f]:
            mult = 1
            while (q := _divexact(repeated, p)) is not None:
                repeated, mult = q, mult + 1
            out.append((p, mult))
    out.sort(key=lambda pm: (len(pm[0]), pm[0]))
    return content, out


def primitive(v: list[int]) -> list[int]:
    """v divided by its content, first nonzero entry positive (0 stays 0)."""
    g = math.gcd(*v)
    if g == 0:
        return v
    if next(x for x in v if x) < 0:
        g = -g
    return [x // g for x in v]


def _root_candidates(f: list[int]):
    """Pairs (s, r) with s > 0 and gcd(s, r) = 1 such that every rational
    root of f is some r / s, or None when the divisor search would be too
    long.

    A root r / s in lowest terms has s | f_0, the lead, and r | f(0), and by
    Cauchy's bound it has modulus at most 1 + max |f_i / f_0|, so |r| |f_0|
    <= s (|f_0| + max |f_i|). The divisors of f(0) are searched up to
    whichever of that bound at s = |f_0| and sqrt |f(0)| is smaller.
    """
    lead, c0 = abs(f[0]), abs(f[-1])
    top = lead + max(abs(x) for x in f[1:])
    if max(math.isqrt(lead), min(top, math.isqrt(c0))) > _ROOT_SEARCH_LIMIT:
        return None
    nums = _divisors(c0, top)
    return [(s, r) for s in _divisors(lead, lead) for t in nums
            if t * lead <= s * top and math.gcd(s, t) == 1 for r in (t, -t)]


def _divisors(n: int, bound: int) -> list[int]:
    """The divisors of n > 0 up to bound, in increasing order."""
    small = [t for t in range(1, min(bound, math.isqrt(n)) + 1) if n % t == 0]
    return sorted({x for t in small for x in (t, n // t) if x <= bound})


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors of a primitive squarefree f of positive degree."""
    n = len(f) - 1
    lc = f[0]
    p, monic = _choose_prime(f)
    mods = _factor_mod(monic, p)
    if len(mods) == 1:
        return [f]
    # Mignotte: a factor g of f has |g|_inf <= 2^n |f|_2; the lifted
    # candidates carry a factor of lc on top
    bound = lc * 2**n * (math.isqrt(sum(x * x for x in f)) + 1)
    k = 1
    while p**k <= 2 * bound:
        k += 1
    q = p**k
    lifted = []
    for g in mods:
        h = _mod([x * lc for x in _divmod_mod(monic, g, p)[0]], p)
        lifted.append(_hensel(f, g, h, p, k))
    factors = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = [lc]
            for i in subset:
                cand = _mod(_mul(cand, lifted[i]), q)
            cand = primitive([x - q if 2 * x > q else x for x in cand])
            if cand[-1] == 0 or f[-1] % cand[-1]:
                continue
            quo = _divexact(f, cand)
            if quo is not None:
                factors.append(cand)
                f, lc = quo, quo[0]
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    factors.append(f)
    return factors


def _choose_prime(f: list[int]):
    """The smallest odd prime p not dividing f's lead and keeping f
    squarefree, with the monic image of f modulo p."""
    p = 2
    while True:
        p = _next_prime(p)
        if f[0] % p:
            monic = _mod([x * pow(f[0], -1, p) for x in f], p)
            if len(_xgcd_mod(monic, _mod(_derivative(monic), p), p)[0]) == 1:
                return p, monic


def _next_prime(p: int) -> int:
    p += 1
    while any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p += 1
    return p


def _hensel(f, g, h, p: int, k: int) -> list[int]:
    """Lift f = g h (mod p), g monic and coprime to h, to the monic g mod p^k.

    Linear lifting: with s g + t h = 1 (mod p) and e = (f - g h) / p^j,
    g += p^j (t e rem g) and h += p^j (s e + (t e quo g) h) keep f = g h
    modulo p^(j+1).
    """
    _, s, t = _xgcd_mod(g, h, p)
    q = p
    for _ in range(k - 1):
        err = _sub(f, _mul(g, h))
        e = _mod([x // q for x in err], p)
        quo, rem = _divmod_mod(_mul(t, e), g, p)
        dh = _mod(_add(_mul(s, e), _mul(quo, h)), p)
        g = _add(g, [x * q for x in rem])
        h = _add(h, [x * q for x in dh])
        q *= p
    return _mod(g, q)


def _factor_mod(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f modulo an odd prime.

    Distinct-degree factorisation, then Cantor-Zassenhaus equal-degree
    splitting with a fixed-seed generator, so results are reproducible.
    """
    rng = random.Random(p)
    out = []
    x = [1, 0]
    h = x
    i = 0
    while 2 * (i + 1) <= len(f) - 1:
        i += 1
        h = _powmod(h, p, f, p)
        g = _xgcd_mod(f, _mod(_sub(h, x), p), p)[0]
        if len(g) > 1:
            out.extend(_split_equal_degree(g, i, p, rng))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(f, i: int, p: int, rng) -> list[list[int]]:
    n = len(f) - 1
    if n == i:
        return [f]
    while True:
        a = _mod([rng.randrange(p) for _ in range(n)], p)
        if len(a) < 2:
            continue
        b = _mod(_sub(_powmod(a, (p**i - 1) // 2, f, p), [1]), p)
        g = _xgcd_mod(f, b, p)[0]
        if 1 < len(g) <= n:
            rest = _divmod_mod(f, g, p)[0]
            return (_split_equal_degree(g, i, p, rng)
                    + _split_equal_degree(rest, i, p, rng))


# -- arithmetic over Z -----------------------------------------------------


def _strip(a: list[int]) -> list[int]:
    i = 0
    while i < len(a) - 1 and a[i] == 0:
        i += 1
    return a[i:] or [0]


def _add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    off = len(a) - len(b)
    return _strip(a[:off] + [x + y for x, y in zip(a[off:], b)])


def _sub(a: list[int], b: list[int]) -> list[int]:
    return _add(a, [-x for x in b])


def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _derivative(a: list[int]) -> list[int]:
    n = len(a) - 1
    return _strip([c * (n - i) for i, c in enumerate(a[:-1])])


def _value(a: list[int], r: int, s: int) -> int:
    """s^n a(r / s) for n = deg a, by Horner's rule."""
    acc, power = 0, 1
    for c in a:
        acc = acc * r + c * power
        power *= s
    return acc


def _divexact(a: list[int], b: list[int]):
    """a / b when b divides a over Z, else None."""
    a = list(a)
    n, m = len(a) - 1, len(b) - 1
    if n < m:
        return None
    quo = []
    for i in range(n - m + 1):
        c, r = divmod(a[i], b[0])
        if r:
            return None
        quo.append(c)
        if c:
            for j in range(1, m + 1):
                a[i + j] -= c * b[j]
    return quo if not any(a[n - m + 1:]) else None


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z by primitive pseudo-remainder sequences."""
    a = primitive(a)
    if not any(b):
        return a
    b = primitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b) and any(r):
            # pseudo-division step: scale r so its lead divides exactly
            c = r[0]
            r = [x * b[0] for x in r]
            for j in range(1, len(b)):
                r[j] -= c * b[j]
            r = _strip(r[1:])
        if not any(r):
            return b
        a, b = b, primitive(r)
    return [1]


# -- arithmetic modulo p ---------------------------------------------------


def _mod(a: list[int], p: int) -> list[int]:
    return _strip([x % p for x in a])


def _divmod_mod(a: list[int], b: list[int], p: int):
    """Quotient and remainder of a by b modulo p; b's lead must be a unit."""
    inv = pow(b[0], -1, p)
    r = [x % p for x in a]
    m = len(b) - 1
    quo = []
    while len(r) > m:
        c = r[0] * inv % p
        quo.append(c)
        for j in range(1, m + 1):
            r[j] = (r[j] - c * b[j]) % p
        r.pop(0)
    return _strip(quo), _strip(r)


def _xgcd_mod(a: list[int], b: list[int], p: int):
    """(g, s, t) with s a + t b = g = gcd(a, b) monic, modulo p."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [0], [0], [1]
    while any(r1):
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _mod(_sub(s0, _mul(q, s1)), p)
        t0, t1 = t1, _mod(_sub(t0, _mul(q, t1)), p)
    inv = pow(r0[0], -1, p)
    return ([x * inv % p for x in r0], _mod([x * inv for x in s0], p),
            _mod([x * inv for x in t0], p))


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo (f, p)."""
    result = [1]
    base = _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul(result, base), f, p)[1]
        base = _divmod_mod(_mul(base, base), f, p)[1]
        e >>= 1
    return result
