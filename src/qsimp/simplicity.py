"""Simplicity verdicts for the torus-relation Cuntz-Pimsner algebra of (F, G).

The decision composes a short cascade of closed-form criteria with the
chain-based density decision:

  R0  a zero determinant is out of scope (the endomorphism is not onto);
  R1  two unimodular matrices generate nothing, hence never simple;
  R3  a dilation matrix against a unimodular partner is simple;
  R4  scalar-versus-triangular pairs obey the diagonal avoidance test;
  R5  otherwise density of the generated subgroup decides, exactly.

R5 always reaches a verdict, so only R0 answers Unknown, and R5 is the one
path past the closed forms. Each verdict names the one rule that decided it.

R3 and R4 never compete. After R1 at most one matrix is unimodular. When
one is, R3 is tried once, with that matrix as B, and R4 is not tried,
because R4 can hold on (A, B) = (n I, triangular) only where R3 holds:

  * if the unimodular matrix is A = +-I, R4 needs every |b_ii| >= 2; then
    B A^{-1} = +-B is triangular with eigenvalues b_ii, a dilation, so R3
    fires on (B, A);
  * if the unimodular matrix is B, its triangular diagonal is +-1, so R4
    needs A = +-n I with n >= 2 (n = 1 is R1); then A B^{-1} = +-n B^{-1}
    has every eigenvalue of modulus n, so R3 fires on (A, B).

When neither matrix is unimodular R3 cannot apply, and R4 is tried on
(F, G) and then on the swapped pair.

R2, `normalize`, is not a step of the cascade: it moves (F, G) to the
verdict-equivalent pair (|det F| * I, D V U) through the adjugate and a
Smith decomposition of adj(F) * G, and decides nothing by itself. Its
moves are reductions: (H F, H G) and (F H, G H) for a nonsingular H have
the verdict of (F, G), which the test suite exercises on the matrix
products as the module's central property.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from . import chain as _chain
from .errors import DimensionMismatch, SingularMatrix
from .intmat import IntMatrix, charpoly, det, det_adjugate, snf, unimodular_inverse

SIMPLE = "Simple"
NOT_SIMPLE = "NotSimple"
UNKNOWN = "Unknown"


class Hypotheses(NamedTuple):
    det_f: int
    det_g: int
    ker_f_size: Optional[int]
    ker_g_size: Optional[int]
    condition_L: Optional[bool]
    both_automorphisms: bool


class SimplicityVerdict(NamedTuple):
    """A verdict, the one rule that decided it, and what it rests on.

    `kirchberg_flag` marks a simple algebra with |det F| or |det G| above 1.
    It equals `status == "Simple"`: R1 answers every pair of two unimodular
    matrices NotSimple, so a Simple pair always has such a determinant. The
    field stays because the `decide` output prints it as "kirchberg".
    """

    status: str
    rules_fired: list[tuple[str, str]]
    hypotheses: Hypotheses
    density: Optional[_chain.DensityVerdict]
    kirchberg_flag: bool
    witness: Optional[tuple[int, ...]] = None


def check_hypotheses(f: IntMatrix, g: IntMatrix) -> Hypotheses:
    """Determinants, kernel sizes, and the injectivity bookkeeping.

    Kernel sizes are |det|, finite exactly when the determinant is nonzero;
    zero determinants are reported rather than raised. Condition (L), every
    loop has an exit, is meant in its topological form (Muhly-Tomforde,
    2005): the base points of the loops without exits have empty interior.
    It is True once both maps are onto with finite kernels and one of them
    is not injective. None means "not decided here": for a pair of
    automorphisms, which satisfies (L) exactly when G^{-1} F has infinite
    order (the hyperbolic pair ([[2, 1], [1, 1]], I) does, (I, I) does
    not), and for a singular pair, which is out of scope.
    """
    df, dg = det(f), det(g)
    both_automorphisms = abs(df) == 1 and abs(dg) == 1
    return Hypotheses(
        det_f=df,
        det_g=dg,
        ker_f_size=abs(df) if df != 0 else None,
        ker_g_size=abs(dg) if dg != 0 else None,
        condition_L=True if df and dg and not both_automorphisms else None,
        both_automorphisms=both_automorphisms,
    )


def _schur_stable(low_coeffs: list[int]) -> bool:
    """All roots strictly inside the unit disk, exactly.

    Classic reduction: with b0 the constant and bn the leading coefficient,
    stability requires |b0| < |bn| and passes to (bn*p - b0*p~)/z where p~
    reverses the coefficients. Integer arithmetic throughout. Each new
    polynomial is divided by its content, a positive integer (its lead
    bn^2 - b0^2 is positive), which moves no root and so changes no
    comparison; undivided, the bit length of the coefficients doubles at
    every step, and a dilation, which passes all d steps, ends with about
    2^d times the input's bits.
    """
    c = list(low_coeffs)
    n = len(c) - 1
    while n > 0:
        b0, bn = c[0], c[n]
        if abs(b0) >= abs(bn):
            return False
        c = [bn * c[i + 1] - b0 * c[n - 1 - i] for i in range(n)]
        g = math.gcd(*c)
        c = [x // g for x in c]
        n -= 1
    return True


def is_dilation(f: IntMatrix) -> bool:
    """Every eigenvalue has modulus strictly above 1, decided exactly.

    The reversed characteristic polynomial has the reciprocal roots, so the
    question becomes Schur stability of an integer polynomial; no floating
    point enters the decision. A singular f has the root 0, which the
    reduction rejects at once. The polynomial comes from the power sums
    tr(f^k), which take O(sqrt(d)) matrix products (intmat.charpoly).
    """
    high_first = charpoly(f)
    # x^d * p(1/x) has exactly these numbers as low-to-high coefficients
    return _schur_stable(high_first)


def _triangular_avoids(n: int, b: IntMatrix) -> bool:
    """R4's test on the pair (n * I, B): B is triangular and no diagonal
    entry of B has modulus n. decide calls it on nonsingular pairs only, so
    the diagonal holds no 0."""
    if not (b.is_upper_triangular() or b.is_lower_triangular()):
        return False
    return n not in {abs(row[j]) for j, row in enumerate(b.rows)}


def normalize(f: IntMatrix, g: IntMatrix):
    """Verdict-equivalent pair (|det F| * I, D V U) with adj(F) G = U D V.

    Returns (n, t, transcript); the transcript records each reduction
    applied. Sign flips of either matrix never change any lattice in the
    chain, so |det F| stands in for det F.

    snf gives P adj(F) G Q = D, so U = P^{-1}, V = Q^{-1} and
    D V U = D (P Q)^{-1}, one unimodular inversion. det F and adj(F) come
    from one fraction-free Gauss-Jordan pass. A pair out of scope raises
    DimensionMismatch or SingularMatrix; a singular G leaves adj(F) G
    singular, which snf rejects.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    df, adj_f = det_adjugate(f)
    if df == 0:
        raise SingularMatrix("normalize needs det(F) != 0")
    p, dmat, q = snf(adj_f @ g)
    t = dmat @ unimodular_inverse(p @ q)
    transcript = [
        "left-compose with adj(F): (F, G) ~ (det F * I, adj(F) G)",
        "Smith rotation: (det F * I, U D V) ~ (det F * I, D V U)",
        f"sign normalization: det F = {df} replaced by {abs(df)}",
    ]
    return abs(df), t, transcript


def _scalar_of(m: IntMatrix) -> Optional[int]:
    c = m.scalar_value()
    return abs(c) if c is not None else None


def _verdict(
    status: str,
    rule: tuple[str, str],
    hyp: Hypotheses,
    density: Optional[_chain.DensityVerdict] = None,
) -> SimplicityVerdict:
    witness = None if density is None else density.witness
    return SimplicityVerdict(status, [rule], hyp, density, status == SIMPLE, witness)


def decide(f: IntMatrix, g: IntMatrix) -> SimplicityVerdict:
    """Run the rule cascade; the first rule that applies decides.

    The verdict names that one rule with a human-readable reason. Only R0
    answers Unknown.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    hyp = check_hypotheses(f, g)

    if hyp.det_f == 0 or hyp.det_g == 0:
        return _verdict(UNKNOWN, (
            "R0-scope",
            "zero determinant: the endomorphism is not onto, the criterion "
            "does not apply",
        ), hyp)

    if hyp.both_automorphisms:
        return _verdict(NOT_SIMPLE, (
            "R1-automorphisms",
            "both matrices unimodular: the generated subgroup is trivial and "
            "never dense",
        ), hyp)

    if abs(hyp.det_g) == 1 or abs(hyp.det_f) == 1:
        # R3 with the unimodular matrix as b; R4 cannot fire where R3 does
        # not (module docstring)
        a, b, name_a, name_b = (f, g, "F", "G") if abs(hyp.det_g) == 1 else (g, f, "G", "F")
        if is_dilation(a @ unimodular_inverse(b)):
            return _verdict(SIMPLE, (
                "R3-dilation",
                f"{name_b} unimodular and {name_a} {name_b}^{{-1}} a dilation matrix",
            ), hyp)
    else:
        for a, b, name_a, name_b, swapped in (
            (f, g, "F", "G", ""), (g, f, "G", "F", " (pair swapped)")
        ):
            n_a = _scalar_of(a)
            if n_a is not None and _triangular_avoids(n_a, b):
                return _verdict(SIMPLE, (
                    "R4-triangular",
                    f"{name_a} = {n_a} * I and {name_b} triangular with no "
                    f"diagonal entry of modulus {n_a}{swapped}",
                ), hyp)

    dv = _chain.decide_density(f, g)
    if dv.status == _chain.DENSE:
        return _verdict(SIMPLE, ("R5-density", f"generated subgroup dense: {dv.reason}"),
                        hyp, dv)
    return _verdict(NOT_SIMPLE, (
        "R5-density",
        f"generated subgroup not dense, witness character {list(dv.witness)}",
    ), hyp, dv)
