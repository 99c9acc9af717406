"""Simplicity verdicts for the torus-relation Cuntz-Pimsner algebra of (F, G).

The decision composes a short cascade of closed-form criteria with the
chain-based density decision:

  R0  a zero determinant is out of scope (the endomorphism is not onto);
  R1  two unimodular matrices generate nothing, hence never simple;
  R3  a dilation matrix against a unimodular partner is simple;
  R4  scalar-versus-triangular pairs obey the diagonal avoidance test;
  R5  otherwise density of the generated subgroup decides, exactly.

R5 always reaches a verdict, so only R0 answers Unknown, and R5 is the one
path past the closed forms.

R2, `normalize`, is not a step of the cascade: it moves (F, G) to the
verdict-equivalent pair (|det F| * I, D V U) through the adjugate and a
Smith decomposition of adj(F) * G, and decides nothing by itself. Its
moves are reductions: (H F, H G) and (F H, G H) for a nonsingular H have
the verdict of (F, G), which the test suite exercises on the matrix
products as the module's central property.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import chain as _chain
from .errors import DimensionMismatch, NotTriangular, SingularMatrix
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
    loop has an exit, holds once both maps are onto with finite kernels and
    one of them is not injective; it is None otherwise, since the loop
    quiver of a pair of automorphisms genuinely fails it and a singular
    pair is out of scope.
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
    reverses the coefficients. Integer arithmetic throughout.
    """
    c = list(low_coeffs)
    n = len(c) - 1
    while n > 0:
        b0, bn = c[0], c[n]
        if abs(b0) >= abs(bn):
            return False
        c = [bn * c[i + 1] - b0 * c[n - 1 - i] for i in range(n)]
        n -= 1
    return True


def is_dilation(f: IntMatrix) -> bool:
    """Every eigenvalue has modulus strictly above 1, decided exactly.

    The reversed characteristic polynomial has the reciprocal roots, so the
    question becomes Schur stability of an integer polynomial; no floating
    point enters the decision. A singular f has the root 0, which the
    reduction rejects at once.
    """
    high_first = charpoly(f)
    # x^d * p(1/x) has exactly these numbers as low-to-high coefficients
    return _schur_stable(high_first)


def triangular_criterion(n: int, g: IntMatrix) -> bool:
    """Diagonal avoidance test for the pair (n * I, G) with G triangular."""
    if not (g.is_upper_triangular() or g.is_lower_triangular()):
        raise NotTriangular("criterion applies to triangular matrices only")
    diagonal = [abs(row[j]) for j, row in enumerate(g.rows)]
    # a triangular matrix is singular exactly when its diagonal holds a 0
    if not all(diagonal):
        raise SingularMatrix("criterion needs det(G) != 0")
    return n not in diagonal


def normalize(f: IntMatrix, g: IntMatrix):
    """Verdict-equivalent pair (|det F| * I, D V U) with adj(F) G = U D V.

    Returns (n, t, transcript); the transcript records each reduction
    applied. Sign flips of either matrix never change any lattice in the
    chain, so |det F| stands in for det F.

    snf gives P adj(F) G Q = D, so U = P^{-1}, V = Q^{-1} and
    D V U = D (P Q)^{-1}, one unimodular inversion. det F and adj(F) come
    from one Faddeev-LeVerrier pass. A pair out of scope raises
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
    rules: list[tuple[str, str]],
    hyp: Hypotheses,
    density=None,
    witness=None,
) -> SimplicityVerdict:
    kirchberg = status == SIMPLE and (abs(hyp.det_f) != 1 or abs(hyp.det_g) != 1)
    return SimplicityVerdict(status, rules, hyp, density, kirchberg, witness)


def decide(f: IntMatrix, g: IntMatrix) -> SimplicityVerdict:
    """Run the rule cascade; the first rule that applies decides.

    Every rule that contributes to the decision path is logged with a
    human-readable reason. Only R0 answers Unknown.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    hyp = check_hypotheses(f, g)
    rules: list[tuple[str, str]] = []

    if hyp.det_f == 0 or hyp.det_g == 0:
        rules.append(
            (
                "R0-scope",
                "zero determinant: the endomorphism is not onto, the "
                "criterion does not apply",
            )
        )
        return _verdict(UNKNOWN, rules, hyp)

    if hyp.both_automorphisms:
        rules.append(
            (
                "R1-automorphisms",
                "both matrices unimodular: the generated subgroup is trivial "
                "and never dense",
            )
        )
        return _verdict(NOT_SIMPLE, rules, hyp)

    # R3, then R4, each tried on (F, G) and then on the swapped pair
    pairs = (
        (f, g, "F", "G", hyp.det_g, ""),
        (g, f, "G", "F", hyp.det_f, " (pair swapped)"),
    )
    for a, b, name_a, name_b, det_b, _ in pairs:
        if abs(det_b) == 1 and is_dilation(a @ unimodular_inverse(b)):
            rules.append(
                (
                    "R3-dilation",
                    f"{name_b} unimodular and {name_a} {name_b}^{{-1}} a dilation matrix",
                )
            )
            return _verdict(SIMPLE, rules, hyp)
    for a, b, name_a, name_b, _, swapped in pairs:
        n_a = _scalar_of(a)
        if (
            n_a is not None
            and (b.is_upper_triangular() or b.is_lower_triangular())
            and triangular_criterion(n_a, b)
        ):
            rules.append(
                (
                    "R4-triangular",
                    f"{name_a} = {n_a} * I and {name_b} triangular with no "
                    f"diagonal entry of modulus {n_a}{swapped}",
                )
            )
            return _verdict(SIMPLE, rules, hyp)

    dv = _chain.decide_density(f, g)
    if dv.status == _chain.DENSE:
        rules.append(("R5-density", f"generated subgroup dense: {dv.reason}"))
        return _verdict(SIMPLE, rules, hyp, density=dv)
    rules.append(
        (
            "R5-density",
            f"generated subgroup not dense, witness character "
            f"{list(dv.witness)}",
        )
    )
    return _verdict(NOT_SIMPLE, rules, hyp, density=dv, witness=dv.witness)
