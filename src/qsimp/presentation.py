"""Universal generator/relation presentations as symbolic data.

Generators never become operators here; the emitter does exact bookkeeping
only. A presentation lists the isometries S_nu indexed by the multi-index
set of a positive diagonal matrix, commuting unitaries U_1..U_d, and four
relation groups; the Toeplitz variant drops the cover relation.
"""

from __future__ import annotations

import json
from itertools import product
from typing import NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    NonPositiveDiagonal,
    OutputTooLarge,
    SingularMatrix,
    UnsupportedFormat,
)
from .intmat import IntMatrix, det, snf

UNITARY_NOTE = "commuting unitaries with full spectrum"
# bound on |det F|, the number of multi-indices, which a result prints
# twice (index_set and the monomial relations) and holds in memory whole.
# At the bound the json of 512*I_2 is 5.0 MB, about what a trace at the
# largest max_depth prints; a line with |det F| of 7.7 * 10^8 ran out of memory
MAX_INDICES = 1 << 18


class RelationGroup(NamedTuple):
    kind: str  # orthogonality | monomial | intertwine | cover
    items: tuple


class Presentation(NamedTuple):
    dim: int
    diag: tuple[int, ...]
    index_set: tuple[tuple[int, ...], ...]
    g_rows: tuple[tuple[int, ...], ...]
    relations: tuple[RelationGroup, ...]
    toeplitz: bool
    transform: tuple[str, ...]
    unitary_note: str = UNITARY_NOTE


def index_set(f_diag: Sequence[int]) -> list[tuple[int, ...]]:
    """Multi-indices nu with 0 <= nu_j <= a_j - 1, lexicographically ordered."""
    if any(a < 1 for a in f_diag):
        raise NonPositiveDiagonal("diagonal entries must be at least 1")
    return list(product(*(range(a) for a in f_diag)))


def present(f: IntMatrix, g: IntMatrix, toeplitz: bool = False) -> Presentation:
    """Presentation of the algebra of (F, G), normalizing F first.

    With the Smith decomposition P F Q = D, F gets replaced by the positive
    diagonal D and G by P G Q, a verdict-preserving move recorded in the
    transform transcript, which writes F = U D V with U = P^{-1} and
    V = Q^{-1}. Already-diagonal positive F passes through untouched.
    F and G of different sizes raise DimensionMismatch. The index set has
    |det F| multi-indices; past MAX_INDICES this raises OutputTooLarge
    before the Smith decomposition or the index set is built.
    """
    if f.dim != g.dim:
        raise DimensionMismatch("F and G must have equal dimensions")
    det_f = det(f)
    if det_f == 0 or det(g) == 0:
        raise SingularMatrix("presentation needs nonsingular matrices")
    if abs(det_f) > MAX_INDICES:
        raise OutputTooLarge(
            f"the index set has |det F| multi-indices, more than {MAX_INDICES}"
        )
    d = f.dim
    if f.is_diagonal() and all(f.rows[i][i] > 0 for i in range(d)):
        diag = tuple(f.rows[i][i] for i in range(d))
        g_norm = g
        transform = ("F already positive diagonal; no transformation applied",)
    else:
        p, dmat, q = snf(f)
        diag = tuple(dmat.rows[i][i] for i in range(d))
        g_norm = p @ g @ q
        transform = (
            "factored F = U D V with D = diag" + str(list(diag)),
            "replaced (F, G) by (D, U^{-1} G V^{-1})",
        )
    nus = tuple(index_set(diag))
    g_rows = g_norm.rows
    groups = [
        RelationGroup("orthogonality", ()),
        RelationGroup("monomial", nus),
        RelationGroup(
            "intertwine", tuple((j, diag[j], g_rows[j]) for j in range(d))
        ),
    ]
    if not toeplitz:
        groups.append(RelationGroup("cover", ()))
    return Presentation(
        dim=d,
        diag=diag,
        index_set=nus,
        g_rows=g_rows,
        relations=tuple(groups),
        toeplitz=toeplitz,
        transform=transform,
    )


def to_dict(p: Presentation) -> dict:
    """`p` as a dict for the encoder; its tuples stay tuples, which JSON
    writes as arrays."""
    return {**p._asdict(), "relations": [gr._asdict() for gr in p.relations]}


def _tuples(value):
    """A decoded JSON value with every array turned back into a tuple."""
    if isinstance(value, list):
        return tuple(map(_tuples, value))
    if isinstance(value, dict):
        return {key: _tuples(v) for key, v in value.items()}
    return value


def from_dict(data: dict) -> Presentation:
    fields = _tuples(data)
    fields["relations"] = tuple(RelationGroup(**gr) for gr in fields["relations"])
    return Presentation(**fields)


def _u_symbol(j: int, dim: int) -> str:
    return "U" if dim == 1 else f"U_{{{j + 1}}}"


def _u_power(exponents: Sequence[int], dim: int) -> str:
    parts = []
    for j, e in enumerate(exponents):
        if e == 0:
            continue
        sym = _u_symbol(j, dim)
        parts.append(sym if e == 1 else f"{sym}^{{{e}}}")
    return "".join(parts) if parts else "1"


def _s_symbol(nu: tuple[int, ...], dim: int) -> str:
    if dim == 1:
        return f"S_{{{nu[0]}}}"
    return "S_{(" + ",".join(str(x) for x in nu) + ")}"


def _relation_lines(p: Presentation) -> list[tuple[str, list[str]]]:
    blocks = []
    for gr in p.relations:
        if gr.kind == "orthogonality":
            blocks.append(
                ("orthogonality", ["S_\\nu^* S_{\\nu'} = \\delta_{\\nu,\\nu'}"])
            )
        elif gr.kind == "monomial":
            lines = []
            for nu in gr.items:
                upow = _u_power(nu, p.dim)
                rhs = "S" if upow == "1" else f"{upow}S"
                lines.append(f"{_s_symbol(nu, p.dim)} = {rhs}")
            blocks.append(("monomial", lines))
        elif gr.kind == "intertwine":
            lines = []
            for j, a, row in gr.items:
                lhs_sym = _u_symbol(j, p.dim)
                lhs = lhs_sym if a == 1 else f"{lhs_sym}^{{{a}}}"
                rhs = _u_power(row, p.dim)
                rhs = "S" if rhs == "1" else f"S{rhs}"
                lines.append(f"{lhs}S = {rhs}")
            blocks.append(("intertwine", lines))
        elif gr.kind == "cover":
            blocks.append(
                ("cover", ["\\sum_{\\nu} S_\\nu S_\\nu^* = 1"])
            )
    return blocks


def render(p: Presentation, format: str) -> str:
    """Deterministic serialization; json round-trips through from_dict."""
    if format == "json":
        return json.dumps(to_dict(p), separators=(",", ":"))
    if format == "latex":
        out = [
            "\\begin{align*}",
            f"% isometries indexed by {len(p.index_set)} multi-indices; "
            f"{p.unitary_note}",
        ]
        for _, lines in _relation_lines(p):
            for line in lines:
                out.append(line + r" \\")
        out.append("\\end{align*}")
        return "\n".join(out)
    if format == "text":
        out = [
            f"dimension {p.dim}, diagonal {list(p.diag)}, "
            f"{len(p.index_set)} isometries, {p.dim} unitaries "
            f"({p.unitary_note})",
        ]
        for i, (kind, lines) in enumerate(_relation_lines(p), start=1):
            out.append(f"({i}) {kind}:")
            out.extend("    " + line for line in lines)
        return "\n".join(out)
    raise UnsupportedFormat(f"unknown format: {format}")
