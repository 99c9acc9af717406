"""Exact-arithmetic simplicity decisions for torus-relation Cuntz-Pimsner
algebras, plus the lattice machinery behind them."""

from .chain import (
    ChainTrace,
    DensityVerdict,
    annihilator_step_pos,
    compute_chain,
    decide_density,
    step_pos,
)
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NonPositiveDiagonal,
    NotTriangular,
    ParseError,
    QsimpError,
    SingularMatrix,
    UnsupportedFormat,
)
from .finite_oracle import (
    FiniteQuiver,
    GapResult,
    MinimalityReport,
    condition_L_finite,
    density_1d,
    gamma0_finite,
    minimal_finite,
    verify_minimality_theorem,
)
from .intmat import (
    IntMatrix,
    SmithDecomposition,
    adjugate,
    det,
    snf,
    unimodular_inverse,
)
from .lattice import (
    IntegerSublattice,
    RationalLattice,
    contains,
    dual_annihilator,
    dual_lattice,
    from_kernel,
    from_rational_rows,
    index,
    join,
    preimage,
    pushforward,
    standard,
    sublattice_contains,
    sublattice_from_rows,
    sublattice_index,
    sublattice_transform,
)
from .presentation import Presentation, index_set, present, render
from .simplicity import (
    Hypotheses,
    SimplicityVerdict,
    check_hypotheses,
    decide,
    is_dilation,
    normalize,
    reduce_left,
    reduce_right,
    triangular_criterion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
