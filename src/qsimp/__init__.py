"""Exact-arithmetic simplicity decisions for torus-relation Cuntz-Pimsner
algebras, plus the lattice machinery behind them.

`errors` and `intmat` load with the package, since every job parses into
an `IntMatrix`. The other submodules are lazy: each is in `sys.modules`
from the start, as tools that look a layer up there expect, but its code
runs at its first attribute access. So a batch runs only the modules its
jobs use. Inside the package a module refers to a lazy sibling as a module
attribute (`from . import lattice`, then `lattice.join`), because
`from .lattice import join` would run `lattice` at once. The names in
`__all__` resolve through `__getattr__`, which loads their submodule.
"""

import importlib.util
import sys

from . import errors, intmat


def _lazy(name: str):
    """Register submodule `name` without running it, by the importlib
    documentation's recipe for lazy imports."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


chain = _lazy("chain")
finite_oracle = _lazy("finite_oracle")
lattice = _lazy("lattice")
poly = _lazy("poly")
presentation = _lazy("presentation")
simplicity = _lazy("simplicity")

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "chain": ("ChainTrace", "DensityVerdict", "annihilator_step_pos",
              "compute_chain", "decide_density", "step_pos"),
    "errors": ("ConsistencyError", "DimensionMismatch", "NonPositiveDiagonal",
               "ParseError", "QsimpError", "SingularMatrix", "UnsupportedFormat"),
    "finite_oracle": ("FiniteQuiver", "GapResult", "MinimalityReport",
                      "condition_L_finite", "density_1d", "gamma0_finite",
                      "minimal_finite", "verify_minimality_theorem"),
    "intmat": ("IntMatrix", "SmithDecomposition", "adjugate", "det", "snf",
               "unimodular_inverse"),
    "lattice": ("IntegerSublattice", "RationalLattice", "dual_annihilator",
                "dual_lattice", "from_rational_rows", "index", "join", "preimage",
                "pushforward", "standard", "sublattice_index", "sublattice_transform"),
    "presentation": ("Presentation", "index_set", "present", "render"),
    "simplicity": ("Hypotheses", "SimplicityVerdict", "check_hypotheses",
                   "decide", "is_dilation", "normalize"),
}
# name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    try:
        module = globals()[_HOME[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
