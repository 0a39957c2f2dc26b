"""ccrlab: canonical operator pairs, commutator analysis and quantum clocks
in finite-dimensional Hilbert spaces."""

from . import errors
from .clock import (
    PASSAGE_TIME,
    TIME_OF_ARRIVAL,
    ClockConfig,
    ClockTrace,
    LinearityFit,
    WindowTooWide,
    clock_from_solution,
    clock_trace,
    commuting_factor,
    commuting_factor_matrix,
    heisenberg_T,
    linearity_fit,
)
from .commutator_lab import (
    RelationReport,
    classify,
    commutator_fixing_state,
    dft_zero_diagonal,
    factorize,
)
from .config import DEFAULT_TOL, ToleranceConfig, tolerances_from_env
from .invariant_sets import (
    GcdConfig,
    InvariantKind,
    InvariantSet,
    check_membership,
    invariant_set,
    real_gcd,
)
from .matrix_core import (
    Propagator,
    SpectralData,
    Subspace,
    commutator,
    eigenspace,
    eigh,
    evolve,
    normal_eig,
    propagator,
    require_hermitian,
    span,
)
from .pair_builder import (
    CATALOG_FAMILIES,
    CanonicalSolution,
    CatalogParams,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
    default_catalog_params,
    project_pair,
    remap_essential_to_canonical,
)
from .uncertainty import (
    UncertaintyReport,
    audit_pair,
    expectation,
    nonvanishing_check,
    uncertainty,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
