"""Tolerance configuration shared by all numerical routines.

Tolerances are threaded explicitly; there is no global mutable state.
The CCRLAB_TOL environment variable, when set, replaces the base
spectral tolerance and rescales the derived tolerances proportionally.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

_BASE_SPECTRAL_TOL = 1e-10


@dataclass(frozen=True)
class ToleranceConfig:
    hermiticity_tol: float = 1e-12   # relative to matrix max-norm
    spectral_tol: float = _BASE_SPECTRAL_TOL
    cluster_tol: float = 1e-8        # relative eigenvalue gap for degeneracy clustering
    norm_tol: float = 1e-12          # state normalization
    ccr_tol: float = 1e-10           # relative to ||A||*||B||
    membership_tol: float = 1e-8     # invariant-set membership residual
    saturation_tol: float = 1e-8     # minimum-uncertainty detector residual

    @property
    def relation_window(self) -> float:
        """Relative window, 100x spectral_tol, within which a computed
        eigenvalue matches the c of a relation (or a residual counts as zero)."""
        return 100 * self.spectral_tol

    def scaled(self, factor: float) -> "ToleranceConfig":
        """Every tolerance multiplied by factor."""
        return replace(self, **{f.name: getattr(self, f.name) * factor for f in fields(self)})


DEFAULT_TOL = ToleranceConfig()


def tolerances_from_env(environ=None) -> ToleranceConfig:
    """Build a ToleranceConfig, honoring the CCRLAB_TOL override."""
    env = os.environ if environ is None else environ
    raw = env.get("CCRLAB_TOL")
    if raw is None:
        return DEFAULT_TOL
    base = float(raw)
    if base <= 0:
        raise ValueError("CCRLAB_TOL must be a positive float")
    return DEFAULT_TOL.scaled(base / _BASE_SPECTRAL_TOL)
