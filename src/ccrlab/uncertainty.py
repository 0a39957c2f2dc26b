"""Uncertainty products of canonical pairs and minimum-uncertainty detection.

For a Hermitian pair satisfying [A, B] phi = ic phi on the domain, the
product of uncertainties is bounded below by |c|/2.  Saturation happens
exactly when phi is an eigenvector of A - i*gamma*B for some real
nonzero gamma; the detector fits gamma by least squares over (gamma, mu),
which has a closed form:

    gamma* = -Im <A'phi, B'phi> / (Delta B)^2,

with A', B' the mean-shifted operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NotNormalized, StateOutsideDomain
from .matrix_core import require_hermitian
from .pair_builder import CanonicalSolution


def expectation(a, phi) -> float:
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    return float(np.real(np.vdot(phi, np.asarray(a, dtype=complex) @ phi)))


def uncertainty(a, phi, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Standard deviation sqrt(<A^2> - <A>^2) of Hermitian A in state phi."""
    a = require_hermitian(a, tol)
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(phi) - 1.0) > tol.norm_tol:
        raise NotNormalized("state must have unit norm")
    aphi = a @ phi
    mean = np.real(np.vdot(phi, aphi))
    return float(std_from_moments(mean, np.real(np.vdot(aphi, aphi))))


def std_from_moments(mean, second):
    """sqrt(<A^2> - <A>^2) elementwise from the first two moments.

    Raises if any variance is negative beyond rounding.
    """
    var = np.asarray(second, dtype=float) - np.asarray(mean, dtype=float) ** 2
    if np.any(var < -1e-14):
        raise ValueError(f"variance {np.min(var)} is negative beyond rounding")
    return np.sqrt(np.maximum(var, 0.0))


@dataclass(frozen=True)
class UncertaintyReport:
    """Uncertainties of a pair on one domain state.

    gamma is the fitted value whether or not the report is saturated;
    gamma_residual says how far phi is from an eigenvector of A - i*gamma*B.
    """

    delta_A: float
    delta_B: float
    product: float
    floor: float
    saturated: bool
    gamma: Optional[float] = None
    gamma_residual: float = float("nan")


def _fit_gamma(a, b, phi):
    """Real gamma and residual minimizing ||(A - i gamma B) phi - mu phi||."""
    aphi = a @ phi
    bphi = b @ phi
    mean_a = float(np.real(np.vdot(phi, aphi)))
    mean_b = float(np.real(np.vdot(phi, bphi)))
    ap = aphi - mean_a * phi
    bp = bphi - mean_b * phi
    var_b = float(np.real(np.vdot(bp, bp)))
    if var_b <= 1e-30:
        return 0.0, float(np.linalg.norm(ap))
    cross = complex(np.vdot(ap, bp))
    gamma = -cross.imag / var_b
    # a norm, not the expanded quadratic, which cancellation leaves at ~sqrt(eps)
    return gamma, float(np.linalg.norm(ap - 1j * gamma * bp))


def _require_in_domain(sol: CanonicalSolution, phi, tol: ToleranceConfig):
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(phi) - 1.0) > 1e-10:
        raise NotNormalized("state must have unit norm")
    dist = sol.domain.distance(phi)
    if dist > tol.membership_tol:
        raise StateOutsideDomain(f"state is {dist:.3e} away from the canonical domain")
    return phi


def audit_pair(sol: CanonicalSolution, phi, tol: ToleranceConfig = DEFAULT_TOL) -> UncertaintyReport:
    """Uncertainty product, floor |c|/2, and saturation status for a domain state."""
    phi = _require_in_domain(sol, phi, tol)
    da = uncertainty(sol.A, phi, tol)
    db = uncertainty(sol.B, phi, tol)
    floor = abs(sol.c) / 2.0
    gamma, residual = _fit_gamma(sol.A, sol.B, phi)
    saturated = residual <= tol.saturation_tol and abs(gamma) > 1e-10
    return UncertaintyReport(da, db, da * db, floor, saturated, gamma, residual)


def nonvanishing_check(sol: CanonicalSolution, phi, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff both uncertainties are bounded away from zero on the domain state."""
    phi = _require_in_domain(sol, phi, tol)
    return uncertainty(sol.A, phi, tol) > 1e-10 and uncertainty(sol.B, phi, tol) > 1e-10
