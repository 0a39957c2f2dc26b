"""Finite-dimensional quantum clocks built from time operators.

A time operator T forms a canonical pair with the generator H on a
domain; near the invariant set of exp(-iHt/hbar) the Heisenberg-picture
expectation of T is linear in the elapsed parameter with slope +1
(passage-time type) or -1 (time-of-arrival type).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    BasePointNotInvariant,
    ConstraintViolated,
    DimensionMismatch,
    StateOutsideDomain,
)
from .matrix_core import (
    Propagator,
    Subspace,
    as_matrix,
    ccr_tolerance,
    commutator,
    eigenspace,
    propagator,
    relation_residual,
    require_hermitian,
    require_normalized,
)
from .pair_builder import CanonicalSolution
from .uncertainty import std_from_moments

PASSAGE_TIME = +1
TIME_OF_ARRIVAL = -1


class WindowTooWide(UserWarning):
    pass


@dataclass(frozen=True)
class ClockConfig:
    """Generator H and time operator T, certified against tol on construction.

    H = V diag(E) V† is decomposed once, into the propagator every clock
    routine reads, and T is kept in that eigenbasis as T_e = V†TV.
    """

    H: np.ndarray
    T: np.ndarray
    domain: Subspace
    sign: int = PASSAGE_TIME
    hbar: float = 1.0
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False, compare=False)
    propagator: Propagator = field(init=False, repr=False, compare=False)
    T_e: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (PASSAGE_TIME, TIME_OF_ARRIVAL):
            raise ValueError("sign must be +1 (passage time) or -1 (time of arrival)")
        # certifies H as Hermitian and rejects hbar <= 0
        object.__setattr__(self, "propagator", propagator(self.H, self.hbar, self.tol))
        h, t = as_matrix(self.H), require_hermitian(self.T, self.tol)
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "T", t)
        if self.domain.basis.shape[0] != h.shape[0]:
            raise DimensionMismatch(f"the domain is not a subspace of C^{h.shape[0]}")
        if self.domain.dim == 0:
            raise ConstraintViolated("clock domain is empty")
        worst = relation_residual(commutator(t, h), self.sign * 1j * self.hbar,
                                  self.domain.basis)
        if worst > ccr_tolerance(t, h, self.tol):
            raise ConstraintViolated(
                f"[T, H] - {self.sign:+d}*i*hbar fails on the domain (residual {worst:.3e})")
        sd = self.propagator.spectral
        t_e = sd.to_eigenbasis(t)  # V†T, then V†TV; for a permutation V, two gathers
        t_e = t_e[:, sd.permutation] if sd.permutation is not None else t_e @ sd.eigenvectors
        object.__setattr__(self, "T_e", require_hermitian(t_e, self.tol))

    @property
    def h_norm(self) -> float:
        """||H||_2 = max |E| over H's spectrum, as clock_trace reports it."""
        return float(np.max(np.abs(self.propagator.spectral.eigenvalues)))


def clock_from_solution(sol: CanonicalSolution, h=None, sign: int = PASSAGE_TIME,
                        tol: ToleranceConfig = DEFAULT_TOL) -> ClockConfig:
    """Interpret a canonical solution as a clock: T = A, H = B by default.

    For the time-of-arrival sign the domain is the eigenspace of [A, B]
    at -i*hbar instead of the solution's own domain.
    """
    h = sol.B if h is None else np.asarray(h, dtype=complex)
    domain = sol.domain
    if sign == TIME_OF_ARRIVAL:
        c = commutator(sol.A, h)
        domain = eigenspace(c, -1j * sol.hbar, tol)
        if domain.dim == 0:
            raise ConstraintViolated("no -i*hbar eigenspace: pair has no arrival-type domain")
    return ClockConfig(h, sol.A, domain, sign, sol.hbar, tol)


def heisenberg_T(cfg: ClockConfig, t: float) -> np.ndarray:
    """T(t) = exp(iHt/hbar) T exp(-iHt/hbar) = V (conj(p) p^T ⊙ T_e) V†."""
    v, p = cfg.propagator.spectral.eigenvectors, cfg.propagator.phases(t)
    return v @ (np.outer(p.conj(), p) * cfg.T_e) @ v.conj().T


@dataclass(frozen=True)
class ClockTrace:
    tau_grid: np.ndarray
    expectation: np.ndarray
    delta_T: np.ndarray
    delta_H: np.ndarray
    uncertainty_product: np.ndarray
    t0: float
    base_point: float
    h_norm: float = 0.0
    hbar: float = 1.0


def clock_trace(cfg: ClockConfig, phi, base_point: float, tau_grid) -> ClockTrace:
    """Expectation and uncertainty product of T(base_point + tau) on phi.

    The base point must belong to the invariant set of exp(-iHt/hbar)
    (checked by evolving the domain), and phi must be a unit domain state:
    NotNormalized or StateOutsideDomain otherwise, the latter when phi
    lies more than cfg.tol.membership_tol from the domain.

    Every sample is read in the eigenbasis of the config's H = V diag(E) V†:
    with psi(t) = exp(-iEt/hbar) * V†phi, <T(t)> = <psi(t), T_e psi(t)> and
    <T(t)^2> = ||T_e psi(t)||^2.  When V is a permutation (a diagonal H),
    V†phi is a gather.
    """
    prop, tol = cfg.propagator, cfg.tol
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    # the evolved domain basis and phi, measured from the domain in one pass
    dists = cfg.domain.distances(
        np.column_stack([prop.apply(base_point, cfg.domain.basis), phi]), tol)
    resid = float(np.max(dists[:-1], initial=0.0))
    if resid > tol.membership_tol:
        raise BasePointNotInvariant(
            f"t = {base_point} leaves the domain (residual {resid:.3e})")
    phi = require_normalized(phi, tol)
    if dists[-1] > tol.membership_tol:
        raise StateOutsideDomain(f"phi lies {dists[-1]:.3e} from the clock's domain")
    tau_grid = np.asarray(tau_grid, dtype=float).reshape(-1)
    sd = prop.spectral
    phi_e = sd.to_eigenbasis(phi)
    # one column per sample, and base_point itself last for t0
    psi = prop.phases(np.append(base_point + tau_grid, base_point)) * phi_e[:, None]
    t_psi = cfg.T_e @ psi
    means = np.real(np.sum(psi.conj() * t_psi, axis=0))
    second_moments = np.real(np.sum(t_psi.conj() * t_psi, axis=0))
    dts = std_from_moments(means[:-1], second_moments[:-1])
    weights = np.abs(phi_e) ** 2
    e = sd.eigenvalues
    dh = float(std_from_moments(weights @ e, weights @ e ** 2))
    return ClockTrace(tau_grid, means[:-1], dts, np.full_like(tau_grid, dh), dts * dh,
                      float(means[-1]), base_point, cfg.h_norm, cfg.hbar)


@dataclass(frozen=True)
class LinearityFit:
    slope: float
    intercept: float
    max_residual: float
    quadratic_bound: float  # max |residual| / tau^2 over nonzero tau


def linearity_fit(trace: ClockTrace) -> LinearityFit:
    """Least-squares line through the trace; residuals quantify the O(tau^2) term.

    ValueError when tau takes fewer than two distinct values: no slope.
    """
    tau = trace.tau_grid
    if np.unique(tau).size < 2:
        raise ValueError("a linear fit needs at least two distinct tau values")
    if trace.h_norm > 0:
        width = float(np.max(np.abs(tau))) * trace.h_norm / trace.hbar
        if width > 0.5:
            warnings.warn(f"window {width:.3g} in units of hbar/||H|| is too wide "
                          "for a linear-regime fit", WindowTooWide)
    slope, intercept = np.polyfit(tau, trace.expectation, 1)
    resid = trace.expectation - (intercept + slope * tau)
    nonzero = np.abs(tau) > 0
    qb = float(np.max(np.abs(resid[nonzero]) / tau[nonzero] ** 2)) if nonzero.any() else 0.0
    return LinearityFit(float(slope), float(intercept), float(np.max(np.abs(resid))), qb)


def _commuting_factor_eigenbasis(cfg: ClockConfig, t: float) -> np.ndarray:
    """K(t) = T(t) - T in H's eigenbasis: (conj(p) p^T - 1) ⊙ T_e, with
    conj(p_s) p_s' = exp(i(E_s - E_s')t/hbar) from the propagator's phases p."""
    p = cfg.propagator.phases(t)
    return (np.outer(p.conj(), p) - 1.0) * cfg.T_e


def commuting_factor_matrix(cfg: ClockConfig, t: float) -> np.ndarray:
    """K(t) of the generalized weak Weyl relation T U(t) = U(t)(T + K(t)),
    which holds for every Hermitian H with K(t) = T(t) - T."""
    v = cfg.propagator.spectral.eigenvectors
    return v @ _commuting_factor_eigenbasis(cfg, t) @ v.conj().T


def commuting_factor(cfg: ClockConfig, t: float, psi) -> np.ndarray:
    """K(t) applied to an arbitrary state (T's domain is the whole space).

    K(t) is applied right to left in H's eigenbasis, V (K_e (V† psi)), which
    costs O(N^2) for any H, whose decomposition cfg already holds.
    """
    sd = cfg.propagator.spectral
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return sd.from_eigenbasis(_commuting_factor_eigenbasis(cfg, t) @ sd.to_eigenbasis(psi))
