"""Parameter invariant sets of canonical solutions under exp(-iHt/hbar).

The invariant set is the full real line when the (one-dimensional)
domain is spanned by an eigenvector of the generator, a lattice
2*pi*hbar/gcd * Z when the relevant eigenvalue differences are
commensurate, and {0} otherwise.  The real gcd is computed with a
tolerant Euclidean algorithm; floating point makes exact commensurability
undecidable, so the precision/denominator tradeoff is explicit in
GcdConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import EmptyInput, NonPositiveValue
from .matrix_core import Propagator, eigh, propagator
from .pair_builder import CanonicalSolution

SPECTATOR_TOL = 1e-10  # amplitude below which a level does not see the domain


class InvariantKind(Enum):
    FULL_LINE = "full_line"
    LATTICE = "lattice"
    ZERO_ONLY = "zero_only"


@dataclass(frozen=True)
class GcdConfig:
    max_denominator: int = 10 ** 6
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")


@dataclass(frozen=True)
class InvariantSet:
    kind: InvariantKind
    period: Optional[float] = None          # present iff LATTICE
    generator_gcd: Optional[float] = None   # present iff LATTICE
    excluded_levels: frozenset = frozenset()

    def lattice_point(self, n: int) -> float:
        if self.kind is InvariantKind.FULL_LINE:
            raise ValueError("full-line invariant sets have no lattice period")
        if self.kind is InvariantKind.ZERO_ONLY:
            if n != 0:
                raise ValueError("only t = 0 belongs to a zero-only invariant set")
            return 0.0
        return n * self.period


def _pair_gcd(a: float, b: float, eps: float) -> float:
    """Euclidean gcd of two positive reals with symmetric remainders."""
    while b > eps:
        a, b = b, abs(a - round(a / b) * b)
    return a


def real_gcd(values, cfg: GcdConfig = GcdConfig()) -> Optional[float]:
    """Largest g with every value an integer multiple of g, or None.

    Incommensurate inputs drive the Euclidean remainders toward zero
    without terminating cleanly; they are detected by the resulting
    multipliers exceeding max_denominator or failing the relative
    accuracy check.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise EmptyInput("need at least one value")
    if any(v <= 0 for v in vals):
        raise NonPositiveValue("all values must be positive")
    eps = cfg.rel_tol * max(vals)
    g = vals[0]
    for v in vals[1:]:
        g = _pair_gcd(g, v, eps)
    if g <= eps:
        return None
    multipliers = [round(v / g) for v in vals]
    common = math.gcd(*multipliers) if len(multipliers) > 1 else multipliers[0]
    if common > 1:
        g *= common
        multipliers = [m // common for m in multipliers]
    if any(m < 1 or m > cfg.max_denominator for m in multipliers):
        return None
    # refine against float noise, then certify
    g = sum(vals) / sum(multipliers)
    if any(abs(v - m * g) > cfg.rel_tol * v for v, m in zip(vals, multipliers)):
        return None
    return g


def _retained_differences(sol: CanonicalSolution, h, tol: ToleranceConfig):
    sd = eigh(h, tol)
    coeffs = sd.eigenvectors.conj().T @ sol.domain.basis  # (N, dim)
    excluded = set()
    retained_levels = []
    for idx, cluster in enumerate(sd.clusters):
        weight = float(np.max(np.abs(coeffs[cluster, :]))) if sol.domain.dim else 0.0
        if weight <= SPECTATOR_TOL:
            excluded.add(idx)
        else:
            retained_levels.append(float(np.mean(sd.eigenvalues[cluster])))
    diffs = [abs(e2 - e1)
             for i, e1 in enumerate(retained_levels)
             for e2 in retained_levels[i + 1:]]
    return sd, diffs, excluded


def invariant_set(sol: CanonicalSolution, h, cfg: GcdConfig = GcdConfig(),
                  hbar: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> InvariantSet:
    """Invariant set of sol's domain under U(t) = exp(-iHt/hbar)."""
    sd, diffs, excluded = _retained_differences(sol, h, tol)
    h = np.asarray(h, dtype=complex)
    if sol.domain.dim == 1:
        v = sol.domain.basis[:, 0]
        mean = np.real(np.vdot(v, h @ v))
        resid = np.linalg.norm(h @ v - mean * v)
        h_norm = float(np.max(np.abs(sd.eigenvalues)))
        if resid <= tol.relation_window * max(h_norm, 1.0):
            return InvariantSet(InvariantKind.FULL_LINE, excluded_levels=frozenset(excluded))
    if not diffs:
        # domain confined to a single eigenspace of H: every domain state
        # only picks up a global phase
        return InvariantSet(InvariantKind.FULL_LINE, excluded_levels=frozenset(excluded))
    g = real_gcd(diffs, cfg)
    if g is None:
        return InvariantSet(InvariantKind.ZERO_ONLY, excluded_levels=frozenset(excluded))
    return InvariantSet(InvariantKind.LATTICE, period=2.0 * math.pi * hbar / g,
                        generator_gcd=g, excluded_levels=frozenset(excluded))


def _membership_residual(prop: Propagator, basis: np.ndarray, t: float) -> float:
    """Largest distance of an evolved basis vector U(t) b from span(basis)."""
    if basis.shape[1] == 0:
        return 0.0
    moved = prop.apply(t, basis)
    proj = basis @ (basis.conj().T @ moved)
    return float(np.max(np.linalg.norm(moved - proj, axis=0)))


def check_membership(sol: CanonicalSolution, h, t: float, hbar: float = 1.0,
                     tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether U(t) maps the whole domain back into the domain.

    Returns (is_member, residual) where residual is the largest distance
    of an evolved basis vector from the domain subspace.
    """
    residual = _membership_residual(propagator(h, hbar, tol), sol.domain.basis, t)
    return residual <= tol.membership_tol, residual
