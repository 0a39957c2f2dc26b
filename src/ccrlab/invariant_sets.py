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
from .matrix_core import Propagator, Subspace, eigh, propagator
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
    without terminating cleanly; they are detected by g falling to the
    noise floor eps = rel_tol * max(values), or by the resulting
    multipliers exceeding max_denominator or failing the relative
    accuracy check.

    The values are taken in order, and one that is within eps of a
    multiple of the running g leaves it as it is (Euclid would move g by
    at most eps); only the first value that is not starts the next
    Euclidean step.  After each step g is refitted to every value taken
    so far (sum of values over sum of multipliers), so rounding error does
    not grow from one step to the next.  Each step about halves g or
    more, so there are at most about log2(max / eps) of them whatever the
    number of values.
    """
    vals = np.asarray(values if isinstance(values, np.ndarray) else list(values),
                      dtype=float).reshape(-1)
    if not vals.size:
        raise EmptyInput("need at least one value")
    if np.any(vals <= 0):
        raise NonPositiveValue("all values must be positive")
    eps = cfg.rel_tol * float(np.max(vals))
    g, start = float(vals[0]), 1
    while True:
        rest = vals[start:]
        off = np.flatnonzero(np.abs(rest - np.rint(rest / g) * g) > eps)
        if not off.size:
            break
        start += int(off[0]) + 1
        g = _pair_gcd(g, float(vals[start - 1]), eps)
        if g <= eps:
            return None
        # refit g to every value taken so far, so that the rounding error of
        # one Euclidean step is not multiplied by the next
        seen = vals[:start]
        g = float(np.sum(seen) / np.sum(np.rint(seen / g)))
    multipliers = np.rint(vals / g)
    # exact integers, as round() gives them; Python ints where int64 overflows
    if multipliers.max() < 2.0 ** 63:
        multipliers = multipliers.astype(np.int64)
    else:
        multipliers = np.array([int(m) for m in multipliers], dtype=object)
    common = np.gcd.reduce(multipliers)
    if common > 1:
        g *= common
        multipliers = multipliers // common
    if np.any(multipliers < 1) or np.any(multipliers > cfg.max_denominator):
        return None
    # refine against float noise, then certify
    g = float(np.sum(vals) / np.sum(multipliers))
    if np.any(np.abs(vals - multipliers * g) > cfg.rel_tol * vals):
        return None
    return g


def _retained_differences(sol: CanonicalSolution, h, tol: ToleranceConfig):
    """H's spectrum, the pairwise gaps of the levels the domain sees, and
    the indices of the clusters (levels) it does not see."""
    sd = eigh(h, tol)
    starts = np.array([cluster[0] for cluster in sd.clusters])
    if sol.domain.dim:
        coeffs = sd.to_eigenbasis(sol.domain.basis)  # (N, dim)
        weights = np.maximum.reduceat(np.max(np.abs(coeffs), axis=1), starts)
    else:
        weights = np.zeros(starts.size)
    sizes = np.diff(np.append(starts, sd.eigenvalues.size))
    levels = (np.add.reduceat(sd.eigenvalues, starts) / sizes)[weights > SPECTATOR_TOL]
    i, j = np.triu_indices(levels.size, 1)
    excluded = set(np.flatnonzero(weights <= SPECTATOR_TOL).tolist())
    return sd, np.abs(levels[j] - levels[i]), excluded


def invariant_set(sol: CanonicalSolution, h, cfg: GcdConfig = GcdConfig(),
                  tol: ToleranceConfig = DEFAULT_TOL) -> InvariantSet:
    """Invariant set of sol's domain under U(t) = exp(-iHt/hbar), hbar = sol.hbar."""
    sd, diffs, excluded = _retained_differences(sol, h, tol)
    h = np.asarray(h, dtype=complex)
    if sol.domain.dim == 1:
        v = sol.domain.basis[:, 0]
        mean = np.real(np.vdot(v, h @ v))
        resid = np.linalg.norm(h @ v - mean * v)
        h_norm = float(np.max(np.abs(sd.eigenvalues)))
        if resid <= tol.relation_window * max(h_norm, 1.0):
            return InvariantSet(InvariantKind.FULL_LINE, excluded_levels=frozenset(excluded))
    if not diffs.size:
        # domain confined to a single eigenspace of H: every domain state
        # only picks up a global phase
        return InvariantSet(InvariantKind.FULL_LINE, excluded_levels=frozenset(excluded))
    g = real_gcd(diffs, cfg)
    if g is None:
        return InvariantSet(InvariantKind.ZERO_ONLY, excluded_levels=frozenset(excluded))
    return InvariantSet(InvariantKind.LATTICE, period=2.0 * math.pi * sol.hbar / g,
                        generator_gcd=g, excluded_levels=frozenset(excluded))


def _membership_residual(prop: Propagator, domain: Subspace, t: float,
                         tol: ToleranceConfig) -> float:
    """Largest distance of an evolved basis vector U(t) b from the domain."""
    if domain.dim == 0:
        return 0.0
    return float(np.max(domain.distances(prop.apply(t, domain.basis), tol)))


def check_membership(sol: CanonicalSolution, h, t: float,
                     tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether U(t) = exp(-iHt/hbar), hbar = sol.hbar, maps the whole domain
    back into the domain.

    Returns (is_member, residual) where residual is the largest distance
    of an evolved basis vector from the domain subspace.
    """
    residual = _membership_residual(propagator(h, sol.hbar, tol), sol.domain, t, tol)
    return residual <= tol.membership_tol, residual
