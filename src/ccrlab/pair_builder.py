"""Construction of canonical and essentially canonical operator pairs.

Given a target spectrum for the Hermitian operator B, these builders
produce a Hermitian partner A such that [A, B] has i*hbar as an
eigenvalue, together with the corresponding eigenspace (the canonical
domain).  Validity of the off-diagonal weight table is checked a
posteriori by an eigensolve of the commutator rather than by solving the
characteristic constraint symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConstraintViolated,
    DegenerateSpectrum,
    FamilyConstraintViolated,
    NoCanonicalEigenvalue,
    NotHermitianPair,
    PurelyDegenerate,
    TooSmall,
)
from .matrix_core import (
    Subspace,
    ccr_tolerance,
    commutator,
    eigenspace,
    frobenius,
    relation_residual,
    require_hermitian,
)


@dataclass(frozen=True)
class SpectrumSpec:
    """Distinct eigenvalues of B with their multiplicities."""

    values: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        mults = tuple(int(m) for m in self.multiplicities)
        if len(values) != len(mults) or len(values) < 1:
            raise ValueError("values and multiplicities must be nonempty and equal length")
        if any(m < 1 for m in mults):
            raise ValueError("multiplicities must be positive")
        if any(values[i] >= values[i + 1] for i in range(len(values) - 1)):
            raise ValueError("values must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", mults)

    @classmethod
    def nondegenerate(cls, values) -> "SpectrumSpec":
        values = tuple(values)
        return cls(values, (1,) * len(values))

    @property
    def levels(self) -> int:
        return len(self.values)

    @property
    def dim(self) -> int:
        return sum(self.multiplicities)

    @property
    def is_nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def level_of_index(self) -> np.ndarray:
        """Flat basis index -> level index map."""
        return np.repeat(np.arange(self.levels), self.multiplicities)

    def b_matrix(self) -> np.ndarray:
        return np.diag(np.repeat(np.asarray(self.values, dtype=float),
                                 self.multiplicities)).astype(complex)


@dataclass(frozen=True)
class PairParams:
    """Free parameters of the general pair construction.

    alpha, beta and block_b are indexed by flat basis indices (level,
    sublevel flattened); alpha is real antisymmetric, beta is
    Hermitian-symmetric, block_b is Hermitian with zero diagonal and only
    its intra-level entries are used.  None means the canonical default:
    alpha = 0, beta[k, l] = 1/sqrt(M_s * M_s'), diag_a = 0, block_b = 0.
    """

    alpha: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    diag_a: Optional[np.ndarray] = None
    block_b: Optional[np.ndarray] = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def resolve(self, spec: SpectrumSpec):
        n = spec.dim
        level = spec.level_of_index()
        if self.alpha is None:
            alpha = np.zeros((n, n))
        else:
            alpha = np.asarray(self.alpha, dtype=float)
            if alpha.shape != (n, n) or np.max(np.abs(alpha + alpha.T)) > 1e-12:
                raise ValueError("alpha must be an antisymmetric real N x N table")
        if self.beta is None:
            mults = np.repeat(np.asarray(spec.multiplicities, dtype=float), spec.multiplicities)
            beta = 1.0 / np.sqrt(np.outer(mults, mults)).astype(complex)
        else:
            beta = np.asarray(self.beta, dtype=complex)
            if beta.shape != (n, n) or np.max(np.abs(beta - beta.conj().T)) > 1e-12:
                raise ValueError("beta must be a Hermitian-symmetric N x N table")
        if self.diag_a is None:
            diag_a = np.zeros(n)
        else:
            diag_a = np.asarray(self.diag_a, dtype=float).reshape(-1)
            if diag_a.shape != (n,):
                raise ValueError("diag_a must have one real entry per basis vector")
        if self.block_b is None:
            block_b = np.zeros((n, n), dtype=complex)
        else:
            block_b = np.asarray(self.block_b, dtype=complex)
            if block_b.shape != (n, n) or np.max(np.abs(block_b - block_b.conj().T)) > 1e-12:
                raise ValueError("block_b must be a Hermitian N x N table")
        return alpha, beta, diag_a, block_b, level


@dataclass(frozen=True)
class CanonicalSolution:
    """A pair (A, B), the commutator eigenvalue c it realizes, and the domain."""

    A: np.ndarray
    B: np.ndarray
    c: complex
    domain: Subspace
    provenance: str
    hbar: float = 1.0

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def essentially_canonical(self) -> bool:
        """Whether c is nonzero; c = 0 relations are kept for completeness."""
        return self.c != 0

    def commutator(self) -> np.ndarray:
        return commutator(self.A, self.B)

    def residual(self) -> float:
        """Max over domain basis vectors of ||[A,B] phi - c phi||."""
        return relation_residual(self.commutator(), self.c, self.domain.basis)

    def ccr_tolerance(self, tol: ToleranceConfig = DEFAULT_TOL) -> float:
        return ccr_tolerance(self.A, self.B, tol)

    def conjugated(self, u: np.ndarray, provenance: Optional[str] = None) -> "CanonicalSolution":
        """The unitarily equivalent solution (U†AU, U†BU, U†D)."""
        uh = u.conj().T
        return CanonicalSolution(
            uh @ self.A @ u, uh @ self.B @ u, self.c,
            Subspace(uh @ self.domain.basis),
            provenance or self.provenance, self.hbar,
        )


def _assemble_pair(spec: SpectrumSpec, params: PairParams):
    """A with diag_a on the diagonal, block_b within a level and
    i*hbar*beta*exp(i*alpha)/(B_k - B_l) across levels; B diagonal."""
    alpha, beta, diag_a, block_b, level = params.resolve(spec)
    b_of_index = np.asarray(spec.values, dtype=float)[level]
    same_level = level[:, None] == level[None, :]
    gap = np.where(same_level, 1.0, b_of_index[:, None] - b_of_index[None, :])
    a = np.where(same_level, block_b, beta * 1j * params.hbar * np.exp(1j * alpha) / gap)
    np.fill_diagonal(a, diag_a)
    return a, spec.b_matrix()


def _solve(spec: SpectrumSpec, params: PairParams, provenance: str,
           tol: ToleranceConfig) -> CanonicalSolution:
    a, b = _assemble_pair(spec, params)
    require_hermitian(a, tol)
    c = commutator(a, b)
    target = 1j * params.hbar
    domain = eigenspace(c, target, tol)
    if domain.dim == 0:
        window = tol.relation_window * max(frobenius(c), 1.0)
        raise ConstraintViolated(
            f"[A, B] has no eigenvalue within {window:.3e} of i*hbar = {target}; "
            "the beta table does not satisfy the characteristic constraint")
    sol = CanonicalSolution(a, b, target, domain, provenance, params.hbar)
    res = relation_residual(c, target, domain.basis)
    if res > sol.ccr_tolerance(tol):
        raise ConstraintViolated(f"commutation residual {res:.3e} exceeds tolerance")
    return sol


def build_nondegenerate(spec: SpectrumSpec, params: Optional[PairParams] = None,
                        tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalSolution:
    """Canonical pair for a nondegenerate target spectrum.

    With default parameters the partner has off-diagonal entries
    i*hbar / (B_s - B_s') and the domain is the (N-1)-dimensional span of
    the pairwise differences of B's eigenkets.
    """
    if not spec.is_nondegenerate:
        raise DegenerateSpectrum("spectrum has a repeated eigenvalue; use build_degenerate")
    if spec.dim < 2:
        raise TooSmall("need at least two distinct eigenvalues")
    return _solve(spec, params or PairParams(), "nondegenerate-ND", tol)


def build_degenerate(spec: SpectrumSpec, params: Optional[PairParams] = None,
                     tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalSolution:
    """Canonical pair for a degenerate target spectrum (L >= 2 levels)."""
    if spec.levels == 1:
        raise PurelyDegenerate(
            "a purely degenerate B admits no Hermitian canonical partner")
    return _solve(spec, params or PairParams(), "degenerate-ND", tol)


def project_pair(sol: CanonicalSolution, keep, tol: ToleranceConfig = DEFAULT_TOL,
                 extra_diag: Optional[np.ndarray] = None) -> CanonicalSolution:
    """Project A onto a subset of basis indices, keeping the same B.

    A' = P A P (plus an optional commuting diagonal); the domain is
    recomputed as the eigenspace of [A', B] at i*hbar.
    """
    keep = sorted(set(int(k) for k in keep))
    if len(keep) < 2:
        raise TooSmall("need at least two retained indices")
    kept = np.zeros(sol.dim, dtype=bool)
    kept[keep] = True
    a = np.where(kept[:, None] & kept[None, :], sol.A, 0.0)
    if extra_diag is not None:
        a = a + np.diag(np.asarray(extra_diag, dtype=float)).astype(complex)
    c = commutator(a, sol.B)
    target = 1j * sol.hbar
    domain = eigenspace(c, target, tol)
    if domain.dim == 0:
        raise NoCanonicalEigenvalue("i*hbar is not an eigenvalue after projection")
    return CanonicalSolution(a, sol.B, target, domain, "projection", sol.hbar)


def remap_essential_to_canonical(sol: CanonicalSolution, lam: float = 1.0,
                                 rho: float = 1.0,
                                 tol: ToleranceConfig = DEFAULT_TOL) -> CanonicalSolution:
    """Rescale an essentially canonical Hermitian pair so that c becomes i*hbar.

    For [A, B] phi = i*g phi with real g != 0, the pair
    (hbar^lam A / g^rho, hbar^(1-lam) B / g^(1-rho)) is canonical on the
    same domain.
    """
    c = complex(sol.c)
    if abs(c.real) > 1e-10 * max(abs(c), 1.0) or abs(c) < 1e-14:
        raise NotHermitianPair(f"commutator eigenvalue {c} is not purely imaginary nonzero")
    g = c.imag
    hbar = sol.hbar
    if g < 0 and not (float(rho).is_integer() and float(1.0 - rho).is_integer()):
        raise ValueError("negative eigenvalue requires integer rho for a real rescaling")
    a_scale = hbar ** lam / g ** rho
    b_scale = hbar ** (1.0 - lam) / g ** (1.0 - rho)
    out = CanonicalSolution(a_scale * sol.A, b_scale * sol.B, 1j * hbar,
                            sol.domain, "remapped", hbar)
    res = out.residual()
    if res > out.ccr_tolerance(tol):
        raise ConstraintViolated(f"remapped pair residual {res:.3e} exceeds tolerance")
    return out


# --- 3D catalog ------------------------------------------------------------
#
# Complete solution families for N = 3.  Off-diagonal magnitudes follow the
# hbar/|B_k - B_l| ansatz; the free data are three phases alpha_kl and three
# complex weights beta_kl (the (1,2) weight of the degenerate family is the
# bare intra-block coupling).

CATALOG_FAMILIES = ("nondeg-1a", "nondeg-1b", "nondeg-2a", "nondeg-2b", "nondeg-2c", "degen")


@dataclass(frozen=True)
class CatalogParams:
    b_values: tuple[float, float] | tuple[float, float, float]
    beta: tuple[complex, complex, complex] = (1.0, 1.0, 1.0)   # beta_12, beta_13, beta_23
    alpha: tuple[float, float, float] = (0.0, 0.0, 0.0)        # alpha_12, alpha_13, alpha_23
    diag_a: tuple[float, float, float] = (0.0, 0.0, 0.0)
    hbar: float = 1.0


def default_catalog_params(family: str) -> CatalogParams:
    if family == "nondeg-1a":
        return CatalogParams((0.0, 1.0, 3.0), beta=(1.0, 1.0, 1.0),
                             alpha=(1.5 * math.pi,) * 3)
    if family == "nondeg-1b":
        # |beta|^2 = 1.92; Im condition fixed through alpha_12
        b0 = 0.8
        phase = math.asin(-(3 * b0 ** 2 - 1.0) / (2 * b0 ** 3))
        return CatalogParams((0.0, 1.0, 3.0), beta=(b0, b0, b0), alpha=(phase, 0.0, 0.0))
    if family == "nondeg-2a":
        return CatalogParams((0.0, 1.0, 3.0), beta=(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)))
    if family == "nondeg-2b":
        return CatalogParams((0.0, 1.0, 3.0), beta=(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)))
    if family == "nondeg-2c":
        return CatalogParams((0.0, 1.0, 3.0), beta=(1 / math.sqrt(2), 1 / math.sqrt(2), 0.0))
    if family == "degen":
        return CatalogParams((0.0, 1.0), beta=(0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)))
    raise ValueError(f"unknown catalog family {family!r}")


def _check(condition: bool, family: str, message: str):
    if not condition:
        raise FamilyConstraintViolated(f"family {family}: {message}")


def _catalog_matrices(family: str, p: CatalogParams):
    b12, b13, b23 = p.beta
    a12, a13, a23 = p.alpha
    hbar = p.hbar
    ctol = 1e-9
    a = np.diag(np.asarray(p.diag_a, dtype=float)).astype(complex)
    if family == "degen":
        _check(len(p.b_values) == 2, family, "two distinct B values required")
        v1, v2 = p.b_values
        _check(v1 < v2, family, "B values must be increasing")
        _check(abs(abs(b13) ** 2 + abs(b23) ** 2 - 1.0) <= ctol, family,
               "|beta_13|^2 + |beta_23|^2 = 1 required")
        gap = abs(v1 - v2)
        a[0, 1] = b12
        a[1, 0] = np.conj(b12)
        a[0, 2] = b13 * hbar * np.exp(1j * a13) / gap
        a[1, 2] = b23 * hbar * np.exp(1j * a23) / gap
        a[2, 0] = np.conj(a[0, 2])
        a[2, 1] = np.conj(a[1, 2])
        b = np.diag([v1, v1, v2]).astype(complex)
        cs = (1j * hbar, -1j * hbar, 0.0)
        return a, b, cs

    _check(len(p.b_values) == 3, family, "three distinct B values required")
    v = np.asarray(p.b_values, dtype=float)
    _check(v[0] < v[1] < v[2], family, "B values must be strictly increasing")
    gaps = {(0, 1): abs(v[0] - v[1]), (0, 2): abs(v[0] - v[2]), (1, 2): abs(v[1] - v[2])}
    for (k, l), beta_kl, alpha_kl in (((0, 1), b12, a12), ((0, 2), b13, a13), ((1, 2), b23, a23)):
        a[k, l] = beta_kl * hbar * np.exp(1j * alpha_kl) / gaps[(k, l)]
        a[l, k] = np.conj(a[k, l])
    b = np.diag(v).astype(complex)

    beta_norm2 = abs(b12) ** 2 + abs(b13) ** 2 + abs(b23) ** 2
    triple = (b12 * np.conj(b13) * b23 * np.exp(1j * (a12 - a13 + a23))).imag
    if family == "nondeg-1a":
        _check(all(abs(x) > ctol for x in (b12, b13, b23)), family, "all beta nonzero required")
        _check(abs(beta_norm2 - 3.0) <= ctol, family, "|beta|^2 = 3 required")
        _check(abs(triple + 1.0) <= ctol, family, "Im(beta triple product) = -1 required")
        cs = (1j * hbar, -2j * hbar)
    elif family == "nondeg-1b":
        _check(all(abs(x) > ctol for x in (b12, b13, b23)), family, "all beta nonzero required")
        _check(abs(beta_norm2 - 3.0) > ctol, family, "|beta|^2 != 3 required (use nondeg-1a)")
        _check(beta_norm2 > 0.75, family, "|beta|^2 > 3/4 required")
        _check(abs(triple + (beta_norm2 - 1.0) / 2.0) <= ctol, family,
               "Im(beta triple product) = -(|beta|^2 - 1)/2 required")
        root = math.sqrt(4.0 * beta_norm2 - 3.0)
        cs = (1j * hbar, -0.5 * (1.0 + root) * 1j * hbar, -0.5 * (1.0 - root) * 1j * hbar)
    elif family in ("nondeg-2a", "nondeg-2b", "nondeg-2c"):
        zero_idx = {"nondeg-2a": 0, "nondeg-2b": 1, "nondeg-2c": 2}[family]
        betas = (b12, b13, b23)
        _check(abs(betas[zero_idx]) <= ctol, family,
               f"beta_{('12', '13', '23')[zero_idx]} = 0 required")
        other = sum(abs(betas[i]) ** 2 for i in range(3) if i != zero_idx)
        _check(abs(other - 1.0) <= ctol, family, "remaining |beta|^2 sum = 1 required")
        cs = (1j * hbar, -1j * hbar, 0.0)
    else:
        raise ValueError(f"unknown catalog family {family!r}")
    return a, b, cs


def catalog_3d(family: str, params: Optional[CatalogParams] = None,
               tol: ToleranceConfig = DEFAULT_TOL) -> list[CanonicalSolution]:
    """Instantiate a 3D solution family and emit all its commutation relations.

    Domains are computed numerically as eigenspaces of [A, B]; each relation
    carries the realized eigenvalue c, and the c = 0 records are not
    essentially canonical.
    """
    p = params or default_catalog_params(family)
    a, b, cs = _catalog_matrices(family, p)
    require_hermitian(a, tol)
    c_mat = commutator(a, b)
    relations = []
    for c in cs:
        domain = eigenspace(c_mat, c, tol)
        if domain.dim == 0:
            raise FamilyConstraintViolated(
                f"family {family}: expected commutator eigenvalue {c} is absent")
        relations.append(CanonicalSolution(a, b, complex(c), domain,
                                           f"catalog-3d:{family}", p.hbar))
    return relations
