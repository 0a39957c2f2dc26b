"""Dense complex linear algebra with certified structure.

Everything here works on plain numpy arrays.  Hermiticity, normality and
normalization are certified against an explicit ToleranceConfig rather
than assumed; routines raise if certification fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionMismatch, NotHermitian, NotNormal, NotNormalized


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm of M - M†, relative to the max-norm of M (0 for M = 0)."""
    m = as_matrix(m)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T))) / scale


def require_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    m = as_matrix(m)
    defect = hermiticity_defect(m)
    if defect > tol.hermiticity_tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol.hermiticity_tol:.3e}")
    return m


def normality_defect(m: np.ndarray) -> float:
    m = as_matrix(m)
    scale = frobenius(m) ** 2
    if scale == 0.0:
        return 0.0
    return frobenius(m.conj().T @ m - m @ m.conj().T) / scale


def require_normal(m, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    m = as_matrix(m)
    defect = normality_defect(m)
    if defect > max(tol.spectral_tol, 1e-12):
        raise NotNormal(f"normality defect {defect:.3e}")
    return m


def require_normalized(v, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > tol.norm_tol:
        raise NotNormalized(f"norm {np.linalg.norm(v)!r} is not 1 within {tol.norm_tol}")
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^N given by an orthonormal basis (columns of `basis`)."""

    basis: np.ndarray  # shape (N, k), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2:
            raise DimensionMismatch("subspace basis must be a 2d array")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(-1)
        return self.basis @ (self.basis.conj().T @ v)

    def distance(self, v: np.ndarray) -> float:
        """Euclidean distance of v from the subspace."""
        v = np.asarray(v, dtype=complex).reshape(-1)
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v: np.ndarray, tol: float = 1e-8) -> bool:
        return self.distance(v) <= tol

    def principal_angles(self, other: "Subspace") -> np.ndarray:
        if self.dim == 0 or other.dim == 0:
            return np.zeros(0)
        return scipy.linalg.subspace_angles(self.basis, other.basis)


def fix_phase(basis: np.ndarray, threshold: float = 1e-12) -> np.ndarray:
    """Rotate each column so its first nonzero amplitude is real positive."""
    basis = np.array(basis, dtype=complex)
    for k in range(basis.shape[1]):
        col = basis[:, k]
        nz = np.flatnonzero(np.abs(col) > threshold)
        if nz.size:
            pivot = col[nz[0]]
            basis[:, k] = col * (abs(pivot) / pivot)
    return basis


def span(vectors, rank_tol: float = 1e-12) -> Subspace:
    """Orthonormalize a list of vectors (columns) into a Subspace."""
    a = np.column_stack([np.asarray(v, dtype=complex).reshape(-1) for v in vectors])
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    keep = s > rank_tol * max(1.0, s[0] if s.size else 0.0)
    return Subspace(u[:, keep])


def cluster_indices(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group sorted real values into chains with consecutive gaps <= tol."""
    clusters: list[list[int]] = []
    for k, v in enumerate(values):
        if clusters and abs(v - values[clusters[-1][-1]]) <= tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray          # real, ascending
    eigenvectors: np.ndarray         # columns, orthonormal
    clusters: list[list[int]] = field(default_factory=list)
    cluster_tol: float = 0.0

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def eigenspace(self, cluster: list[int]) -> Subspace:
        return Subspace(fix_phase(self.eigenvectors[:, cluster]))


def eigh(h, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralData:
    """Spectral decomposition of a certified Hermitian matrix.

    Eigenvalues come back ascending with degeneracy clusters detected at
    cluster_tol relative to the spectral range.
    """
    h = require_hermitian(h, tol)
    vals, vecs = np.linalg.eigh(h)
    scale = max(float(np.max(np.abs(vals))), 1.0) if vals.size else 1.0
    ctol = tol.cluster_tol * scale
    return SpectralData(vals, vecs, cluster_indices(vals, ctol), ctol)


def normal_eig(m, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix.

    Anti-Hermitian M, which includes every commutator of a Hermitian pair,
    takes the Hermitian path: when i*M passes the hermiticity check at
    tol.hermiticity_tol, i*M = V diag(lam) V† comes from eigh and the
    eigenvalues of M are -i*lam.  That certificate suffices on its own: an
    anti-Hermitian matrix is normal, and eigh decomposes a Hermitian matrix
    within the hermiticity defect of i*M, so the eigen residual
    ||M V - V diag(-i*lam)|| and (by Weyl's inequality) the eigenvalue error
    are of the order of the defect itself.  A normality defect bounds a Schur
    residual only by about its square root (Henrici's departure from
    normality), so no normality check is needed on this path.

    Every other input has its normality certified at tol.spectral_tol
    (NotNormal otherwise) and takes the complex Schur form, whose
    triangular factor is diagonal for a normal matrix, so the Schur basis
    is an eigenbasis.
    """
    m = as_matrix(m)
    h = 1j * m
    if hermiticity_defect(h) <= tol.hermiticity_tol:
        vals, vecs = np.linalg.eigh(h)
        return -1j * vals, vecs
    m = require_normal(m, tol)
    t, q = scipy.linalg.schur(m, output="complex")
    return np.diag(t).copy(), q


def eigenspace(m, lam: complex, tol: float, config: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the eigenspace of a normal matrix at lam.

    Eigenvalues within tol * ||M|| of lam are collected; the empty
    subspace is a legal result.  The eigenbasis comes from normal_eig:
    eigh of i*M for anti-Hermitian M (every relation domain, since
    [A, B] of a Hermitian pair is anti-Hermitian), the certified complex
    Schur form for any other normal M.
    """
    vals, vecs = normal_eig(m, config)
    scale = max(frobenius(np.asarray(m, dtype=complex)), 1.0)
    keep = np.abs(vals - lam) <= tol * scale
    return Subspace(fix_phase(vecs[:, keep]))


@dataclass(frozen=True)
class Propagator:
    """U(t) = exp(-i H t / hbar) for one Hermitian H, from one eigendecomposition.

    With H = V diag(E) V†, U(t) = V diag(exp(-i E t / hbar)) V†, so every
    time shares the eigenbasis V and only the phases depend on t.
    """

    spectral: SpectralData
    hbar: float = 1.0

    def phases(self, t) -> np.ndarray:
        """exp(-i E t / hbar): shape (N,) for a scalar t, (N, S) for S times."""
        e = self.spectral.eigenvalues
        return np.exp(-1j * np.multiply.outer(e, np.asarray(t, dtype=float)) / self.hbar)

    def unitary(self, t: float) -> np.ndarray:
        v = self.spectral.eigenvectors
        return (v * self.phases(t)) @ v.conj().T

    def apply(self, t: float, x) -> np.ndarray:
        """U(t) @ x for a vector or a matrix of columns, without forming U(t)."""
        v = self.spectral.eigenvectors
        coeffs = v.conj().T @ np.asarray(x, dtype=complex)
        phases = self.phases(t)
        return v @ (phases * coeffs if coeffs.ndim == 1 else phases[:, None] * coeffs)


def propagator(h, hbar: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> Propagator:
    """Propagator of the certified Hermitian generator h."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return Propagator(eigh(h, tol), hbar)


def evolve(h, t: float, hbar: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Unitary exp(-i H t / hbar) for Hermitian H."""
    return propagator(h, hbar, tol).unitary(t)


def commutator(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} are not conformable")
    return a @ b - b @ a


def relation_residual(c_mat: np.ndarray, c: complex, basis: np.ndarray) -> float:
    """Largest ||C d - c d|| over the columns d of basis; 0 for no columns."""
    if basis.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(c_mat @ basis - c * basis, axis=0)))
