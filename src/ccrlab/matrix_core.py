"""Dense complex linear algebra with certified structure.

Everything here works on plain numpy arrays and needs nothing beyond
numpy.  Hermiticity, normality and normalization are certified against an
explicit ToleranceConfig rather than assumed; routines raise if
certification fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionMismatch, NotHermitian, NotNormal, NotNormalized


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def ccr_tolerance(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Bound on a commutation residual of (A, B): tol.ccr_tol * max(||A||_F ||B||_F, 1)."""
    return tol.ccr_tol * max(frobenius(a) * frobenius(b), 1.0)


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

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of a vector x, or of each column of a matrix x."""
        return self.basis @ (self.basis.conj().T @ np.asarray(x, dtype=complex))

    def distance(self, v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> float:
        """Euclidean distance of v from the subspace (see distances)."""
        return float(self.distances(np.asarray(v, dtype=complex).reshape(-1), tol))

    def distances(self, x: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
        """Euclidean distance from the subspace of a vector x, or of each
        column of a matrix x.

        The distance of a column is its norm in the orthogonal complement,
        measured from the smaller side: when dim > N/2 it is ||Q†x|| for an
        orthonormal basis Q of the complement (complement_basis), which
        costs O(N*dim*(N - dim)); otherwise, or when Q fails its
        certificate, it is ||x - P x|| for the projection P onto the
        subspace, which costs O(N*dim^2).
        """
        x = np.asarray(x, dtype=complex)
        q = self.complement_basis(tol) if 2 * self.dim > self.ambient_dim else None
        if q is not None:
            return np.linalg.norm(q.conj().T @ x, axis=0)
        return np.linalg.norm(x - self.project(x), axis=0)

    def complement_basis(self, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[np.ndarray]:
        """Orthonormal basis Q of the orthogonal complement, or None.

        Built deterministically from the unit vectors at the N - dim rows of
        lowest leverage (squared row norm of the basis), where the complement
        weighs most: they are orthogonalized against the basis twice
        (classical Gram-Schmidt with reorthogonalization) and
        orthonormalized by QR.  Q is returned only if ||basis† Q||_F is
        within tol.spectral_tol, which fails when the chosen unit vectors
        do not span the complement.  basis† Q is formed as (Q† basis)†,
        which does not copy the basis.
        """
        b = self.basis
        rows = np.argsort(np.sum(np.abs(b) ** 2, axis=1), kind="stable")[:b.shape[0] - b.shape[1]]
        q = -(b @ b[rows].conj().T)
        q[rows, np.arange(rows.size)] += 1.0
        q -= b @ (q.conj().T @ b).conj().T
        q = np.linalg.qr(q)[0]
        return q if frobenius(q.conj().T @ b) <= tol.spectral_tol else None

    def principal_angles(self, other: "Subspace") -> np.ndarray:
        """The min(dim, other.dim) principal angles to other, largest first.

        Cosines are the singular values of Q1†Q2 for orthonormal bases Q1
        (the larger subspace) and Q2; sines are those of Q2 - Q1 Q1†Q2.
        Angles below pi/4 come from the sines, since arccos loses about
        sqrt(eps) near 0, and the rest from the cosines.
        """
        if self.dim == 0 or other.dim == 0:
            return np.zeros(0)
        q1, q2 = np.linalg.qr(self.basis)[0], np.linalg.qr(other.basis)[0]
        if q1.shape[1] < q2.shape[1]:
            q1, q2 = q2, q1
        cross = q1.conj().T @ q2
        cos = np.linalg.svd(cross, compute_uv=False)[::-1]
        sin = np.linalg.svd(q2 - q1 @ cross, compute_uv=False)
        return np.where(cos ** 2 < 0.5, np.arccos(np.clip(cos, -1.0, 1.0)),
                        np.arcsin(np.clip(sin, -1.0, 1.0)))


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
    # set when eigenvectors is the identity with its columns in this order
    permutation: Optional[np.ndarray] = None

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def _rows(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape[0] != self.dim:
            raise DimensionMismatch(f"{x.shape[0]} rows for a {self.dim}-dimensional eigenbasis")
        return x

    def to_eigenbasis(self, x) -> np.ndarray:
        """V† x for a vector or a matrix of columns: a gather of x's rows
        when the eigenbasis V is a permutation, else a dense product.
        Here and in from_eigenbasis, DimensionMismatch unless x has N rows."""
        x = self._rows(x)
        if self.permutation is not None:
            return x[self.permutation]
        return self.eigenvectors.conj().T @ x

    def from_eigenbasis(self, y) -> np.ndarray:
        """V y for a vector or a matrix of columns: a scatter of y's rows
        when the eigenbasis V is a permutation, else a dense product."""
        y = self._rows(y)
        if self.permutation is not None:
            x = np.empty_like(y)
            x[self.permutation] = y
            return x
        return self.eigenvectors @ y

    def eigenspace(self, cluster: list[int]) -> Subspace:
        return Subspace(fix_phase(self.eigenvectors[:, cluster]))


def _diagonal(m: np.ndarray):
    """The diagonal of m when every off-diagonal entry is exactly zero, else None.

    The off-diagonal entries of a square array are the first n columns of
    its flattened tail read as an (n-1) x (n+1) array, so the test is one
    pass over the entries and copies nothing when m is contiguous.
    """
    n = m.shape[0]
    if n > 1 and m.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n].any():
        return None
    return np.diagonal(m)


def eigh(h, tol: ToleranceConfig = DEFAULT_TOL) -> SpectralData:
    """Spectral decomposition of a certified Hermitian matrix.

    Eigenvalues come back ascending with degeneracy clusters detected at
    cluster_tol relative to the spectral range.  An exactly diagonal h is
    read off without LAPACK: its sorted diagonal and the matching unit
    vectors, which for an ascending diagonal (every B of SpectrumSpec) are
    np.linalg.eigh's output bit for bit.  The sorting order is kept as the
    permutation, so that products with the eigenbasis become gathers.
    """
    h = require_hermitian(h, tol)
    d = _diagonal(h)
    order = None
    if d is None:
        vals, vecs = np.linalg.eigh(h)
    else:
        order = np.argsort(d.real, kind="stable")
        vals, vecs = d.real[order], np.eye(h.shape[0], dtype=complex)[:, order]
    scale = max(float(np.max(np.abs(vals))), 1.0) if vals.size else 1.0
    ctol = tol.cluster_tol * scale
    return SpectralData(vals, vecs, cluster_indices(vals, ctol), ctol, order)


# The weight mu in K = mu*H1 - H2.  Two eigenvalues of M share an eigenvalue
# of K exactly when their difference is a real multiple of 1 + i*mu.  The
# argument of 1 + i*sqrt(2) is not a rational multiple of pi (cos 2x = -1/3),
# so no difference of roots of unity is such a multiple; sqrt(2) - 1 =
# tan(pi/8) would merge eigenvalues of every 8th, 16th, 32nd ... root.
_MIX = 2.0 ** 0.5
# Chains of K's eigenvalues closer than this (relative to ||K||_F) are split
# by H1 when the certificate fails.  eigh mixes the vectors of two eigenvalues
# a gap delta apart by about eps*||K||/delta, which breaks the certificate
# only when delta is below about 1e-6*||K||.
_CHAIN_TOL = 1e-5


def _split_chains(vecs: np.ndarray, values: np.ndarray, scale: float, ops) -> None:
    """Rotate, in place, the columns of vecs in each chain of values within
    _CHAIN_TOL * max(scale, 1) of one another to the eigenbasis of ops[0]
    restricted to them, and split the chains of that eigenbasis by ops[1:]."""
    if not ops:
        return
    for chain in cluster_indices(values, _CHAIN_TOL * max(scale, 1.0)):
        if len(chain) > 1:
            sub = vecs[:, chain]
            sub_values, rot = np.linalg.eigh(sub.conj().T @ ops[0] @ sub)
            sub = sub @ rot
            _split_chains(sub, sub_values, frobenius(ops[0]), ops[1:])
            vecs[:, chain] = sub


def normal_eig(m, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigenvalues and an orthonormal eigenbasis of a normal matrix.

    With M = H1 + i*H2 (H1 = (M + M†)/2 and H2 = (M - M†)/2i Hermitian), M is
    normal exactly when H1 and H2 commute, and then one eigenbasis V of the
    Hermitian K = mu*H1 - H2 diagonalizes both; it comes from a single
    np.linalg.eigh.  With r the Rayleigh quotients of H1 on V, the
    eigenvalues of M are r - i*(w - mu*r) for the eigenvalues w of K.

    The certificate is the residual ||H1 V - V diag(r)||_F, which must stay
    within tol.spectral_tol * max(||M||_F, 1) (NotNormal otherwise): it
    bounds ||M V - V diag(lam)|| by (1 + mu) times itself plus eigh's
    backward error, and it is large when K merges distinct eigenvalues of a
    normal M or when M is not normal.  When it fails, each chain of K's
    eigenvalues within _CHAIN_TOL * max(||K||_F, 1) of one another is
    rotated to the eigenbasis of H1 restricted to it (and each chain of
    that, on which H1 is nearly constant, to K's), r and w become the
    Rayleigh quotients of H1 and K, and M is accepted only if the residuals
    of both H1 and K on the rotated basis are within the bound.  When
    ||H1||_F is within the bound the residual with r = 0 is too, so no
    product is formed.  An exactly
    anti-Hermitian M (every commutator of a Hermitian pair with diagonal B)
    has H1 = 0 and K = i*M, so its eigenvalues and eigenvectors are those of
    eigh(i*M) bit for bit.
    """
    m = as_matrix(m)
    herm = 0.5 * (m + m.conj().T)
    # K for H1 = 0 is i*M, formed as such: LAPACK reads the signs of zeros
    k = _MIX * herm + 0.5j * (m - m.conj().T) if herm.any() else 1j * m
    w, vecs = np.linalg.eigh(k)
    allowed = tol.spectral_tol * max(frobenius(m), 1.0)
    r = np.zeros(w.shape)
    if frobenius(herm) > allowed:
        hv = herm @ vecs
        r = np.real(np.sum(vecs.conj() * hv, axis=0))
        resid = frobenius(hv - vecs * r)
        if resid > allowed:
            # K may have merged eigenvalues of M whose difference is nearly a
            # real multiple of 1 + i*mu: split its chains by H1, then by K
            _split_chains(vecs, w, frobenius(k), (herm, k))
            hv, kv = herm @ vecs, k @ vecs
            r = np.real(np.sum(vecs.conj() * hv, axis=0))
            w = np.real(np.sum(vecs.conj() * kv, axis=0))
            resid = max(frobenius(hv - vecs * r), frobenius(kv - vecs * w))
        if resid > allowed:
            raise NotNormal(f"eigen residual {resid:.3e} of the Hermitian parts "
                            f"exceeds {allowed:.3e}")
    return r - 1j * (w - _MIX * r), vecs


def eigenspace(m, lam: complex, tol: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the eigenspace of a normal matrix at lam.

    Eigenvalues within tol.relation_window * ||M|| of lam are collected;
    the empty subspace is a legal result.  The eigenbasis comes from
    normal_eig, one certified eigh for every normal M (NotNormal otherwise).
    """
    vals, vecs = normal_eig(m, tol)
    scale = max(frobenius(np.asarray(m, dtype=complex)), 1.0)
    keep = np.abs(vals - lam) <= tol.relation_window * scale
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
        coeffs = self.spectral.to_eigenbasis(x)
        phases = self.phases(t)
        return self.spectral.from_eigenbasis(
            phases * coeffs if coeffs.ndim == 1 else phases[:, None] * coeffs)


def propagator(h, hbar: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> Propagator:
    """Propagator of the certified Hermitian generator h."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    return Propagator(eigh(h, tol), hbar)


def evolve(h, t: float, hbar: float = 1.0, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Unitary exp(-i H t / hbar) for Hermitian H."""
    return propagator(h, hbar, tol).unitary(t)


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA, in O(N^2) when B is exactly diagonal.

    With B = diag(d), AB scales A's columns and BA its rows; adding 0.0
    turns the -0.0 entries of those products into the +0.0 that a matrix
    product's sum yields, so the result equals a @ b - b @ a bit for bit,
    signs of zeros included (LAPACK reads them).  The one exception is an
    entry of AB or BA that is exactly zero, which BLAS may sum to -0.0.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} are not conformable")
    d = _diagonal(b)
    if d is not None:
        return (a * d + 0.0) - (d[:, None] * a + 0.0)
    return a @ b - b @ a


def relation_residual(c_mat: np.ndarray, c: complex, basis: np.ndarray) -> float:
    """Largest ||C d - c d|| over the columns d of basis; 0 for no columns."""
    if basis.shape[1] == 0:
        return 0.0
    return float(np.max(np.linalg.norm(c_mat @ basis - c * basis, axis=0)))
