"""Commutator analysis: classification of the essentially canonical
relations a pair satisfies, and constructive factorization of traceless
normal matrices into commutators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    CommutingPair,
    NotTraceless,
    RepeatedBValue,
    TrivialMatrix,
    ZeroEigenvalueRequested,
)
from .matrix_core import (
    SpectralData,
    Subspace,
    as_matrix,
    commutator,
    eigh,
    frobenius,
    normal_eig,
    require_hermitian,
)
from .pair_builder import CanonicalSolution

__all__ = [
    "Relation", "RelationReport", "classify", "commutator", "as_solution",
    "dft_zero_diagonal", "factorize", "commutator_fixing_state",
]


@dataclass(frozen=True)
class Relation:
    c: complex
    domain: Subspace
    essentially_canonical: bool


@dataclass(frozen=True)
class RelationReport:
    commutator: np.ndarray
    relations: list[Relation]
    trace_residual: float

    def nonzero(self) -> list[Relation]:
        return [r for r in self.relations if r.essentially_canonical]


def classify(a, b, tol: ToleranceConfig = DEFAULT_TOL) -> RelationReport:
    """Every essentially canonical relation satisfied by a Hermitian pair.

    The commutator of a Hermitian pair is anti-Hermitian, so i*[A,B] is
    Hermitian; its eigenvalue clusters map back to the purely imaginary
    commutator eigenvalues, each paired with its eigenspace.  Relations
    come back sorted by Im(c) descending.
    """
    a = require_hermitian(a, tol)
    b = require_hermitian(b, tol)
    c = commutator(a, b)
    scale = max(frobenius(a) * frobenius(b), 1.0)
    if frobenius(c) <= tol.ccr_tol * scale:
        raise CommutingPair("[A, B] vanishes within tolerance")
    sd: SpectralData = eigh(1j * c, tol)
    zero_tol = max(sd.cluster_tol, tol.spectral_tol * frobenius(c))
    relations = []
    for cluster in sd.clusters:
        m = float(np.mean(sd.eigenvalues[cluster]))
        if abs(m) <= zero_tol:
            m = 0.0
        cc = -1j * m  # eigenvalue of C = -i (iC)
        relations.append(Relation(cc, sd.eigenspace(cluster), m != 0.0))
    # Im(c) = -m: descending Im(c) means ascending m; eigh already sorts ascending.
    relations.sort(key=lambda r: (-r.c.imag, -r.domain.dim))
    return RelationReport(c, relations, abs(np.trace(c)))


def as_solution(a, b, relation: Relation, hbar: float = 1.0):
    """Package a classified relation as a solution record for downstream use."""
    return CanonicalSolution(as_matrix(a), as_matrix(b), relation.c,
                             relation.domain, "classified", hbar)


def dft_zero_diagonal(c, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A unitary U with zero diagonal in U† C U, for traceless normal C.

    U is the discrete Fourier matrix expressed in C's eigenbasis; each
    diagonal entry of U† C U is the mean of C's eigenvalues, i.e. zero.
    """
    c = as_matrix(c)
    scale = max(frobenius(c), 1.0)
    if abs(np.trace(c)) > tol.spectral_tol * scale:
        raise NotTraceless(f"trace {np.trace(c)} is not zero within tolerance")
    _, q = normal_eig(c, tol)
    n = c.shape[0]
    k = np.arange(n)
    f = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return q @ f


def factorize(c, b_values, a_values=None,
              tol: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Factor a nontrivial traceless normal matrix as C = [A, B].

    In the zero-diagonal basis B is diagonal with the given values and
    A's off-diagonal entries are C_kl / (B_l - B_k); both are rotated
    back to the original basis.  For anti-Hermitian C the factors are
    Hermitian.
    """
    c = as_matrix(c)
    scale = frobenius(c)
    if scale == 0.0:
        raise TrivialMatrix("C = 0 is excluded from the definition of a commutator")
    b_values = np.asarray(b_values, dtype=float).reshape(-1)
    n = c.shape[0]
    if b_values.shape != (n,):
        raise RepeatedBValue(f"need exactly {n} B values")
    gaps = np.abs(b_values[:, None] - b_values[None, :])
    np.fill_diagonal(gaps, np.inf)
    if np.min(gaps) < 1e-12 * max(1.0, np.max(np.abs(b_values))):
        raise RepeatedBValue("B values must be pairwise distinct")
    if a_values is None:
        a_values = np.zeros(n)
    a_values = np.asarray(a_values, dtype=float).reshape(-1)

    u = dft_zero_diagonal(c, tol)
    c_rot = u.conj().T @ c @ u
    denom = b_values[None, :] - b_values[:, None]
    np.fill_diagonal(denom, 1.0)
    a_rot = c_rot / denom
    np.fill_diagonal(a_rot, a_values)
    b_rot = np.diag(b_values).astype(complex)
    return u @ a_rot @ u.conj().T, u @ b_rot @ u.conj().T


def commutator_fixing_state(phi, c: complex, b_values=None,
                            tol: ToleranceConfig = DEFAULT_TOL):
    """A commutator C (with factors A, B) having phi as eigenvector at c.

    C = c|phi><phi| - c|phi_2><phi_2| for any unit vector phi_2
    orthogonal to phi; the remaining spectrum is zero.
    """
    if abs(c) < 1e-14:
        raise ZeroEigenvalueRequested("the fixed eigenvalue must be nonzero")
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    nrm = np.linalg.norm(phi)
    if abs(nrm - 1.0) > tol.norm_tol:
        phi = phi / nrm
    n = phi.shape[0]
    # complete phi to an orthonormal basis
    q, _ = np.linalg.qr(np.column_stack([phi, np.eye(n)]))
    q[:, 0] = phi
    phi2 = q[:, 1]
    cm = c * np.outer(phi, phi.conj()) - c * np.outer(phi2, phi2.conj())
    if b_values is None:
        b_values = np.arange(n, dtype=float)
    a, b = factorize(cm, b_values, tol=tol)
    return cm, a, b
