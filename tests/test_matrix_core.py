import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ccrlab import errors
from ccrlab.config import DEFAULT_TOL
from ccrlab.matrix_core import (
    Subspace,
    commutator,
    eigenspace,
    eigh,
    evolve,
    fix_phase,
    hermiticity_defect,
    normal_eig,
    propagator,
    relation_residual,
    require_hermitian,
    span,
)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_eigh_diagonal():
    sd = eigh(np.diag([1.0, 2.0]))
    assert np.allclose(sd.eigenvalues, [1.0, 2.0])
    assert abs(abs(sd.eigenvectors[0, 0]) - 1.0) < 1e-14
    assert abs(abs(sd.eigenvectors[1, 1]) - 1.0) < 1e-14


def test_eigh_sigma_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sd = eigh(sx)
    assert np.allclose(sd.eigenvalues, [-1.0, 1.0])


def test_eigh_reconstruction():
    m = random_hermitian(6, 42)
    sd = eigh(m)
    recon = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.conj().T
    assert np.linalg.norm(m - recon, "fro") <= 1e-10 * np.linalg.norm(m, "fro")


def test_eigh_rejects_nonhermitian():
    with pytest.raises(errors.NotHermitian):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_clusters_degeneracy():
    sd = eigh(np.diag([1.0, 1.0, 2.0]))
    assert [len(c) for c in sd.clusters] == [2, 1]


def test_eigenspace_plus_minus_c():
    c = 0.7j
    m = np.diag([0.0, 0.0, c, -c])
    sub = eigenspace(m, c)
    assert sub.dim == 1
    assert abs(abs(sub.basis[2, 0]) - 1.0) < 1e-12


def test_eigenspace_identity():
    sub = eigenspace(np.eye(3), 1.0)
    assert sub.dim == 3


def test_eigenspace_antihermitian_2x2():
    # eigenvector of [[0,-i],[-i,0]] at +i is (1,-1)/sqrt(2)
    m = np.array([[0, -1j], [-1j, 0]])
    sub = eigenspace(m, 1j)
    assert sub.dim == 1
    target = np.array([1.0, -1.0]) / np.sqrt(2)
    assert sub.distance(target) < 1e-12


def test_eigenspace_empty_allowed():
    sub = eigenspace(np.diag([1.0, 2.0]), 5.0)
    assert sub.dim == 0


def test_eigenspace_rejects_nonnormal():
    with pytest.raises(errors.NotNormal):
        eigenspace(np.array([[1.0, 1.0], [0.0, 1.0]]), 1.0)


def test_evolve_identity_at_zero():
    h = random_hermitian(4, 3)
    assert np.allclose(evolve(h, 0.0), np.eye(4), atol=1e-14)


def test_evolve_sigma_z():
    u = evolve(np.diag([1.0, -1.0]), np.pi / 2)
    expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
    assert np.allclose(u, expected, atol=1e-14)


def test_evolve_unitary_and_inverse():
    h = random_hermitian(5, 11)
    t = 2.37
    u = evolve(h, t)
    assert np.linalg.norm(u.conj().T @ u - np.eye(5), "fro") <= 1e-12
    assert np.linalg.norm(u @ evolve(h, -t) - np.eye(5), "fro") <= 1e-10


def test_evolve_requires_positive_hbar():
    with pytest.raises(ValueError):
        evolve(np.eye(2), 1.0, hbar=0.0)


def test_commutator_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        commutator(np.eye(2), np.eye(3))


@pytest.mark.parametrize("h", [np.diag([3.0, 1.0, 2.0]), random_hermitian(3, 5)])
@pytest.mark.parametrize("rows", [2, 4])
def test_eigenbasis_maps_reject_an_operand_of_another_dimension(h, rows):
    """A gather (permuted eigenbasis) and a dense product alike."""
    sd = eigh(h)
    for x in (np.ones(rows), np.ones((rows, 2))):
        with pytest.raises(errors.DimensionMismatch):
            sd.to_eigenbasis(x)
        with pytest.raises(errors.DimensionMismatch):
            sd.from_eigenbasis(x)


def test_commutator_identities():
    a = random_hermitian(5, 7)
    b = random_hermitian(5, 8)
    c = commutator(a, b)
    assert abs(np.trace(c)) < 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)
    assert np.linalg.norm(c + c.conj().T, "fro") < 1e-12


def test_hermiticity_defect_zero_matrix():
    assert hermiticity_defect(np.zeros((3, 3))) == 0.0


def test_require_hermitian_tolerance():
    m = np.eye(2) + 1e-10 * np.array([[0, 1], [0, 0]])
    with pytest.raises(errors.NotHermitian):
        require_hermitian(m, DEFAULT_TOL)


def test_subspace_projection_and_distance():
    sub = span([np.array([1.0, 0.0, 0.0])])
    v = np.array([1.0, 1.0, 0.0])
    assert np.allclose(sub.project(v), [1.0, 0.0, 0.0])
    assert abs(sub.distance(v) - 1.0) < 1e-14


def test_span_drops_dependent_vectors():
    sub = span([np.array([1.0, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])])
    assert sub.dim == 2


def test_principal_angles_same_subspace():
    basis = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 2)))[0]
    s1 = Subspace(basis)
    phases = np.exp(1j * np.array([0.3, -1.2]))
    s2 = Subspace(basis * phases)
    assert np.max(s1.principal_angles(s2)) < 1e-12


def subspaces_at_angles(angles, extra, rng):
    """A (k + extra)-dimensional and a k-dimensional subspace whose principal
    angles are `angles` (k of them), each in a randomly rotated basis."""
    k = len(angles)
    n = 2 * k + extra + 1
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    big = q[:, :k + extra]
    small = q[:, :k] * np.cos(angles) + q[:, k + extra:2 * k + extra] * np.sin(angles)

    def rotate(b):
        m = b.shape[1]
        return b @ np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]

    return Subspace(rotate(big)), Subspace(rotate(small))


def test_principal_angles_match_scipy():
    """200 pairs of unequal dimension, angles from 1e-12 to pi/2.  All angles
    of one pair lie on one side of pi/4: scipy picks arcsin or arccos by the
    index of the cosine, not of the angle, and so loses up to ~1e-8 on a set
    mixing an angle near 0 with one near pi/2 (checked against the
    constructed angles below instead)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(200):
        k = int(rng.integers(1, 5))
        if trial % 2:
            angles = 10.0 ** rng.uniform(-12, np.log10(np.pi / 4), size=k)
        else:
            angles = rng.uniform(np.pi / 4, np.pi / 2, size=k)
        big, small = subspaces_at_angles(angles, int(rng.integers(1, 4)), rng)
        for a, b in ((big, small), (small, big)):
            ref = scipy.linalg.subspace_angles(a.basis, b.basis)
            worst = max(worst, float(np.max(np.abs(a.principal_angles(b) - ref))))
    assert worst <= 1e-12


@pytest.mark.parametrize("angles", [(np.pi / 2, 1e-12), (np.pi / 2 - 1e-9, 0.3, 1e-10),
                                    (1.4, 0.8, 0.7, 1e-6), (0.0, np.pi / 2)])
def test_principal_angles_are_the_constructed_angles(angles):
    big, small = subspaces_at_angles(np.array(angles), 2, np.random.default_rng(7))
    assert np.max(np.abs(big.principal_angles(small) - np.sort(angles)[::-1])) <= 1e-12
    assert np.max(np.abs(small.principal_angles(big) - np.sort(angles)[::-1])) <= 1e-12


def test_principal_angles_of_the_empty_subspace_are_empty():
    empty = Subspace(np.zeros((4, 0), dtype=complex))
    full = Subspace(np.eye(4)[:, :2])
    assert empty.principal_angles(full).shape == (0,)
    assert full.principal_angles(empty).shape == (0,)


def test_fix_phase_makes_pivot_real_positive():
    col = np.array([[1j / np.sqrt(2)], [1 / np.sqrt(2)]])
    fixed = fix_phase(col)
    assert fixed[0, 0].imag == pytest.approx(0.0, abs=1e-15)
    assert fixed[0, 0].real > 0


def test_normal_eig_diagonalizes():
    # anti-Hermitian, hence normal but not Hermitian
    m = 1j * random_hermitian(4, 9)
    vals, vecs = normal_eig(m)
    assert np.linalg.norm(m @ vecs - vecs * vals, "fro") < 1e-12
    # the eigh path returns exactly imaginary eigenvalues and a unitary basis
    assert np.all(vals.real == 0.0)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(4)) < 1e-12


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_propagator_apply_matches_evolve(hbar):
    h = random_hermitian(6, 21)
    rng = np.random.default_rng(4)
    vec = rng.normal(size=6) + 1j * rng.normal(size=6)
    mat = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    prop = propagator(h, hbar)
    for t in (0.0, 0.7, -3.1):
        u = evolve(h, t, hbar)
        assert np.linalg.norm(prop.apply(t, vec) - u @ vec) <= 1e-12
        assert np.linalg.norm(prop.apply(t, mat) - u @ mat) <= 1e-12
        assert np.linalg.norm(prop.unitary(t) - u) <= 1e-12


def test_propagator_phases_and_inverse():
    h = random_hermitian(5, 12)
    prop = propagator(h)
    assert np.array_equal(prop.phases(0.0), np.ones(5))
    times = np.array([0.0, 0.3, -1.2])
    batch = prop.phases(times)
    assert batch.shape == (5, 3)
    for k, t in enumerate(times):
        assert np.array_equal(batch[:, k], prop.phases(t))
    t = 2.37
    assert np.linalg.norm(prop.unitary(t) @ prop.unitary(-t) - np.eye(5)) <= 1e-12


def test_propagator_requires_positive_hbar():
    with pytest.raises(ValueError):
        propagator(np.eye(2), hbar=-1.0)


def test_relation_residual_empty_basis_is_zero():
    c = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert relation_residual(c, 1j, np.zeros((2, 0), dtype=complex)) == 0.0
    v = np.array([[1.0], [1j]]) / np.sqrt(2)  # eigenvector of c at i
    assert relation_residual(c, 1j, v) <= 1e-15
    assert relation_residual(c, -1j, v) == pytest.approx(2.0)


def test_scaled_multiplies_every_tolerance_and_the_window():
    loose = DEFAULT_TOL.scaled(10.0)
    for f in dataclasses.fields(DEFAULT_TOL):
        assert getattr(loose, f.name) == getattr(DEFAULT_TOL, f.name) * 10.0
    assert DEFAULT_TOL.relation_window == pytest.approx(100 * DEFAULT_TOL.spectral_tol)
    assert loose.relation_window == pytest.approx(10.0 * DEFAULT_TOL.relation_window)
