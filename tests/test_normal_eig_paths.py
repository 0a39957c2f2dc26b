"""normal_eig's one path: a single eigh of mu*H1 - H2 for M = H1 + i*H2,
certified by the residual of H1 on the eigenbasis.

The differential tests keep the complex Schur form as a test-local
reference (normality check, Schur form, eigenvalue window) and require
normal_eig to return the same eigenspaces, for commutators of Hermitian
pairs and for generic normal matrices alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ccrlab
from ccrlab import errors
from ccrlab.commutator_lab import dft_zero_diagonal, factorize
from ccrlab.config import DEFAULT_TOL
from ccrlab.matrix_core import (
    Subspace,
    commutator,
    eigenspace,
    fix_phase,
    frobenius,
    hermiticity_defect,
    normal_eig,
    require_normal,
)
from ccrlab.pair_builder import (
    CATALOG_FAMILIES,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
)


def schur_eigenspace(m, lam, window, config=DEFAULT_TOL):
    """The Schur-path eigenspace: normality check, complex Schur, window."""
    m = require_normal(np.asarray(m, dtype=complex), config)
    t, q = scipy.linalg.schur(m, output="complex")
    scale = max(frobenius(m), 1.0)
    return Subspace(fix_phase(q[:, np.abs(np.diag(t) - lam) <= window * scale]))


def assert_same_domain(c_mat, c):
    window = DEFAULT_TOL.relation_window
    new = eigenspace(c_mat, c)
    ref = schur_eigenspace(c_mat, c, window)
    assert new.dim == ref.dim
    if new.dim:
        assert np.max(new.principal_angles(ref)) <= 1e-10
    return new.dim


def nondegenerate_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    return tuple(float(v) for v in np.cumsum(0.5 + rng.random(n)))


def random_traceless_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    return h - np.trace(h).real / n * np.eye(n)


def rotated(values, seed):
    """Q diag(values) Q† for a random unitary Q."""
    n = len(values)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return (q * np.asarray(values)) @ q.conj().T


def counting_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_domains_match_schur_path(family):
    for entry in catalog_3d(family):
        assert_same_domain(entry.commutator(), entry.c)


@pytest.mark.parametrize("n", [2, 3, 7, 16, 64, 128, 256])
@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_nondegenerate_domains_match_schur_path(n, hbar):
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(nondegenerate_spectrum(n, n)),
                              PairParams(hbar=hbar))
    c_mat = sol.commutator()
    for c in (1j * hbar, -1j * hbar):
        assert_same_domain(c_mat, c)


@pytest.mark.parametrize("levels,mult", [(2, 3), (5, 2), (16, 4), (64, 4)])
def test_degenerate_domains_match_schur_path(levels, mult):
    values = nondegenerate_spectrum(levels, 100 + levels)
    sol = build_degenerate(SpectrumSpec(values, (mult,) * levels))
    c_mat = sol.commutator()
    for c in (1j, -1j):
        assert_same_domain(c_mat, c)


def test_factorize_round_trip_at_256():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(nondegenerate_spectrum(256, 5)))
    c_mat = sol.commutator()
    a, b = factorize(c_mat, np.arange(256, dtype=float))
    assert frobenius(commutator(a, b) - c_mat) <= 1e-9 * frobenius(c_mat)
    assert hermiticity_defect(a) <= DEFAULT_TOL.hermiticity_tol
    assert hermiticity_defect(b) <= DEFAULT_TOL.hermiticity_tol


@pytest.mark.parametrize("seed", range(8))
def test_generic_normal_domains_match_schur_path(seed):
    """Rotated complex spectra with degenerate clusters: every eigenspace."""
    rng = np.random.default_rng(1000 + seed)
    distinct = rng.normal(size=3 + 5 * seed) + 1j * rng.normal(size=3 + 5 * seed)
    values = np.repeat(distinct, rng.integers(1, 5, size=distinct.size))[:128]
    c_mat = rotated(values, seed)
    assert sum(assert_same_domain(c_mat, lam) for lam in np.unique(values)) == values.size


@pytest.mark.parametrize("n", [8, 16, 32])
def test_rotated_roots_of_unity_match_schur_path(n):
    """Differences of roots of unity are never real multiples of 1 + i*sqrt(2)."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    c_mat = rotated(roots, n)
    assert sum(assert_same_domain(c_mat, lam) for lam in roots) == n


@pytest.mark.parametrize("build", [
    lambda: build_nondegenerate(SpectrumSpec.nondegenerate(nondegenerate_spectrum(256, 256))),
    lambda: build_degenerate(SpectrumSpec(nondegenerate_spectrum(64, 164), (4,) * 64)),
    lambda: catalog_3d("nondeg-2c")[0],
], ids=["nondegenerate-256", "degenerate-64x4", "catalog-nondeg-2c"])
def test_commutator_eigenbasis_is_bit_identical_to_eigh(build):
    """An exactly anti-Hermitian C gets -i*eigh(i*C) bit for bit, so relation
    domains and factorize outputs equal those of a plain eigh(i*C).  The
    nondeg-2c commutator has signed zeros that a K formed as
    sqrt(2)*H1 + (i/2)(C - C†) would flip, changing eigh's basis."""
    c_mat = build().commutator()
    w, v = np.linalg.eigh(1j * c_mat)
    vals, vecs = normal_eig(c_mat)
    assert np.array_equal(vals, -1j * w)
    assert np.array_equal(vecs, v)


def test_build_and_factorize_make_one_eigh_per_normal_eig(monkeypatch):
    calls = counting_eigh(monkeypatch)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(nondegenerate_spectrum(64, 1)))
    factorize(sol.commutator(), np.arange(64, dtype=float))
    assert calls == [(64, 64), (64, 64)]


def test_generic_normal_input_takes_one_eigh(monkeypatch):
    calls = counting_eigh(monkeypatch)
    c = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    c = c - np.trace(c) / 3 * np.eye(3)
    dft_zero_diagonal(c)
    assert calls == [(3, 3)]


def test_import_leaves_scipy_unloaded():
    path = [str(Path(ccrlab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys, ccrlab; assert 'scipy' not in sys.modules, 'ccrlab'; "
            "import ccrlab.cli; assert 'scipy' not in sys.modules, 'ccrlab.cli'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def perturbed_antihermitian(n=6, eps=1e-6):
    nilpotent = np.zeros((n, n), dtype=complex)
    nilpotent[0, n - 1] = eps
    return 1j * random_traceless_hermitian(n, 11) + nilpotent


def slightly_perturbed_antihermitian():
    """A nilpotent bump of 1e-9 * ||C||_F: outside DEFAULT_TOL's certificate,
    inside DEFAULT_TOL.scaled(100)'s."""
    return perturbed_antihermitian(eps=1e-9 * frobenius(random_traceless_hermitian(6, 11)))


def test_perturbed_antihermitian_is_rejected_by_eigenspace():
    for c_mat in (perturbed_antihermitian(), slightly_perturbed_antihermitian()):
        with pytest.raises(errors.NotNormal):
            eigenspace(c_mat, 1j)
    eigenspace(slightly_perturbed_antihermitian(), 1j, DEFAULT_TOL.scaled(100))


def test_perturbed_antihermitian_is_rejected_by_factorize():
    for c_mat in (perturbed_antihermitian(), slightly_perturbed_antihermitian()):
        with pytest.raises(errors.NotNormal):
            factorize(c_mat, np.arange(6, dtype=float))
    c_mat = slightly_perturbed_antihermitian()
    a, b = factorize(c_mat, np.arange(6, dtype=float), tol=DEFAULT_TOL.scaled(100))
    assert frobenius(commutator(a, b) - c_mat) <= 1e-8 * frobenius(c_mat)


def test_trace_check_uses_spectral_tol():
    c = 1j * random_traceless_hermitian(4, 2)
    c = c + (5e-10j * frobenius(c) / 4) * np.eye(4)
    assert frobenius(c) > 1.0
    with pytest.raises(errors.NotTraceless):
        dft_zero_diagonal(c, DEFAULT_TOL)
    u = dft_zero_diagonal(c, DEFAULT_TOL.scaled(10))
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12


def merged_normal(delta, third=None, n=16, seed=7):
    """Q diag(lam) Q† with lam_1 = lam_0 + 0.8*(1 + i*sqrt(2)) + i*delta.

    The difference of lam_0 and lam_1 is then within delta of a real
    multiple of 1 + i*sqrt(2), so the two nearly share an eigenvalue of
    K = sqrt(2)*H1 - H2 and eigh mixes their vectors.  With third set,
    lam_2 = lam_0 + i*third has lam_0's real part as well."""
    rng = np.random.default_rng(seed)
    lam = rng.normal(size=n) + 1j * rng.normal(size=n)
    lam[1] = lam[0] + 0.8 * (1 + 1j * np.sqrt(2)) + 1j * delta
    if third is not None:
        lam[2] = lam[0] + 1j * third
    lam -= lam.mean()
    return rotated(lam, seed), lam


def assert_diagonalizes(m, lam):
    vals, vecs = normal_eig(m)
    assert frobenius(m @ vecs - vecs * vals) <= 1e-12 * frobenius(m)
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(len(lam))) <= 1e-12
    assert all(np.min(np.abs(vals - x)) <= 1e-12 * frobenius(m) for x in lam)


@pytest.mark.parametrize("delta", [1e-7, 1e-9, 1e-12, 0.0])
def test_eigenvalues_merged_in_k_are_split_by_h1(delta):
    m, lam = merged_normal(delta)
    assert_diagonalizes(m, lam)
    assert eigenspace(m, lam[0]).dim == eigenspace(m, lam[1]).dim == 1


@pytest.mark.parametrize("third", [1e-5, 1e-7, 1e-9])
def test_merged_chain_with_equal_real_parts_is_split_by_k(third):
    """lam_0 and lam_2 share an eigenvalue of H1 inside the merged chain;
    splitting by H1 alone would mix them and leave K's residual large."""
    m, lam = merged_normal(1e-9, third)
    assert_diagonalizes(m, lam)


def test_merged_chain_with_a_nilpotent_bump_is_rejected():
    m, _ = merged_normal(0.0)
    m[0, -1] += 1e-6 * frobenius(m)
    with pytest.raises(errors.NotNormal):
        normal_eig(m)
