"""normal_eig's two paths: eigh of i*M for anti-Hermitian M, the certified
complex Schur form for every other normal M.

The differential tests keep the Schur path as a test-local reference
(normality check, complex Schur form, eigenvalue window) and require the
eigh path to return the same relation domains.
"""

import numpy as np
import pytest
import scipy.linalg

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
    new = eigenspace(c_mat, c, window)
    ref = schur_eigenspace(c_mat, c, window)
    assert new.dim == ref.dim
    if new.dim:
        assert np.max(new.principal_angles(ref)) <= 1e-10


def nondegenerate_spectrum(n, seed):
    rng = np.random.default_rng(seed)
    return tuple(float(v) for v in np.cumsum(0.5 + rng.random(n)))


def random_traceless_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    return h - np.trace(h).real / n * np.eye(n)


def counting_schur(monkeypatch):
    calls = []
    original = scipy.linalg.schur

    def schur(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", schur)
    return calls


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_domains_match_schur_path(family):
    for entry in catalog_3d(family):
        assert_same_domain(entry.solution.commutator(), entry.c)


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


def test_build_and_factorize_make_no_schur_call(monkeypatch):
    calls = counting_schur(monkeypatch)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(nondegenerate_spectrum(64, 1)))
    factorize(sol.commutator(), np.arange(64, dtype=float))
    assert calls == []


def test_generic_normal_input_takes_the_schur_path(monkeypatch):
    calls = counting_schur(monkeypatch)
    c = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    c = c - np.trace(c) / 3 * np.eye(3)
    dft_zero_diagonal(c)
    assert calls == [(3, 3)]


def perturbed_antihermitian(n=6, eps=1e-6):
    nilpotent = np.zeros((n, n), dtype=complex)
    nilpotent[0, n - 1] = eps
    return 1j * random_traceless_hermitian(n, 11) + nilpotent


def test_perturbed_antihermitian_is_rejected_by_eigenspace():
    with pytest.raises(errors.NotNormal):
        eigenspace(perturbed_antihermitian(), 1j, DEFAULT_TOL.relation_window)


def test_perturbed_antihermitian_is_rejected_by_factorize():
    with pytest.raises(errors.NotNormal):
        factorize(perturbed_antihermitian(), np.arange(6, dtype=float))


def test_trace_check_uses_spectral_tol():
    c = 1j * random_traceless_hermitian(4, 2)
    c = c + (5e-10j * frobenius(c) / 4) * np.eye(4)
    assert frobenius(c) > 1.0
    with pytest.raises(errors.NotTraceless):
        dft_zero_diagonal(c, DEFAULT_TOL)
    u = dft_zero_diagonal(c, DEFAULT_TOL.scaled(10))
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12
