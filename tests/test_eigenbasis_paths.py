"""Differential tests and guards for the clock path on H's eigenbasis.

A diagonal generator's eigenbasis is a permutation of the identity, so
products with it are gathers (SpectralData.to_eigenbasis/from_eigenbasis),
and membership in a domain of dim > N/2 is measured in its complement.
Each path is checked against the dense formula it replaced, kept here as
a test-local reference: bit for bit for a diagonal H, sorted or shuffled
(K(t) psi for a shuffled H up to the order of its sum), and to 1e-12 for
a dense H = U diag U†.
"""

from dataclasses import replace

import numpy as np
import pytest

from ccrlab import clock, invariant_sets
from ccrlab.clock import (
    ClockConfig,
    clock_trace,
    commuting_factor,
    commuting_factor_matrix,
    heisenberg_T,
)
from ccrlab.config import DEFAULT_TOL, ToleranceConfig
from ccrlab.errors import StateOutsideDomain
from ccrlab.invariant_sets import _membership_residual, _retained_differences, invariant_set
from ccrlab.matrix_core import Propagator, Subspace, eigh, propagator
from ccrlab.pair_builder import PairParams, SpectrumSpec, build_degenerate, build_nondegenerate
from ccrlab.uncertainty import std_from_moments

SIZES = [2, 3, 64, 256]


def built(n, hbar=1.0):
    """A canonical pair on integer levels, so its invariant set is a lattice."""
    levels = np.cumsum(np.random.default_rng(n).integers(1, 4, size=n)).astype(float)
    return build_nondegenerate(SpectrumSpec.nondegenerate(levels), PairParams(hbar=hbar))


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def degenerate(n, hbar=1.0):
    """A canonical pair on integer levels, each 4-fold ((2, 1) for n = 3)."""
    mults = (2, 1) if n == 3 else (4,) * (n // 4)
    levels = np.cumsum(np.random.default_rng(n).integers(1, 4, size=len(mults))).astype(float)
    return build_degenerate(SpectrumSpec(levels, mults), PairParams(hbar=hbar))


def generator(n, kind, hbar=1.0):
    """sol with B sorted diagonal, shuffled diagonal, or dense (U B U†); or B
    unchanged and A rephased by a diagonal unitary; or a degenerate B."""
    if kind == "degenerate":
        return degenerate(n, hbar)
    sol = built(n, hbar)
    if kind == "sorted":
        return sol
    if kind == "shuffled":
        return sol.conjugated(np.eye(n)[:, np.random.default_rng(n + 1).permutation(n)])
    if kind == "phased":
        return sol.conjugated(np.diag(np.exp(2j * np.pi * np.random.default_rng(n + 3).random(n))))
    return sol.conjugated(random_unitary(n, n + 2))


def clock_of(sol):
    return ClockConfig(sol.B, sol.A, sol.domain, hbar=sol.hbar)


def domain_state(sol, seed):
    rng = np.random.default_rng(seed)
    v = sol.domain.basis @ (rng.normal(size=sol.domain.dim) + 1j * rng.normal(size=sol.domain.dim))
    return v / np.linalg.norm(v)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def assert_agree(x, y, kind):
    if kind == "dense":
        assert np.max(np.abs(np.asarray(x) - np.asarray(y))) <= 1e-12 * max(np.max(np.abs(y)), 1.0)
    else:
        assert np.array_equal(x, y)


# --- dense references -----------------------------------------------------------

def reference_apply(h, t, x, hbar=1.0):
    sd = eigh(h)
    v = sd.eigenvectors
    phases = np.exp(-1j * sd.eigenvalues * t / hbar)
    coeffs = v.conj().T @ x
    return v @ (phases * coeffs if coeffs.ndim == 1 else phases[:, None] * coeffs)


def reference_trace(cfg, phi, base_point, tau):
    """clock_trace's samples with T_e = V†TV and V†phi as dense products."""
    sd = eigh(cfg.H)
    v = sd.eigenvectors
    phi_e = v.conj().T @ phi
    t_e = v.conj().T @ cfg.T @ v
    times = np.append(base_point + tau, base_point)
    psi = np.exp(-1j * np.multiply.outer(sd.eigenvalues, times) / cfg.hbar) * phi_e[:, None]
    t_psi = t_e @ psi
    means = np.real(np.sum(psi.conj() * t_psi, axis=0))
    second_moments = np.real(np.sum(t_psi.conj() * t_psi, axis=0))
    return means[:-1], std_from_moments(means[:-1], second_moments[:-1]), means[-1]


def reference_commuting_factor(cfg, t):
    """K(t) = T(t) - T in H's eigenbasis: N^2 exponentials exp(i(E_s - E_s')t/hbar)
    times V†TV as a dense product, in place of the propagator's phases and T_e."""
    sd = eigh(cfg.H)
    e, v = sd.eigenvalues, sd.eigenvectors
    return (np.exp(1j * (e[:, None] - e[None, :]) * t / cfg.hbar) - 1.0) * (v.conj().T @ cfg.T @ v)


def reference_coefficients(sol, h):
    return eigh(h).eigenvectors.conj().T @ sol.domain.basis


def reference_membership(h, basis, t, hbar=1.0):
    """The projection onto the domain that the complement-side test replaced."""
    moved = reference_apply(h, t, basis, hbar)
    return float(np.max(np.linalg.norm(moved - basis @ (basis.conj().T @ moved), axis=0)))


# --- differential tests -------------------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense"])
def test_propagator_matches_the_dense_formula(n, kind):
    sol = generator(n, kind)
    prop = propagator(sol.B)
    assert (prop.spectral.permutation is None) == (kind == "dense")
    vec, mat = random_state(n, 1), sol.domain.basis
    for t in (0.0, 0.37, -11.5):
        assert_agree(prop.apply(t, vec), reference_apply(sol.B, t, vec), kind)
        assert_agree(prop.apply(t, mat), reference_apply(sol.B, t, mat), kind)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense"])
def test_clock_trace_matches_the_dense_formula(n, kind):
    sol = generator(n, kind)
    cfg = clock_of(sol)
    period = invariant_set(sol, sol.B).period
    phi = domain_state(sol, 2)
    tau = np.linspace(-0.01, 0.01, 11)
    for base_point in (0.0, 3 * period):
        trace = clock_trace(cfg, phi, base_point, tau)
        means, dts, t0 = reference_trace(cfg, phi, base_point, tau)
        assert_agree(trace.expectation, means, kind)
        assert_agree(trace.delta_T, dts, kind)
        assert_agree(trace.t0, t0, kind)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense"])
def test_commuting_factor_matches_the_dense_formula(n, kind):
    """K(t) psi is summed in H's eigenbasis order, so for a shuffled H it
    differs from the dense (V K V†) psi only by the order of the sum."""
    sol = generator(n, kind)
    cfg = clock_of(sol)
    psi = random_state(n, 3)
    for t in (0.0, 0.7, 2.9):
        k_mat = commuting_factor_matrix(cfg, t)
        got, ref = commuting_factor(cfg, t, psi), k_mat @ psi
        if kind == "shuffled":
            bound = 2 * n * np.finfo(float).eps * (np.abs(k_mat) @ np.abs(psi))
            assert np.all(np.abs(got - ref) <= bound)
        else:
            assert_agree(got, ref, kind)


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("kind", ["sorted", "dense", "phased", "degenerate"])
@pytest.mark.parametrize("hbar", [0.5, 1.0])
def test_commuting_factor_matches_the_exponential_formula(n, kind, hbar):
    """K(t) from the propagator's phases and T_e against N^2 exponentials times
    V†TV, over one period."""
    sol = generator(n, kind, hbar)
    cfg = clock_of(sol)
    v = cfg.propagator.spectral.eigenvectors
    psi = random_state(n, 4)
    period = invariant_set(sol, sol.B).period
    for t in np.linspace(0.0, period, 8, endpoint=False):
        k = reference_commuting_factor(cfg, t)
        ref_mat, ref_psi = v @ k @ v.conj().T, v @ (k @ (v.conj().T @ psi))
        got_mat, got_psi = commuting_factor_matrix(cfg, t), commuting_factor(cfg, t, psi)
        assert np.linalg.norm(got_mat - ref_mat) <= 1e-12 * np.linalg.norm(ref_mat)
        assert np.linalg.norm(got_psi - ref_psi) <= 1e-12 * np.linalg.norm(ref_psi)


def assert_weak_weyl_relation(n, kind, hbar):
    """T U(t) psi = U(t) (T + K(t)) psi, U(t) from the dense formula."""
    sol = generator(n, kind, hbar)
    cfg = clock_of(sol)
    psi = random_state(n, 5)
    period = invariant_set(sol, sol.B).period
    assert period == pytest.approx(2 * np.pi * hbar)
    for t in np.linspace(0.0, period, 8, endpoint=False):
        lhs = cfg.T @ reference_apply(cfg.H, t, psi, hbar)
        rhs = reference_apply(cfg.H, t, cfg.T @ psi + commuting_factor(cfg, t, psi), hbar)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


# conjugated (dense H), rephased (H unchanged) and degenerate clocks as well
WEYL_KINDS = ["sorted", "shuffled", "dense", "phased", "degenerate"]


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("kind", WEYL_KINDS)
def test_weak_weyl_relation_at_half_hbar(n, kind):
    assert_weak_weyl_relation(n, kind, 0.5)


@pytest.mark.parametrize("n", [3, 64, 256])
@pytest.mark.parametrize("kind", WEYL_KINDS)
def test_weak_weyl_relation_at_unit_hbar(n, kind):
    assert_weak_weyl_relation(n, kind, 1.0)


@pytest.mark.parametrize("n", [3, 64])
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense", "phased", "degenerate"])
def test_commuting_factor_is_the_heisenberg_increment(n, kind):
    """K(t) = T(t) - T."""
    cfg = clock_of(generator(n, kind))
    for t in (0.0, 0.7, 2.9):
        k = commuting_factor_matrix(cfg, t)
        assert np.linalg.norm(k - (heisenberg_T(cfg, t) - cfg.T)) <= 1e-12 * np.linalg.norm(cfg.T)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense"])
def test_retained_differences_match_the_dense_coefficients(n, kind, monkeypatch):
    sol = generator(n, kind)
    sd, diffs, excluded = _retained_differences(sol, sol.B, DEFAULT_TOL)
    # the same function with the eigenbasis given only as a dense matrix
    monkeypatch.setattr(invariant_sets, "eigh", lambda h, tol: replace(sd, permutation=None))
    _, dense_diffs, dense_excluded = _retained_differences(sol, sol.B, DEFAULT_TOL)
    assert_agree(diffs, dense_diffs, kind)
    assert excluded == dense_excluded
    assert_agree(sd.to_eigenbasis(sol.domain.basis), reference_coefficients(sol, sol.B), kind)


# --- membership from the complement ---------------------------------------------------

@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["sorted", "shuffled", "dense"])
def test_complement_membership_matches_the_projection(n, kind):
    sol = generator(n, kind)
    period = invariant_set(sol, sol.B).period
    prop = propagator(sol.B)
    assert sol.domain.complement_basis() is not None
    for t in (7 * period, 7.5 * period):
        got = _membership_residual(prop, sol.domain, t, DEFAULT_TOL)
        assert abs(got - reference_membership(sol.B, sol.domain.basis, t)) <= 1e-14
    assert _membership_residual(prop, sol.domain, 7 * period, DEFAULT_TOL) <= 1e-10
    assert _membership_residual(prop, sol.domain, 7.5 * period, DEFAULT_TOL) > 0.1


@pytest.mark.parametrize("n", [3, 64, 256])
def test_complement_basis_is_certified_orthonormal(n):
    domain = built(n).domain
    q = domain.complement_basis()
    assert q.shape == (n, n - domain.dim)
    assert np.linalg.norm(q.conj().T @ q - np.eye(q.shape[1])) <= 1e-14
    assert np.linalg.norm(domain.basis.conj().T @ q) <= DEFAULT_TOL.spectral_tol


@pytest.mark.parametrize("n", [3, 64, 256])
def test_a_failed_certificate_falls_back_to_the_projection(n):
    sol = built(n)
    strict = ToleranceConfig(spectral_tol=0.0)
    assert sol.domain.complement_basis(strict) is None
    prop = propagator(sol.B, tol=strict)
    period = invariant_set(sol, sol.B).period
    for t in (2 * period, 2.5 * period):
        got = _membership_residual(prop, sol.domain, t, strict)
        assert got == reference_membership(sol.B, sol.domain.basis, t)


def test_unit_vectors_that_miss_the_complement_fail_the_certificate():
    """The complement span{e0 + e1, e2 + e3} weighs 1/2 on rows 0..3; the
    two rows of lowest leverage, 0 and 1, both project onto e0 + e1."""
    s = 2 ** -0.5
    basis = np.zeros((6, 4), dtype=complex)
    basis[[0, 1], 0] = s, -s
    basis[[2, 3], 1] = s, -s
    basis[4, 2] = basis[5, 3] = 1.0
    domain = Subspace(basis)
    assert domain.complement_basis() is None
    x = random_state(6, 5)[:, None]
    assert np.array_equal(domain.distances(x), np.linalg.norm(x - basis @ (basis.conj().T @ x), axis=0))
    assert abs(domain.distances(x)[0] - domain.distance(x[:, 0])) <= 1e-15


# --- the gathers take no dense product ------------------------------------------------

def nan_eigenbasis(sd):
    return replace(sd, eigenvectors=np.full_like(sd.eigenvectors, np.nan))


@pytest.mark.parametrize("kind", ["sorted", "shuffled"])
def test_a_permuted_eigenbasis_is_never_multiplied(kind, monkeypatch):
    """With NaN eigenvectors, any dense product left on the path shows up."""
    sol = generator(64, kind)
    cfg = clock_of(sol)
    sd = eigh(sol.B)
    nan_sd = nan_eigenbasis(sd)
    period = invariant_set(sol, sol.B).period
    phi, psi, tau = domain_state(sol, 6), random_state(64, 7), np.linspace(-0.01, 0.01, 11)
    expected = (propagator(sol.B).apply(0.3, psi), clock_trace(cfg, phi, period, tau),
                commuting_factor(cfg, 0.3, psi))
    # the config's one decomposition of H, with NaN eigenvectors
    monkeypatch.setattr(clock, "propagator", lambda h, hbar, tol: Propagator(nan_sd, hbar))
    monkeypatch.setattr(invariant_sets, "eigh", lambda h, tol: nan_sd)
    cfg = clock_of(sol)
    assert cfg.propagator.spectral is nan_sd
    moved = Propagator(nan_sd).apply(0.3, psi)
    trace = clock_trace(cfg, phi, period, tau)
    k_psi = commuting_factor(cfg, 0.3, psi)
    _, diffs, _ = _retained_differences(sol, sol.B, DEFAULT_TOL)
    for got in (moved, trace.expectation, trace.delta_T, k_psi, diffs):
        assert np.all(np.isfinite(got))
    assert np.array_equal(moved, expected[0])
    assert np.array_equal(trace.expectation, expected[1].expectation)
    assert np.array_equal(trace.delta_T, expected[1].delta_T)
    assert np.array_equal(k_psi, expected[2])


# --- clock_trace's domain check ---------------------------------------------------------

def test_clock_trace_rejects_a_state_outside_the_domain():
    """The passage-time domain state of a 2-level pair lies at distance 1
    from the arrival clock's domain."""
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0)))
    arrival = clock.clock_from_solution(sol, sign=clock.TIME_OF_ARRIVAL)
    phi = sol.domain.basis[:, 0]
    assert abs(arrival.domain.distance(phi) - 1.0) <= 1e-12
    with pytest.raises(StateOutsideDomain):
        clock_trace(arrival, phi, 0.0, np.linspace(-0.01, 0.01, 5))
    clock_trace(arrival, arrival.domain.basis[:, 0], 0.0, np.linspace(-0.01, 0.01, 5))


def test_clock_trace_accepts_a_state_within_the_membership_tolerance():
    sol = built(64)
    cfg = clock_of(sol)
    off = np.linalg.qr(np.column_stack([sol.domain.basis, random_state(64, 8)]))[0][:, -1]
    for eps, ok in ((1e-10, True), (1e-6, False)):
        phi = domain_state(sol, 9) + eps * off
        phi /= np.linalg.norm(phi)
        if ok:
            clock_trace(cfg, phi, 0.0, np.array([0.0]))
        else:
            with pytest.raises(StateOutsideDomain):
                clock_trace(cfg, phi, 0.0, np.array([0.0]))
