import numpy as np
import pytest

import ccrlab.matrix_core
from ccrlab import errors
from ccrlab.clock import (
    PASSAGE_TIME,
    TIME_OF_ARRIVAL,
    ClockConfig,
    WindowTooWide,
    clock_from_solution,
    clock_trace,
    commuting_factor,
    commuting_factor_matrix,
    heisenberg_T,
    linearity_fit,
)
from ccrlab.config import DEFAULT_TOL
from ccrlab.invariant_sets import InvariantKind, invariant_set
from ccrlab.matrix_core import Subspace, evolve
from ccrlab.pair_builder import (
    CATALOG_FAMILIES,
    CanonicalSolution,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
)
from ccrlab.uncertainty import expectation, uncertainty


def clock_2d(a1=0.0, a2=0.0, e1=0.0, e2=1.0):
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((e1, e2)),
                              PairParams(diag_a=np.array([a1, a2])))
    return sol, clock_from_solution(sol)


def test_config_rejects_commuting_pair():
    sol, _ = clock_2d()
    with pytest.raises(errors.ConstraintViolated):
        ClockConfig(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), sol.domain)


def test_heisenberg_T_identity_at_zero():
    sol, cfg = clock_2d()
    assert np.allclose(heisenberg_T(cfg, 0.0), cfg.T, atol=1e-14)


def test_heisenberg_T_periodicity():
    sol, cfg = clock_2d()
    period = 2 * np.pi  # gap 1, hbar 1
    assert np.allclose(heisenberg_T(cfg, period), cfg.T, atol=1e-10)


def test_2d_closed_form_expectation():
    a1, a2 = 0.2, 0.9
    sol, cfg = clock_2d(a1, a2)
    phi = sol.domain.basis[:, 0]
    tau = np.linspace(-2 * np.pi, 2 * np.pi, 41)
    trace = clock_trace(cfg, phi, 0.0, tau)
    e12 = -1.0  # E_1 - E_2
    exact = (a1 + a2) / 2 + (1.0 / e12) * np.sin(e12 * tau)
    assert np.max(np.abs(trace.expectation - exact)) <= 1e-10
    assert trace.t0 == pytest.approx((a1 + a2) / 2, abs=1e-12)


def test_trace_h_norm_is_spectral_norm_of_generator():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((-3.0, -1.0, 0.5, 2.0)))
    cfg = clock_from_solution(sol)
    trace = clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, np.linspace(-0.01, 0.01, 5))
    assert trace.h_norm == pytest.approx(cfg.h_norm, rel=1e-12)


def test_2d_uncertainty_product_at_lattice_points():
    a1, a2 = 0.3, 0.7
    sol, cfg = clock_2d(a1, a2)
    phi = sol.domain.basis[:, 0]
    period = 2 * np.pi
    trace = clock_trace(cfg, phi, 0.0, np.array([-period, 0.0, period]))
    e12 = -1.0
    expected = 0.5 * np.sqrt(1 + (a1 - a2) ** 2 * e12 ** 2 / 4)
    assert np.max(np.abs(trace.uncertainty_product - expected)) <= 1e-9


def test_2d_product_never_below_floor_on_domain():
    sol, cfg = clock_2d(0.1, 0.4)
    phi = sol.domain.basis[:, 0]
    trace = clock_trace(cfg, phi, 0.0, np.linspace(-0.01, 0.01, 9))
    assert np.min(trace.uncertainty_product) >= 0.5 - 1e-9


def test_passage_and_arrival_slopes():
    sol, cfg = clock_2d()
    tau = np.linspace(-0.01, 0.01, 21)
    plus = clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, tau)
    assert linearity_fit(plus).slope == pytest.approx(1.0, abs=1e-3)

    cfg_minus = clock_from_solution(sol, sign=TIME_OF_ARRIVAL)
    minus = clock_trace(cfg_minus, cfg_minus.domain.basis[:, 0], 0.0, tau)
    assert linearity_fit(minus).slope == pytest.approx(-1.0, abs=1e-3)


def test_slope_at_multiple_base_points():
    sol, cfg = clock_2d()
    tau = np.linspace(-0.01, 0.01, 21)
    period = 2 * np.pi
    for n in (0, 1, 2):
        trace = clock_trace(cfg, cfg.domain.basis[:, 0], n * period, tau)
        assert linearity_fit(trace).slope == pytest.approx(1.0, abs=1e-3)


def test_base_point_not_invariant_rejected():
    sol, cfg = clock_2d()
    with pytest.raises(errors.BasePointNotInvariant):
        clock_trace(cfg, cfg.domain.basis[:, 0], np.pi, np.linspace(-0.01, 0.01, 5))


def test_3d_degenerate_t0():
    a = (0.4, 0.4, 1.1)
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 1)),
                           PairParams(diag_a=np.array(a)))
    cfg = clock_from_solution(sol)
    trace = clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, np.array([0.0]))
    # block coupling b = 0 here
    assert trace.t0 == pytest.approx((a[0] + a[1] + 2 * a[2]) / 4, abs=1e-12)


def test_window_too_wide_warning():
    sol, cfg = clock_2d()
    trace = clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, np.linspace(-2.0, 2.0, 9))
    with pytest.warns(WindowTooWide):
        linearity_fit(trace)


@pytest.mark.parametrize("tau", [[0.01], [0.0, 0.0, 0.0]])
def test_fit_needs_two_distinct_tau_values(tau):
    sol, cfg = clock_2d()
    trace = clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, np.array(tau))
    with pytest.raises(ValueError):
        linearity_fit(trace)


def test_weak_weyl_relation():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0, 3.5)))
    cfg = clock_from_solution(sol)
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = psi / np.linalg.norm(psi)
        t = rng.uniform(-5, 5)
        u = evolve(cfg.H, t)
        lhs = cfg.T @ (u @ psi)
        rhs = u @ (cfg.T @ psi + commuting_factor(cfg, t, psi))
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_commuting_factor_zero_at_t0():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0)))
    cfg = clock_from_solution(sol)
    psi = np.ones(3) / np.sqrt(3)
    assert np.linalg.norm(commuting_factor(cfg, 0.0, psi)) <= 1e-14


def test_commuting_factor_derivative_on_domain():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0, 3.5)))
    cfg = clock_from_solution(sol)
    phi = sol.domain.basis[:, 1]
    h = 1e-4
    assert np.linalg.norm(commuting_factor(cfg, h, phi) / h - phi) <= 1e-3


def test_commuting_factor_of_a_degenerate_generator():
    """K(t) = T(t) - T needs no distinct eigenvalues; it vanishes within a level."""
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 1)))
    cfg = clock_from_solution(sol)
    k = commuting_factor_matrix(cfg, 0.5)
    assert np.max(np.abs(k[:2, :2])) <= 1e-15 * np.linalg.norm(cfg.T)
    u = evolve(cfg.H, 0.5)
    assert np.linalg.norm(cfg.T @ u - u @ (cfg.T + k)) <= 1e-12 * np.linalg.norm(cfg.T)
    psi = np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(commuting_factor(cfg, 0.5, psi) - k @ psi) <= 1e-15


def test_quadratic_residual_scaling_about_offset_center():
    # the linear-fit residual of a window centered where the curvature is
    # nonzero scales as the square of the half-width
    sol, cfg = clock_2d()
    phi = cfg.domain.basis[:, 0]
    center = 0.3
    widths = (0.02, 0.01)
    residuals = []
    for w in widths:
        tau = center + np.linspace(-w, w, 41)
        trace = clock_trace(cfg, phi, 0.0, tau)
        residuals.append(linearity_fit(trace).max_residual)
    ratio = residuals[0] / residuals[1]
    assert ratio == pytest.approx(4.0, rel=0.2)


def reference_trace(cfg, phi, base_point, tau_grid):
    """The per-sample path: one Heisenberg-picture T(t) per sample."""
    ts = [heisenberg_T(cfg, base_point + tau) for tau in tau_grid]
    return (np.array([expectation(t, phi) for t in ts]),
            np.array([uncertainty(t, phi) for t in ts]),
            expectation(heisenberg_T(cfg, base_point), phi))


def assert_matches_reference(cfg, phi, base_point, tau_grid):
    trace = clock_trace(cfg, phi, base_point, tau_grid)
    exps, dts, t0 = reference_trace(cfg, phi, base_point, tau_grid)
    assert np.max(np.abs(trace.expectation - exps)) <= 1e-12
    assert np.max(np.abs(trace.delta_T - dts)) <= 1e-12
    assert abs(trace.t0 - t0) <= 1e-12
    assert np.max(np.abs(trace.delta_H - uncertainty(cfg.H, phi))) <= 1e-12


def random_unit(basis, rng):
    v = basis @ (rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1]))
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n", [2, 3, 16, 64])
@pytest.mark.parametrize("sign", [PASSAGE_TIME, TIME_OF_ARRIVAL])
@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_trace_matches_per_sample_path(n, sign, hbar):
    rng = np.random.default_rng(n)
    levels = np.cumsum(rng.integers(1, 4, size=n)).astype(float)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(levels), PairParams(hbar=hbar))
    # [A, -B] = -[A, B], so -B makes the solution's domain an arrival domain
    cfg = clock_from_solution(sol, h=sol.B if sign == PASSAGE_TIME else -sol.B, sign=sign)
    iset = invariant_set(sol, sol.B)
    assert iset.kind is InvariantKind.LATTICE
    window = 0.05 * hbar / cfg.h_norm
    assert_matches_reference(cfg, random_unit(cfg.domain.basis, rng), iset.lattice_point(1),
                             np.linspace(-window, window, 11))


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_catalog_clock_traces_match_per_sample_path(family):
    rng = np.random.default_rng(7)
    tau = np.linspace(-0.02, 0.02, 7)
    clocks = 0
    for entry in catalog_3d(family):
        for sign in (PASSAGE_TIME, TIME_OF_ARRIVAL):
            if entry.c != sign * 1j * entry.hbar:
                continue
            cfg = clock_from_solution(entry, sign=sign)
            assert_matches_reference(cfg, random_unit(cfg.domain.basis, rng), 0.0, tau)
            clocks += 1
    assert clocks >= 1


def test_trace_decomposes_generator_once(monkeypatch):
    """H is decomposed when the config is built; the trace reuses it."""
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(np.arange(8.0)))
    calls = []
    eigh = ccrlab.matrix_core.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(ccrlab.matrix_core, "eigh", counting_eigh)
    cfg = clock_from_solution(sol)
    assert len(calls) == 1
    trace = clock_trace(cfg, cfg.domain.basis[:, 0], 2 * np.pi, np.linspace(-0.01, 0.01, 101))
    assert trace.expectation.shape == (101,)
    assert len(calls) == 1


def test_dense_generator_is_decomposed_once_per_config(monkeypatch):
    """One LAPACK eigh of a dense H when the config is built, none in the routines."""
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0, 4.0, 7.0, 9.0)))
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    sol = sol.conjugated(u)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = clock_from_solution(sol)
    assert len(calls) == 1
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    clock_trace(cfg, cfg.domain.basis[:, 0], 0.0, np.linspace(-0.01, 0.01, 11))
    commuting_factor(cfg, 0.3, psi)
    commuting_factor_matrix(cfg, 0.3)
    heisenberg_T(cfg, 0.3)
    assert cfg.h_norm == pytest.approx(9.0, rel=1e-12)
    assert len(calls) == 1


def test_config_rejects_a_domain_of_another_dimension():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0)))
    with pytest.raises(errors.DimensionMismatch):
        ClockConfig(sol.B, sol.A, Subspace(np.eye(4, dtype=complex)[:, :2]))


def test_trace_rejects_unnormalized_state():
    sol, cfg = clock_2d()
    with pytest.raises(errors.NotNormalized):
        clock_trace(cfg, 2 * cfg.domain.basis[:, 0], 0.0, np.array([0.0]))


def test_clock_certifies_relation_with_caller_tolerance():
    base = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0, 3.5)))
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 1] = bump[1, 0] = 1e-8  # relation residual above the default ccr_tol
    sol = CanonicalSolution(base.A + bump, base.B, base.c, base.domain, "perturbed", base.hbar)
    loose = DEFAULT_TOL.scaled(1e3)
    assert clock_from_solution(sol, tol=loose).domain.dim == 3
    with pytest.raises(errors.ConstraintViolated):
        clock_from_solution(sol)
    with pytest.raises(errors.ConstraintViolated):
        ClockConfig(sol.B, sol.A, sol.domain)
    ClockConfig(sol.B, sol.A, sol.domain, tol=loose)
