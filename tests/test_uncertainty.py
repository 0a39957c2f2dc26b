import numpy as np
import pytest

from ccrlab import errors
from ccrlab.matrix_core import evolve
from ccrlab.pair_builder import (
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
)
from ccrlab.uncertainty import audit_pair, nonvanishing_check, uncertainty

SZ = np.diag([1.0, -1.0]).astype(complex)


def random_domain_state(sol, seed):
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=sol.domain.dim) + 1j * rng.normal(size=sol.domain.dim)
    v = sol.domain.basis @ coeff
    return v / np.linalg.norm(v)


def test_uncertainty_eigenket_is_zero():
    phi = np.array([1.0, 0.0])
    assert uncertainty(SZ, phi) == 0.0


def test_uncertainty_balanced_superposition():
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    assert uncertainty(SZ, phi) == pytest.approx(1.0, abs=1e-14)


def test_uncertainty_matches_two_pass_variance():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = (m + m.conj().T) / 2
    phi = rng.normal(size=5) + 1j * rng.normal(size=5)
    phi = phi / np.linalg.norm(phi)
    mean = np.vdot(phi, a @ phi).real
    var = np.vdot(phi, (a - mean * np.eye(5)) @ (a - mean * np.eye(5)) @ phi).real
    assert uncertainty(a, phi) == pytest.approx(np.sqrt(var), abs=1e-12)


def test_uncertainty_rejects_unnormalized():
    with pytest.raises(errors.NotNormalized):
        uncertainty(SZ, np.array([1.0, 1.0]))


def test_2d_equal_diagonal_saturates():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0)))
    report = audit_pair(sol, sol.domain.basis[:, 0])
    assert report.floor == pytest.approx(0.5)
    assert report.product == pytest.approx(0.5, abs=1e-8)
    assert report.saturated
    assert report.gamma is not None and abs(report.gamma) > 1e-10


def test_2d_unequal_diagonal_not_saturated():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0)),
                              PairParams(diag_a=np.array([0.0, 1.0])))
    report = audit_pair(sol, sol.domain.basis[:, 0])
    assert report.product > 0.5 + 1e-3
    assert not report.saturated
    assert isinstance(report.gamma, float)


def test_2d_product_monotone_in_diagonal_gap():
    products = []
    for gap in (0.0, 0.3, 0.6, 1.2, 2.4):
        sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0)),
                                  PairParams(diag_a=np.array([0.0, gap])))
        products.append(audit_pair(sol, sol.domain.basis[:, 0]).product)
    assert all(p2 >= p1 - 1e-12 for p1, p2 in zip(products, products[1:]))
    assert products[0] == pytest.approx(0.5, abs=1e-10)


def test_3d_full_solution_never_saturates():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0)))
    for seed in range(5):
        report = audit_pair(sol, random_domain_state(sol, seed))
        assert not report.saturated
        assert report.gamma_residual > 1e-4


def test_3d_degenerate_saturates_with_known_gamma():
    b12 = 1.5
    sol = build_degenerate(SpectrumSpec((0.0, b12), (2, 1)))
    report = audit_pair(sol, sol.domain.basis[:, 0])
    assert report.saturated
    assert abs(report.gamma) == pytest.approx(2.0 / b12 ** 2, rel=1e-6)
    assert report.product == pytest.approx(report.floor, abs=1e-8)


def test_floor_holds_for_random_solutions():
    count = 0
    for n in range(2, 9):
        values = tuple(np.sort(np.random.default_rng(n).normal(size=n)) * 2.0)
        sol = build_nondegenerate(SpectrumSpec.nondegenerate(values))
        for seed in range(4):
            report = audit_pair(sol, random_domain_state(sol, 100 * n + seed))
            assert report.product >= 0.5 - 1e-9
            count += 1
    assert count == 28


def test_nonvanishing_on_domain_states():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0)))
    for k in range(sol.domain.dim):
        assert nonvanishing_check(sol, sol.domain.basis[:, k])


def test_domain_state_slightly_off_unit_norm_rejected():
    # 1e-11 off unit norm: beyond the default norm_tol (1e-12), which the
    # domain check applies before any uncertainty is formed
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0)))
    phi = (1.0 + 1e-11) * sol.domain.basis[:, 0]
    with pytest.raises(errors.NotNormalized):
        audit_pair(sol, phi)
    with pytest.raises(errors.NotNormalized):
        nonvanishing_check(sol, phi)


def test_state_outside_domain_rejected():
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0)))
    # half-period evolution maps the domain onto the -i eigenspace
    moved = evolve(sol.B, np.pi) @ sol.domain.basis[:, 0]
    with pytest.raises(errors.StateOutsideDomain):
        audit_pair(sol, moved)
    with pytest.raises(errors.StateOutsideDomain):
        nonvanishing_check(sol, moved)


def test_unitary_invariance_of_product_and_gamma():
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 1)))
    phi = sol.domain.basis[:, 0]
    base = audit_pair(sol, phi)
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u = np.linalg.qr(m)[0]
        rot = sol.conjugated(u)
        report = audit_pair(rot, u.conj().T @ phi)
        assert report.product == pytest.approx(base.product, abs=1e-10)
        assert report.saturated == base.saturated
        assert report.gamma == pytest.approx(base.gamma, abs=1e-8)


def test_saturation_detected_on_every_exactly_saturated_2d_state():
    # every 2D domain state saturates; the detector's residual must stay at
    # rounding level for any gap, hbar and global phase of the state
    for gap in (0.1, 0.5, 1.0, 2.0, 3.7, 10.0):
        for hbar in (0.5, 1.0, 2.0):
            sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, gap)),
                                      PairParams(hbar=hbar))
            for k in range(13):
                phi = sol.domain.basis[:, 0] * np.exp(2j * np.pi * k / 13)
                report = audit_pair(sol, phi)
                assert report.saturated, (gap, hbar, k, report.gamma_residual)
                assert report.gamma_residual <= 1e-12 * max(hbar, 1.0)
