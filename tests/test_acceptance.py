"""End-to-end acceptance suite.

Each test covers one headline guarantee of the library and prints a
single PASS/FAIL line (visible with pytest -s or in failure reports).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ccrlab.clock import clock_from_solution, clock_trace, commuting_factor, linearity_fit
from ccrlab.commutator_lab import classify, factorize
from ccrlab.config import DEFAULT_TOL
from ccrlab.invariant_sets import InvariantKind, check_membership, invariant_set
from ccrlab.matrix_core import commutator, evolve
from ccrlab.pair_builder import (
    CATALOG_FAMILIES,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
    default_catalog_params,
    project_pair,
)
from ccrlab.uncertainty import audit_pair


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.2f}s)"
    print(f"[PASS] criterion {number}: {label} ({elapsed:.2f}s)")


def nondeg(values, **kw):
    return build_nondegenerate(SpectrumSpec.nondegenerate(values),
                               PairParams(**kw) if kw else None)


def random_domain_state(sol, seed):
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=sol.domain.dim) + 1j * rng.normal(size=sol.domain.dim)
    v = sol.domain.basis @ coeff
    return v / np.linalg.norm(v)


def random_unitary(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(m)[0]


def test_criterion_1_3d_commutator_spectrum():
    with criterion(1, "3D default commutator spectrum {i, i, -2i}", 1.0):
        sol = nondeg((0.0, 1.0, 3.0))
        vals = np.sort(np.linalg.eigvals(sol.commutator()).imag)
        assert np.max(np.abs(vals - np.array([-2.0, 1.0, 1.0]))) <= 1e-10


def test_criterion_2_maximal_domain_dimension():
    with criterion(2, "domain dim N-1 and no full-space nonzero relation", 5.0):
        for n in range(2, 11):
            values = tuple(float(v) for v in np.arange(n) + 0.5 * np.arange(n) ** 1.3)
            sol = nondeg(values)
            assert sol.domain.dim == n - 1
            report = classify(sol.A, sol.B)
            for r in report.relations:
                if r.essentially_canonical:
                    assert r.domain.dim <= n - 1


def test_criterion_3_traceless_factorization():
    with criterion(3, "100 random normal traceless matrices factor as commutators", 10.0):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            u = random_unitary(n, rng)
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            vals -= np.mean(vals)
            c = (u * vals) @ u.conj().T
            a, b = factorize(c, np.arange(n, dtype=float))
            resid = np.linalg.norm(commutator(a, b) - c, "fro")
            assert resid <= 1e-9 * np.linalg.norm(c, "fro"), trial


def test_criterion_4_uncertainty_floor_and_saturation():
    with criterion(4, "uncertainty floor, 2D/3D saturation behavior", 20.0):
        rng = np.random.default_rng(7)
        samples = 0
        while samples < 200:
            n = int(rng.integers(2, 9))
            if rng.random() < 0.3 and n >= 3:
                m1 = int(rng.integers(1, n - 1))
                sol = build_degenerate(SpectrumSpec((0.0, 1.0 + rng.random()),
                                                    (m1, n - m1)))
            else:
                values = np.sort(rng.normal(size=n) * 2.0)
                if np.min(np.diff(values)) < 1e-2:
                    values = np.arange(n, dtype=float)
                sol = nondeg(tuple(float(v) for v in values))
            phi = random_domain_state(sol, samples)
            report = audit_pair(sol, phi)
            assert report.product >= 0.5 - 1e-9
            samples += 1

        # 2D with equal diagonal saturates to hbar/2
        sol2 = nondeg((0.0, 1.0))
        r2 = audit_pair(sol2, sol2.domain.basis[:, 0])
        assert abs(r2.product - 0.5) <= 1e-8 and r2.saturated

        # full 3D solution never saturates
        sol3 = nondeg((0.0, 1.0, 3.0))
        for seed in range(10):
            r3 = audit_pair(sol3, random_domain_state(sol3, seed))
            assert not r3.saturated
            assert r3.gamma_residual > 1e-4

        # 3D two-level degenerate: fitted gamma magnitude 2*hbar/B12^2
        b12 = 1.5
        sold = build_degenerate(SpectrumSpec((0.0, b12), (2, 1)))
        rd = audit_pair(sold, sold.domain.basis[:, 0])
        assert rd.saturated
        assert abs(abs(rd.gamma) - 2.0 / b12 ** 2) <= 1e-6 * (2.0 / b12 ** 2)


def test_criterion_5_2d_closed_form_clock():
    with criterion(5, "2D clock expectation and uncertainty product closed forms", 2.0):
        a1, a2 = 0.2, 0.9
        sol = nondeg((0.0, 1.0), diag_a=np.array([a1, a2]))
        cfg = clock_from_solution(sol)
        phi = sol.domain.basis[:, 0]
        period = 2 * np.pi
        tau = np.linspace(-period, period, 201)
        trace = clock_trace(cfg, phi, 0.0, tau)
        e12 = -1.0
        exact = (a1 + a2) / 2 + (1.0 / e12) * np.sin(e12 * tau)
        assert np.max(np.abs(trace.expectation - exact)) <= 1e-10
        # the product closed form holds where the evolved state re-enters
        # the domain, i.e. at the lattice points inside the window
        lattice = clock_trace(cfg, phi, 0.0, np.array([-period, 0.0, period]))
        expected = 0.5 * np.sqrt(1 + (a1 - a2) ** 2 * e12 ** 2 / 4)
        assert np.max(np.abs(lattice.uncertainty_product - expected)) <= 1e-9


def test_criterion_6_linear_regime():
    with criterion(6, "slope +/-1 and quadratic residual scaling", 10.0):
        for values in ((0.0, 1.0), (0.0, 1.0, 3.0), (0.0, 1.0, 2.0, 3.5, 5.0)):
            sol = nondeg(values)
            cfg = clock_from_solution(sol)
            gap = max(values) - min(values)
            w = 0.01 / gap
            phi = random_domain_state(sol, len(values))

            trace = clock_trace(cfg, phi, 0.0, np.linspace(-w, w, 41))
            assert abs(linearity_fit(trace).slope - 1.0) <= 1e-3

            # quadratic scaling: the fit residual about a center with
            # nonzero curvature drops 4x when the window is halved
            center = 0.2 / gap
            residuals = []
            for width in (w, w / 2):
                tr = clock_trace(cfg, phi, 0.0, center + np.linspace(-width, width, 41))
                residuals.append(linearity_fit(tr).max_residual)
            ratio = residuals[0] / residuals[1]
            assert 4.0 * 0.8 <= ratio <= 4.0 * 1.2, (values, ratio)


def test_criterion_7_weak_weyl_relation():
    with criterion(7, "generalized weak Weyl relation and commuting factor", 5.0):
        sol = nondeg((0.0, 1.0, 2.0, 3.5))
        cfg = clock_from_solution(sol)
        rng = np.random.default_rng(11)
        for _ in range(50):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = psi / np.linalg.norm(psi)
            t = rng.uniform(-10, 10)
            u = evolve(cfg.H, t)
            lhs = cfg.T @ (u @ psi)
            rhs = u @ (cfg.T @ psi + commuting_factor(cfg, t, psi))
            assert np.linalg.norm(lhs - rhs) <= 1e-9
        h = 1e-4
        for k in range(sol.domain.dim):
            phi = sol.domain.basis[:, k]
            assert np.linalg.norm(commuting_factor(cfg, h, phi) / h - phi) <= 1e-3


def test_criterion_8_invariant_sets():
    with criterion(8, "lattice, zero-only and full-line invariant sets", 2.0):
        # (a) projected 3D solution: lattice with period 2*pi/B12
        b12 = 1.0
        proj = project_pair(nondeg((0.0, 1.0, 3.0)), [0, 1])
        iset = invariant_set(proj, proj.B)
        assert iset.kind is InvariantKind.LATTICE
        assert abs(iset.period - 2 * np.pi / b12) <= 1e-9
        for n in range(-2, 3):
            member, resid = check_membership(proj, proj.B, n * iset.period)
            assert member and resid <= 1e-8
        member, _ = check_membership(proj, proj.B, iset.period / 2)
        assert not member

        # (b) incommensurate spectrum: zero-only
        sol_irr = nondeg((0.0, 1.0, float(np.sqrt(2.0))))
        assert invariant_set(sol_irr, sol_irr.B).kind is InvariantKind.ZERO_ONLY

        # (c) Pauli pair under sigma_z: full line
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        pauli_sol = classify(sx, sy).relations[0]
        assert invariant_set(pauli_sol, np.diag([1.0, -1.0])).kind is InvariantKind.FULL_LINE


def test_criterion_9_appendix_catalog():
    with criterion(9, "all six 3D families with listed relations and domains", 5.0):
        expected_cs = {
            "nondeg-1a": {1j, -2j},
            "nondeg-1b": None,  # depends on |beta|^2; checked structurally
            "nondeg-2a": {1j, -1j, 0},
            "nondeg-2b": {1j, -1j, 0},
            "nondeg-2c": {1j, -1j, 0},
            "degen": {1j, -1j, 0},
        }
        for family in CATALOG_FAMILIES:
            entries = catalog_3d(family)
            cs = {complex(np.round(e.c.real, 9) + 1j * np.round(e.c.imag, 9))
                  for e in entries}
            if expected_cs[family] is not None:
                assert cs == expected_cs[family], family
            for e in entries:
                c_mat = e.commutator()
                basis = e.domain.basis
                resid = np.max(np.linalg.norm(c_mat @ basis - e.c * basis, axis=0))
                assert resid <= 1e-9, (family, e.c)
                assert e.essentially_canonical == (abs(e.c) > 1e-12)

        # closed-form domain vectors (phases from direct substitution)
        def entry(fam, c):
            return next(e for e in catalog_3d(fam) if abs(e.c - c) < 1e-9)

        p2a = default_catalog_params("nondeg-2a")
        assert entry("nondeg-2a", 1j).domain.distance(
            np.array([-1j * p2a.beta[1], -1j * p2a.beta[2], 1.0]) / np.sqrt(2)) <= 1e-9
        p2c = default_catalog_params("nondeg-2c")
        assert entry("nondeg-2c", 1j).domain.distance(
            np.array([1.0, 1j * p2c.beta[0], 1j * p2c.beta[1]]) / np.sqrt(2)) <= 1e-9
        pd = default_catalog_params("degen")
        assert entry("degen", 1j).domain.distance(
            np.array([-1j * pd.beta[1], -1j * pd.beta[2], 1.0]) / np.sqrt(2)) <= 1e-9
        assert entry("degen", -1j).domain.distance(
            np.array([1j * pd.beta[1], 1j * pd.beta[2], 1.0]) / np.sqrt(2)) <= 1e-9


def test_criterion_10_unitary_equivalence():
    with criterion(10, "unitary conjugation preserves spectrum, domain, product, gamma", 10.0):
        rng = np.random.default_rng(99)
        # saturation flag uses a mildly relaxed tolerance: conjugation adds
        # O(100 eps) roundoff to the fit residual of an exactly saturated state
        tol = DEFAULT_TOL.scaled(100.0)
        sold = build_degenerate(SpectrumSpec((0.0, 1.5), (2, 1)))
        soln = nondeg((0.0, 1.0, 3.0))
        cases = [(sold, sold.domain.basis[:, 0]),
                 (soln, random_domain_state(soln, 0))]
        for sol, phi in cases:
            base_spec = np.sort(np.linalg.eigvalsh(1j * sol.commutator()))
            base_report = audit_pair(sol, phi, tol)
            for _ in range(25):
                u = random_unitary(sol.dim, rng)
                rot = sol.conjugated(u)
                spec = np.sort(np.linalg.eigvalsh(1j * rot.commutator()))
                assert np.max(np.abs(spec - base_spec)) <= 1e-9
                assert rot.domain.dim == sol.domain.dim
                report = audit_pair(rot, u.conj().T @ phi, tol)
                assert abs(report.product - base_report.product) <= 1e-9
                assert report.saturated == base_report.saturated
                if base_report.saturated:
                    assert abs(report.gamma - base_report.gamma) <= 1e-9
