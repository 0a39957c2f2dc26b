"""Property-based checks of the core algebraic invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrlab.clock import clock_from_solution, commuting_factor
from ccrlab.invariant_sets import GcdConfig, real_gcd
from ccrlab.matrix_core import commutator, evolve
from ccrlab.pair_builder import SpectrumSpec, build_nondegenerate
from ccrlab.uncertainty import audit_pair


def hermitian_from_seed(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6),
       st.floats(-20.0, 20.0, allow_nan=False))
def test_evolution_inverse(n, seed, t):
    h = hermitian_from_seed(n, seed)
    u = evolve(h, t)
    assert np.linalg.norm(u @ evolve(h, -t) - np.eye(n), "fro") <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_commutator_of_hermitians_is_antihermitian_traceless(n, seed):
    a = hermitian_from_seed(n, seed)
    b = hermitian_from_seed(n, seed + 1)
    c = commutator(a, b)
    scale = max(np.linalg.norm(a, "fro") * np.linalg.norm(b, "fro"), 1.0)
    assert abs(np.trace(c)) <= 1e-12 * scale
    assert np.linalg.norm(c + c.conj().T, "fro") <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_real_gcd_recovers_common_divisor(q, mults):
    g0 = 1.0 / q
    values = [m * g0 for m in mults]
    g = real_gcd(values, GcdConfig())
    assert g is not None
    # every input must be an integer multiple of the reported gcd
    for v in values:
        m = round(v / g)
        assert abs(v - m * g) <= 1e-9 * v


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6))
def test_uncertainty_floor_random_solutions(n, seed):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.normal(size=n) * 3.0)
    if np.min(np.diff(values)) < 1e-3:
        values = np.arange(n, dtype=float)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(tuple(values)))
    coeff = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    phi = sol.domain.basis @ coeff
    phi = phi / np.linalg.norm(phi)
    report = audit_pair(sol, phi)
    assert report.product >= 0.5 - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6),
       st.floats(-20.0, 20.0, allow_nan=False))
def test_commuting_factor_is_covariant(n, seed, t):
    """The clock (U†TU, U†HU) has K_U(t) = U† K(t) U."""
    rng = np.random.default_rng(seed)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(np.cumsum(rng.uniform(0.5, 2.0, n))))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    cfg, cfg_u = clock_from_solution(sol), clock_from_solution(sol.conjugated(u))
    got = commuting_factor(cfg_u, t, u.conj().T @ psi)
    want = u.conj().T @ commuting_factor(cfg, t, psi)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(sol.A) * np.linalg.norm(psi)
