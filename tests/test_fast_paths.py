"""Differential tests and cost guards for the structure-aware fast paths.

Each fast path is checked against the formula it replaced, kept here as a
test-local reference: the dense commutator, LAPACK's eigh of a diagonal
matrix, the sequential Euclidean real_gcd, the per-cluster loop of
_retained_differences, and factorize's explicit DFT matrix.  The cost
guards count calls instead of timing them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrlab import clock, invariant_sets
from ccrlab.commutator_lab import factorize
from ccrlab.config import DEFAULT_TOL
from ccrlab.invariant_sets import (
    SPECTATOR_TOL,
    GcdConfig,
    _retained_differences,
    check_membership,
    invariant_set,
    real_gcd,
)
from ccrlab.matrix_core import (
    Subspace,
    cluster_indices,
    commutator,
    eigh,
    frobenius,
    normal_eig,
)
from ccrlab.pair_builder import SpectrumSpec, build_degenerate, build_nondegenerate


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def diagonals(n, seed):
    rng = np.random.default_rng(seed)
    d = np.sort(rng.normal(size=n) * n)
    return {"sorted": d, "shuffled": rng.permutation(d)}


def same_bits(x, y):
    return (np.array_equal(x, y)
            and np.array_equal(np.signbit(x.real), np.signbit(y.real))
            and np.array_equal(np.signbit(x.imag), np.signbit(y.imag)))


def counting_eigh(monkeypatch):
    calls = []
    original = np.linalg.eigh

    def eigh_(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh_)
    return calls


# --- commutator ----------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 64, 256])
@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_commutator_with_a_diagonal_factor_is_bit_identical(n, order):
    a = random_hermitian(n, n)
    b = np.diag(diagonals(n, n + 1)[order]).astype(complex)
    assert same_bits(commutator(a, b), a @ b - b @ a)


@pytest.mark.parametrize("build", [
    lambda: build_nondegenerate(SpectrumSpec.nondegenerate(np.arange(-3.0, 253.0))),
    lambda: build_degenerate(SpectrumSpec(tuple(np.arange(-2.0, 62.0)), (4,) * 64)),
    lambda: build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0))),
], ids=["nondegenerate-256", "degenerate-64x4", "nondegenerate-3"])
def test_commutator_of_a_built_pair_is_bit_identical(build):
    """B from SpectrumSpec is diagonal, here with a zero level."""
    sol = build()
    assert same_bits(commutator(sol.A, sol.B), sol.A @ sol.B - sol.B @ sol.A)


def test_commutator_of_dense_factors_is_the_matrix_product():
    a, b = random_hermitian(5, 1), random_hermitian(5, 2)
    assert same_bits(commutator(a, b), a @ b - b @ a)


# --- eigh ----------------------------------------------------------------------

@pytest.mark.parametrize("values", [
    diagonals(2, 0)["sorted"], diagonals(3, 1)["sorted"], diagonals(64, 2)["sorted"],
    diagonals(256, 3)["sorted"], np.repeat(np.arange(64.0), 4), np.array([2.5]),
], ids=["2", "3", "64", "256", "64x4", "1"])
def test_eigh_of_a_sorted_diagonal_is_bit_identical_to_lapack(values):
    sd = eigh(np.diag(values).astype(complex))
    w, v = np.linalg.eigh(np.diag(values).astype(complex))
    assert np.array_equal(sd.eigenvalues, w)
    assert np.array_equal(sd.eigenvectors, v)


@pytest.mark.parametrize("seed", range(4))
def test_eigh_of_a_shuffled_degenerate_diagonal_has_lapacks_eigenspaces(seed):
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.repeat(rng.normal(size=16), rng.integers(1, 5, size=16)))
    h = np.diag(values).astype(complex)
    sd = eigh(h)
    w, v = np.linalg.eigh(h)
    assert np.array_equal(sd.eigenvalues, w)
    assert sd.clusters == cluster_indices(w, DEFAULT_TOL.cluster_tol * max(np.max(np.abs(w)), 1.0))
    assert len(sd.clusters) == 16
    for cluster in sd.clusters:
        angles = Subspace(sd.eigenvectors[:, cluster]).principal_angles(Subspace(v[:, cluster]))
        assert np.max(angles) <= 1e-12


def test_eigh_reads_only_the_real_diagonal():
    h = np.diag([3.0, 1.0 + 1e-14j, 2.0])
    sd = eigh(h)
    assert np.array_equal(sd.eigenvalues, [1.0, 2.0, 3.0])
    assert np.array_equal(sd.eigenvectors, np.eye(3)[:, [1, 2, 0]])


# --- real_gcd ------------------------------------------------------------------

def reference_pair_gcd(a, b, eps):
    while b > eps:
        a, b = b, abs(a - round(a / b) * b)
    return a


def reference_real_gcd(values, cfg=GcdConfig()):
    """The sequential Euclidean loop that real_gcd replaced."""
    vals = [float(v) for v in values]
    eps = cfg.rel_tol * max(vals)
    g = vals[0]
    for v in vals[1:]:
        g = reference_pair_gcd(g, v, eps)
    if g <= eps:
        return None
    multipliers = [round(v / g) for v in vals]
    common = math.gcd(*multipliers) if len(multipliers) > 1 else multipliers[0]
    if common > 1:
        g *= common
        multipliers = [m // common for m in multipliers]
    if any(m < 1 or m > cfg.max_denominator for m in multipliers):
        return None
    g = sum(vals) / sum(multipliers)
    if any(abs(v - m * g) > cfg.rel_tol * v for v, m in zip(vals, multipliers)):
        return None
    return g


def certifies(values, g, cfg=GcdConfig()):
    values = np.asarray(values)
    m = np.rint(values / g)
    return bool(np.all((m >= 1) & (m <= cfg.max_denominator))
                and np.all(np.abs(values - m * g) <= cfg.rel_tol * values))


def assert_gcd_at_least_as_found(values, cfg=GcdConfig(), commensurate=False):
    """real_gcd returns the loop's gcd wherever both find one, and a gcd it
    finds certifies.  On exact multiples of a scale it always finds one,
    where the loop, whose Euclidean rounding error grows from step to step,
    may not."""
    got, ref = real_gcd(values, cfg), reference_real_gcd(values, cfg)
    if got is not None:
        assert certifies(values, got, cfg), got
        if ref is not None:
            assert abs(got - ref) <= 1e-12 * ref, (got, ref)
    if commensurate:
        assert got is not None
    return got, ref


integer_gaps = st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=40)
scales = st.floats(1e-6, 1e6, allow_nan=False)


def noisy_multiples(ints, scale, seed, noise=GcdConfig().rel_tol / 10):
    e = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(ints))
    return [k * scale * (1 + noise * x) for k, x in zip(ints, e)]


@settings(max_examples=200, deadline=None)
@given(integer_gaps, scales)
def test_real_gcd_matches_the_loop_on_commensurate_gaps(ints, scale):
    assert_gcd_at_least_as_found([k * scale for k in ints], commensurate=True)


@settings(max_examples=200, deadline=None)
@given(integer_gaps, scales, st.integers(0, 2 ** 32))
def test_real_gcd_matches_the_loop_on_noisy_gaps(ints, scale, seed):
    assert_gcd_at_least_as_found(noisy_multiples(ints, scale, seed))


def test_real_gcd_finds_more_noisy_gcds_than_the_loop():
    """Multipliers up to 10 with noise rel_tol/10: the loop misses some."""
    rng = np.random.default_rng(0)
    found = np.zeros(2, dtype=int)
    for seed in range(400):
        ints = rng.integers(1, 11, size=int(rng.integers(2, 41))).tolist()
        got, ref = assert_gcd_at_least_as_found(noisy_multiples(ints, 10 ** rng.uniform(-6, 6), seed))
        found += (got is not None, ref is not None)
    assert found[0] > found[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40), scales, st.integers(0, 2 ** 32))
def test_real_gcd_matches_the_loop_on_incommensurate_gaps(count, scale, seed):
    values = scale * np.random.default_rng(seed).uniform(0.5, 1.5, size=count)
    assert real_gcd(values) is None
    assert reference_real_gcd(values) is None


@pytest.mark.parametrize("max_denominator", [10, 100, 10 ** 6])
def test_real_gcd_matches_the_loop_on_near_commensurate_pairs(max_denominator):
    cfg = GcdConfig(max_denominator=max_denominator)
    for q in (7, 50, 3000):
        got, ref = assert_gcd_at_least_as_found([1.0, 1.0 + 1.0 / q], cfg)
        assert (got is None) == (ref is None)


def test_real_gcd_keeps_multipliers_beyond_int64_exact():
    """A rel_tol far below float precision lets the multipliers pass 2**63."""
    cfg = GcdConfig(max_denominator=10 ** 30, rel_tol=1e-30)
    for values in ([2.0 ** -40, 2.0 ** 30], [3 * 2.0 ** -40, 3 * 2.0 ** 30],
                   [3 * 2.0 ** -40, 5 * 2.0 ** -40, 7 * 2.0 ** 30]):
        assert real_gcd(values, cfg) == reference_real_gcd(values, cfg)
        assert values[-1] / real_gcd(values, cfg) > 2.0 ** 63


def counting_pair_gcd(monkeypatch):
    calls = []
    original = invariant_sets._pair_gcd

    def pair_gcd(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(invariant_sets, "_pair_gcd", pair_gcd)
    return calls


def test_real_gcd_on_incommensurate_values_makes_few_euclid_steps(monkeypatch):
    calls = counting_pair_gcd(monkeypatch)
    values = np.random.default_rng(1).uniform(0.5, 1.5, size=32640)
    assert real_gcd(values) is None
    assert len(calls) <= 64


def test_real_gcd_on_integer_level_gaps_makes_few_euclid_steps(monkeypatch):
    calls = counting_pair_gcd(monkeypatch)
    levels = 3.0 * np.cumsum(np.random.default_rng(2).integers(1, 4, size=256))
    i, j = np.triu_indices(256, 1)
    gaps = levels[j] - levels[i]
    assert gaps.size == 32640
    assert real_gcd(gaps) == 3.0
    assert len(calls) <= 64


# --- invariant sets ---------------------------------------------------------------

def reference_retained_differences(sol, h, tol=DEFAULT_TOL):
    """The per-cluster loop that _retained_differences replaced."""
    sd = np.linalg.eigh(h)
    spectral = eigh(h, tol)
    coeffs = sd[1].conj().T @ sol.domain.basis
    excluded, levels = set(), []
    for idx, cluster in enumerate(spectral.clusters):
        weight = float(np.max(np.abs(coeffs[cluster, :]))) if sol.domain.dim else 0.0
        if weight <= SPECTATOR_TOL:
            excluded.add(idx)
        else:
            levels.append(float(np.mean(sd[0][cluster])))
    diffs = [abs(e2 - e1) for i, e1 in enumerate(levels) for e2 in levels[i + 1:]]
    return diffs, excluded


@pytest.mark.parametrize("build", [
    lambda: build_nondegenerate(SpectrumSpec.nondegenerate(np.cumsum(np.arange(1.0, 65.0)))),
    lambda: build_degenerate(SpectrumSpec(tuple(np.arange(0.0, 32.0) * 0.3), (3,) * 32)),
], ids=["nondegenerate-64", "degenerate-32x3"])
def test_retained_differences_match_the_loop(build):
    sol = build()
    rng = np.random.default_rng(0)
    for h in (sol.B, random_hermitian(sol.dim, 5)):
        _, diffs, excluded = _retained_differences(sol, h, DEFAULT_TOL)
        ref_diffs, ref_excluded = reference_retained_differences(sol, h)
        assert np.array_equal(diffs, ref_diffs)
        assert excluded == ref_excluded
    # a domain that misses some levels excludes them
    keep = np.zeros(sol.dim, dtype=bool)
    keep[rng.choice(sol.dim, size=sol.dim // 2, replace=False)] = True
    basis = np.eye(sol.dim, dtype=complex)[:, keep]
    narrow = type(sol)(sol.A, sol.B, sol.c, Subspace(basis), sol.provenance, sol.hbar)
    _, diffs, excluded = _retained_differences(narrow, sol.B, DEFAULT_TOL)
    ref_diffs, ref_excluded = reference_retained_differences(narrow, sol.B)
    assert np.array_equal(diffs, ref_diffs)
    assert excluded == ref_excluded and excluded


def test_diagonal_generators_take_no_lapack_eigh(monkeypatch):
    levels = np.cumsum(np.random.default_rng(3).integers(1, 4, size=32)).astype(float)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(levels))
    cfg = clock.clock_from_solution(sol)
    calls = counting_eigh(monkeypatch)
    iset = invariant_set(sol, sol.B)
    check_membership(sol, sol.B, iset.period)
    clock.commuting_factor(cfg, 0.3, np.ones(32))
    assert cfg.h_norm == float(np.max(np.abs(levels)))
    assert calls == []


# --- factorize -------------------------------------------------------------------

def reference_factorize(c, b_values):
    """factorize with the explicit DFT matrix and B = u diag(b) u†."""
    _, q = normal_eig(c)
    n = c.shape[0]
    k = np.arange(n)
    u = q @ (np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n))
    c_rot = u.conj().T @ c @ u
    denom = b_values[None, :] - b_values[:, None]
    np.fill_diagonal(denom, 1.0)
    a_rot = c_rot / denom
    np.fill_diagonal(a_rot, 0.0)
    return u @ a_rot @ u.conj().T, u @ np.diag(b_values).astype(complex) @ u.conj().T


@pytest.mark.parametrize("n", [3, 64, 256])
def test_factorize_matches_the_dft_matrix_formula(n):
    rng = np.random.default_rng(n)
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(np.cumsum(0.5 + rng.random(n))))
    c_mat = sol.commutator()
    b_values = np.cumsum(0.5 + rng.random(n))
    a, b = factorize(c_mat, b_values)
    ref_a, ref_b = reference_factorize(c_mat, b_values)
    assert np.max(np.abs(a - ref_a)) <= 1e-13 * np.max(np.abs(ref_a))
    assert np.max(np.abs(b - ref_b)) <= 1e-13 * np.max(np.abs(ref_b))
    assert frobenius(commutator(a, b) - c_mat) <= 1e-9 * frobenius(c_mat)
