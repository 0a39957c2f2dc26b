import numpy as np
import pytest

from ccrlab import errors
from ccrlab.commutator_lab import classify
from ccrlab.invariant_sets import (
    GcdConfig,
    InvariantKind,
    check_membership,
    invariant_set,
    real_gcd,
)
from ccrlab.pair_builder import PairParams, SpectrumSpec, build_nondegenerate, project_pair


def nondeg(values):
    return build_nondegenerate(SpectrumSpec.nondegenerate(values))


# --- real gcd ---------------------------------------------------------------

def test_gcd_integers():
    assert real_gcd([1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_gcd_quarters():
    # brute force over p/q grids with q <= 16 confirms 0.25 is maximal
    assert real_gcd([0.5, 0.75]) == pytest.approx(0.25)


def test_gcd_irrational_pair():
    assert real_gcd([1.0, np.sqrt(2.0)]) is None


def test_gcd_single_value():
    assert real_gcd([0.3]) == pytest.approx(0.3)


def test_gcd_scaled_set():
    g = real_gcd([0.7, 2.1, 3.5])
    assert g == pytest.approx(0.7, rel=1e-9)


def test_gcd_rejects_empty_and_nonpositive():
    with pytest.raises(errors.EmptyInput):
        real_gcd([])
    with pytest.raises(errors.NonPositiveValue):
        real_gcd([1.0, -2.0])


def test_gcd_respects_max_denominator():
    # 1 and 1 + 1/3000 are commensurate but need multipliers ~3000
    assert real_gcd([1.0, 1.0 + 1.0 / 3000.0], GcdConfig(max_denominator=100)) is None
    g = real_gcd([1.0, 1.0 + 1.0 / 3000.0], GcdConfig(max_denominator=10 ** 6))
    assert g == pytest.approx(1.0 / 3000.0, rel=1e-6)


# --- invariant sets ---------------------------------------------------------

def test_projected_3d_lattice():
    sol = project_pair(nondeg((0.0, 1.0, 3.0)), [0, 1])
    iset = invariant_set(sol, sol.B)
    assert iset.kind is InvariantKind.LATTICE
    assert iset.period == pytest.approx(2 * np.pi / 1.0, rel=1e-12)
    assert iset.excluded_levels == frozenset({2})


def test_full_3d_lattice_gcd():
    sol = nondeg((0.0, 1.0, 3.0))
    iset = invariant_set(sol, sol.B)
    assert iset.kind is InvariantKind.LATTICE
    # gaps 1, 2, 3 -> gcd 1
    assert iset.generator_gcd == pytest.approx(1.0, rel=1e-9)
    assert iset.period == pytest.approx(2 * np.pi, rel=1e-9)


def test_incommensurate_spectrum_zero_only():
    sol = nondeg((0.0, 1.0, np.sqrt(2.0)))
    iset = invariant_set(sol, sol.B)
    assert iset.kind is InvariantKind.ZERO_ONLY
    assert iset.lattice_point(0) == 0.0
    with pytest.raises(ValueError):
        iset.lattice_point(1)


def test_pauli_pair_full_line():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    sol = classify(sx, sy).relations[0]
    iset = invariant_set(sol, sz)
    assert iset.kind is InvariantKind.FULL_LINE
    member, resid = check_membership(sol, sz, 0.618)
    assert member and resid <= 1e-12


def test_lattice_membership_at_multiples():
    sol = nondeg((0.0, 1.0, 3.0))
    iset = invariant_set(sol, sol.B)
    for n in range(-3, 4):
        member, resid = check_membership(sol, sol.B, n * iset.period)
        assert member, (n, resid)
        assert resid <= 1e-8


def test_membership_fails_between_lattice_points():
    sol = project_pair(nondeg((0.0, 1.0, 3.0)), [0, 1])
    iset = invariant_set(sol, sol.B)
    for frac in (0.5, 0.13, 0.29, 0.37, 0.61, 0.73, 0.91):
        member, resid = check_membership(sol, sol.B, frac * iset.period)
        assert not member
        assert resid > 1e-3


def test_2d_pair_period_and_half_period():
    sol = nondeg((0.0, 1.0))
    assert check_membership(sol, sol.B, 2 * np.pi)[0]
    member, _ = check_membership(sol, sol.B, np.pi)
    assert not member


def test_period_and_membership_use_the_solutions_hbar():
    # U(t) = exp(-iBt/hbar) with hbar = 0.5 returns at t = 2*pi*0.5/g = pi
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0)), PairParams(hbar=0.5))
    iset = invariant_set(sol, sol.B)
    assert iset.kind is InvariantKind.LATTICE
    assert iset.generator_gcd == pytest.approx(1.0)
    assert iset.period == 2 * np.pi * 0.5 / iset.generator_gcd
    member, resid = check_membership(sol, sol.B, iset.period)
    assert member, resid
    member, resid = check_membership(sol, sol.B, iset.period / 2)
    assert not member and resid > 1e-3


def test_t_zero_always_member():
    for values in ((0.0, 1.0), (0.0, 1.0, np.sqrt(2.0))):
        sol = nondeg(values)
        member, resid = check_membership(sol, sol.B, 0.0)
        assert member and resid <= 1e-14


def test_half_period_maps_to_opposite_domain():
    # the evolved domain lands on the -i eigenspace of the commutator
    from ccrlab.matrix_core import eigenspace, evolve

    sol = nondeg((0.0, 1.0))
    moved = evolve(sol.B, np.pi) @ sol.domain.basis[:, 0]
    dminus = eigenspace(sol.commutator(), -1j)
    assert dminus.distance(moved) <= 1e-10


def test_commuting_generator_never_full_line():
    # H = A itself commutes with A; the domain is not an H eigenvector
    sol = nondeg((0.0, 1.0, 3.0))
    iset = invariant_set(sol, sol.A)
    assert iset.kind is not InvariantKind.FULL_LINE


@pytest.mark.parametrize("h", [np.diag([1.0, 2.0]), np.diag([1.0, 2.0, 3.0, 4.0])])
def test_generator_of_another_dimension_rejected(h):
    with pytest.raises(errors.DimensionMismatch):
        invariant_set(nondeg((0.0, 1.0, 2.0)), h)
