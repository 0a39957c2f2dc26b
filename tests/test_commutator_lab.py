import numpy as np
import pytest

from ccrlab import errors
from ccrlab.commutator_lab import (
    classify,
    commutator_fixing_state,
    dft_zero_diagonal,
    factorize,
)
from ccrlab.config import DEFAULT_TOL
from ccrlab.matrix_core import commutator, eigh, frobenius
from ccrlab.pair_builder import (
    CATALOG_FAMILIES,
    CanonicalSolution,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def test_pauli_commutator():
    assert np.allclose(commutator(SX, SY), 2j * SZ, atol=1e-14)


def test_classify_pauli_pair():
    report = classify(SX, SY)
    cs = [r.c for r in report.relations]
    assert cs == [2j, -2j]
    plus = report.relations[0]
    assert plus.domain.dim == 1
    assert plus.domain.distance(np.array([1.0, 0.0])) < 1e-12
    assert all(r.essentially_canonical for r in report.relations)
    assert plus.provenance == "classified"
    assert plus.residual() <= 1e-10


def test_classify_2d_canonical_pair():
    a = np.array([[0, -1j], [1j, 0]])
    b = np.diag([0.0, 1.0]).astype(complex)
    report = classify(a, b)
    assert sorted(r.c.imag for r in report.relations) == pytest.approx([-1.0, 1.0])
    assert all(r.domain.dim == 1 for r in report.relations)


def test_classify_two_level_degenerate():
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 2)))
    report = classify(sol.A, sol.B)
    table = {round(r.c.imag, 10): r.domain.dim for r in report.relations}
    assert table == {1.0: 1, -1.0: 1, 0.0: 2}
    zero = [r for r in report.relations if r.c == 0]
    assert zero and not zero[0].essentially_canonical


def reference_relations(a, b, tol=DEFAULT_TOL):
    """(c, domain basis, essentially canonical) of each cluster of i[A, B],
    with the verdict taken from the cluster mean after snapping to zero."""
    c = commutator(a, b)
    sd = eigh(1j * c, tol)
    zero_tol = max(sd.cluster_tol, tol.spectral_tol * frobenius(c))
    out = []
    for cluster in sd.clusters:
        m = float(np.mean(sd.eigenvalues[cluster]))
        if abs(m) <= zero_tol:
            m = 0.0
        out.append((-1j * m, sd.eigenspace(cluster).basis, m != 0.0))
    out.sort(key=lambda r: (-r[0].imag, -r[1].shape[1]))
    return out


def test_relations_are_solutions_with_the_cluster_c_domain_and_verdict():
    pairs = [
        (SX, SY),
        (random_hermitian(4, 3), random_hermitian(4, 4)),
        (random_hermitian(6, 5), random_hermitian(6, 6)),
    ]
    for sol in (build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0))),
                build_nondegenerate(SpectrumSpec.nondegenerate(np.arange(8.0) ** 1.5),
                                    PairParams(hbar=0.5)),
                build_degenerate(SpectrumSpec((0.0, 1.0, 2.5), (2, 3, 1)))):
        pairs.append((sol.A, sol.B))
    pairs += [(r.A, r.B) for r in (catalog_3d(f)[0] for f in CATALOG_FAMILIES)]
    for a, b in pairs:
        relations = classify(a, b).relations
        ref = reference_relations(a, b)
        assert len(relations) == len(ref)
        for r, (c, basis, essential) in zip(relations, ref):
            assert isinstance(r, CanonicalSolution) and r.provenance == "classified"
            assert r.c == c
            assert np.array_equal(r.domain.basis, basis)
            assert r.essentially_canonical is essential


def test_classify_commuting_pair_raises():
    with pytest.raises(errors.CommutingPair):
        classify(np.eye(2), SZ)


def test_classify_eigenvalues_purely_imaginary_and_traceless():
    a = random_hermitian(6, 1)
    b = random_hermitian(6, 2)
    report = classify(a, b)
    total = sum(r.c * r.domain.dim for r in report.relations)
    scale = np.linalg.norm(report.commutator, "fro")
    assert abs(total) <= 1e-10 * scale
    assert max(abs(r.c.real) for r in report.relations) <= 1e-10 * scale
    assert len(report.nonzero()) >= 2


def test_classify_max_domain_dimension():
    for n in range(2, 8):
        a = random_hermitian(n, n)
        b = random_hermitian(n, n + 50)
        report = classify(a, b)
        for r in report.relations:
            if r.essentially_canonical:
                assert r.domain.dim <= n - 1


def test_dft_zero_diagonal_2x2():
    c = np.diag([0.7j, -0.7j])
    u = dft_zero_diagonal(c)
    rotated = u.conj().T @ c @ u
    assert np.max(np.abs(np.diag(rotated))) <= 1e-12
    assert abs(abs(rotated[0, 1]) - 0.7) < 1e-12


def test_dft_zero_diagonal_generic():
    c = np.diag([1.0, np.exp(2j * np.pi / 3), np.exp(4j * np.pi / 3)])
    c = c - np.trace(c) / 3 * np.eye(3)
    u = dft_zero_diagonal(c)
    assert np.max(np.abs(np.diag(u.conj().T @ c @ u))) <= 1e-10
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) < 1e-12


def test_dft_zero_diagonal_rejects_trace():
    with pytest.raises(errors.NotTraceless):
        dft_zero_diagonal(np.eye(3))


def test_factorize_pauli_commutator():
    c = 2j * SZ
    a, b = factorize(c, [0.0, 1.0], [0.0, 0.0])
    assert np.linalg.norm(commutator(a, b) - c, "fro") <= 1e-12
    assert np.linalg.norm(a - a.conj().T) < 1e-12
    assert np.linalg.norm(b - b.conj().T) < 1e-12


def test_factorize_block_structure():
    c = np.diag([0.0, 0.0, 1.3j, -1.3j])
    a, b = factorize(c, [0.0, 1.0, 2.0, 3.0])
    resid = np.linalg.norm(commutator(a, b) - c, "fro")
    assert resid <= 1e-9 * np.linalg.norm(c, "fro")


def test_factorize_roundtrip_random_pairs():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5):
        a0 = random_hermitian(n, n * 7)
        b0 = np.diag(np.sort(rng.normal(size=n)))
        c = commutator(a0, b0 + 0j)
        a, b = factorize(c, np.arange(n, dtype=float))
        assert np.linalg.norm(commutator(a, b) - c, "fro") <= 1e-9 * np.linalg.norm(c, "fro")


def test_factorize_zero_is_trivial():
    with pytest.raises(errors.TrivialMatrix):
        factorize(np.zeros((3, 3)), [0.0, 1.0, 2.0])


def test_factorize_repeated_b_values():
    with pytest.raises(errors.RepeatedBValue):
        factorize(2j * SZ, [1.0, 1.0])


def test_factorize_rejects_nonnormal():
    c = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(errors.NotNormal):
        factorize(c, [0.0, 1.0, 2.0])


def test_commutator_fixing_state_2d():
    phi = np.array([0.6, 0.8j])
    cm, a, b = commutator_fixing_state(phi, 1j)
    assert np.linalg.norm(cm @ phi - 1j * phi) <= 1e-10
    assert np.linalg.norm(commutator(a, b) @ phi - 1j * phi) <= 1e-10


def test_commutator_fixing_state_basis_vector():
    phi = np.zeros(4)
    phi[0] = 1.0
    cm, a, b = commutator_fixing_state(phi, 1j)
    assert np.linalg.norm(cm @ phi - 1j * phi) <= 1e-12
    assert abs(np.trace(cm)) <= 1e-12


def test_commutator_fixing_state_random():
    rng = np.random.default_rng(4)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = phi / np.linalg.norm(phi)
    cm, a, b = commutator_fixing_state(phi, 2j)
    assert np.linalg.norm(commutator(a, b) @ phi - 2j * phi) <= 1e-10


def test_commutator_fixing_state_rejects_zero():
    with pytest.raises(errors.ZeroEigenvalueRequested):
        commutator_fixing_state(np.array([1.0, 0.0]), 0.0)


def test_commutator_fixing_state_rejects_a_zero_state():
    with pytest.raises(errors.NotNormalized):
        commutator_fixing_state(np.zeros(3), 1j)


def test_commutator_fixing_state_rejects_a_one_dimensional_state():
    with pytest.raises(errors.TooSmall):
        commutator_fixing_state(np.array([1.0]), 1j)
