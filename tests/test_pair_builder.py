import numpy as np
import pytest

import ccrlab.pair_builder
from ccrlab import errors
from ccrlab.matrix_core import commutator, eigenspace, eigh, span
from ccrlab.pair_builder import (
    CATALOG_FAMILIES,
    CatalogParams,
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
    default_catalog_params,
    project_pair,
    remap_essential_to_canonical,
)


def nondeg(values, **kw):
    return build_nondegenerate(SpectrumSpec.nondegenerate(values),
                               PairParams(**kw) if kw else None)


def _assemble_by_loop(spec, params):
    """The entrywise definition of A, one (k, l) at a time."""
    alpha, beta, diag_a, block_b, level = params.resolve(spec)
    n = spec.dim
    values = np.asarray(spec.values, dtype=float)
    a = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for l in range(n):
            if k == l:
                a[k, l] = diag_a[k]
            elif level[k] == level[l]:
                a[k, l] = block_b[k, l]
            else:
                gap = values[level[k]] - values[level[l]]
                a[k, l] = beta[k, l] * 1j * params.hbar * np.exp(1j * alpha[k, l]) / gap
    return a


def _random_params(rng, n, hbar):
    alpha = rng.uniform(-np.pi, np.pi, size=(n, n))
    beta = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    block_b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    block_b = block_b + block_b.conj().T
    np.fill_diagonal(block_b, 0.0)
    return PairParams(alpha=alpha - alpha.T, beta=beta + beta.conj().T,
                      diag_a=rng.normal(size=n), block_b=block_b, hbar=hbar)


def test_assembly_matches_entrywise_loop():
    rng = np.random.default_rng(20261018)
    for trial in range(40):   # degenerate, hbar and custom parameters cycle independently
        if trial % 2:
            mults = tuple(int(m) for m in rng.integers(1, 5, size=int(rng.integers(2, 17))))
        else:
            mults = (1,) * int(rng.integers(2, 65))
        values = rng.uniform(-8.0, 8.0) + np.cumsum(rng.uniform(0.1, 2.0, size=len(mults)))
        spec = SpectrumSpec(tuple(values), mults)
        hbar = 0.7 if trial % 4 >= 2 else 1.0
        params = _random_params(rng, spec.dim, hbar) if trial % 3 else PairParams(hbar=hbar)
        a, b = ccrlab.pair_builder._assemble_pair(spec, params)
        ref = _assemble_by_loop(spec, params)
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert (b == spec.b_matrix()).all()


def test_one_commutator_per_build(monkeypatch):
    calls = []
    original = ccrlab.pair_builder.commutator

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(ccrlab.pair_builder, "commutator", counting)
    build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.5, 4.0)))
    assert len(calls) == 1


def test_2d_default_matrices():
    sol = nondeg((0.0, 1.0))
    # A_12 = i*hbar/(B_1 - B_2) = -i
    assert np.allclose(sol.A, np.array([[0, -1j], [1j, 0]]), atol=1e-14)
    assert np.allclose(sol.B, np.diag([0.0, 1.0]), atol=1e-14)
    assert sol.domain.dim == 1
    assert sol.domain.distance(np.array([1.0, -1.0]) / np.sqrt(2)) < 1e-12
    assert sol.c == 1j


def test_3d_commutator_spectrum():
    sol = nondeg((0.0, 1.0, 3.0))
    vals = np.sort(np.linalg.eigvals(sol.commutator()).imag)
    assert np.allclose(vals, [-2.0, 1.0, 1.0], atol=1e-12)


def test_default_domain_is_difference_span():
    values = (0.0, 1.0, 2.5, 4.0, 5.5)
    sol = nondeg(values)
    n = len(values)
    assert sol.domain.dim == n - 1
    diffs = [np.eye(n)[k] - np.eye(n)[l] for k in range(n) for l in range(k + 1, n)]
    analytic = span(diffs)
    assert np.max(sol.domain.principal_angles(analytic)) <= 1e-8


def test_residual_within_tolerance():
    sol = nondeg((0.0, 0.3, 1.1, 2.0))
    assert sol.residual() <= sol.ccr_tolerance()


def test_operator_eigenkets_outside_domain():
    sol = nondeg((0.0, 1.0, 3.0))
    for op in (sol.A, sol.B):
        for v in eigh(op).eigenvectors.T:
            proj = np.linalg.norm(sol.domain.project(v))
            assert proj < 1.0 - 1e-6


def test_alpha_is_unitary_conjugation_2d():
    b12 = -1.0
    alpha = 0.6
    table = np.array([[0.0, alpha], [-alpha, 0.0]])
    sol0 = nondeg((0.0, 1.0))
    sola = nondeg((0.0, 1.0), alpha=table)
    u = np.diag(np.exp(1j * alpha * np.diag(sol0.B).real / b12))
    assert np.linalg.norm(sola.A - u @ sol0.A @ u.conj().T, "fro") < 1e-10


def test_rejects_degenerate_spec():
    with pytest.raises(errors.DegenerateSpectrum):
        build_nondegenerate(SpectrumSpec((0.0, 1.0), (2, 1)))


def test_rejects_dim_one():
    with pytest.raises(errors.TooSmall):
        build_nondegenerate(SpectrumSpec.nondegenerate((0.0,)))


def test_bad_beta_raises_constraint_violated():
    beta = np.full((2, 2), 5.0, dtype=complex)
    with pytest.raises(errors.ConstraintViolated, match="no eigenvalue within .* of i[*]hbar"):
        nondeg((0.0, 1.0), beta=beta)


def test_degenerate_21_domain():
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 1)))
    assert sol.domain.dim == 1
    target = np.array([-1.0, -1.0, np.sqrt(2)]) / 2.0
    assert sol.domain.distance(target) < 1e-12


def test_purely_degenerate_forbidden():
    with pytest.raises(errors.PurelyDegenerate):
        build_degenerate(SpectrumSpec((5.0,), (3,)))


def test_degenerate_22_commutator_eigenvalues():
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 2)))
    vals = np.sort(np.linalg.eigvalsh(1j * sol.commutator()))
    assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_degenerate_plus_minus_kernel_reconstruct():
    sol = build_degenerate(SpectrumSpec((0.0, 1.0), (2, 2)))
    sd = eigh(1j * sol.commutator())
    total = sum(len(c) for c in sd.clusters)
    assert total == 4
    assert np.linalg.norm(sd.eigenvectors @ sd.eigenvectors.conj().T - np.eye(4)) < 1e-12


def test_projection_3d():
    sol = nondeg((0.0, 1.0, 3.0))
    proj = project_pair(sol, [0, 1])
    assert proj.domain.dim == 1
    assert proj.domain.distance(np.array([1.0, -1.0, 0.0]) / np.sqrt(2)) < 1e-10
    assert proj.provenance == "projection"


def test_projection_identity():
    sol = nondeg((0.0, 1.0, 3.0))
    proj = project_pair(sol, [0, 1, 2])
    assert np.allclose(proj.A, sol.A, atol=1e-14)
    assert proj.domain.dim == sol.domain.dim


def test_projection_4d_spectrum():
    sol = nondeg((0.0, 1.0, 2.0, 4.0))
    proj = project_pair(sol, [0, 1])
    vals = np.sort(np.linalg.eigvalsh(1j * proj.commutator()))
    assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_projection_matches_explicit_projector():
    rng = np.random.default_rng(7)
    n = 9
    params = PairParams(diag_a=rng.normal(size=n))
    sol = build_nondegenerate(SpectrumSpec.nondegenerate(np.arange(n) ** 2 / 4.0), params)
    keep = [1, 2, 5, 8]
    extra = rng.normal(size=n)
    p = np.diag(np.isin(np.arange(n), keep).astype(complex))
    proj = project_pair(sol, keep, extra_diag=extra)
    assert np.array_equal(proj.A, p @ sol.A @ p + np.diag(extra))
    assert proj.residual() <= proj.ccr_tolerance()


def test_projection_too_small():
    sol = nondeg((0.0, 1.0, 3.0))
    with pytest.raises(errors.TooSmall):
        project_pair(sol, [1])


def test_remap_minus_i():
    sol = nondeg((0.0, 1.0))
    c_mat = sol.commutator()
    from ccrlab.matrix_core import eigenspace
    dminus = eigenspace(c_mat, -1j)
    from ccrlab.pair_builder import CanonicalSolution
    essential = CanonicalSolution(sol.A, sol.B, -1j, dminus, "manual")
    remapped = remap_essential_to_canonical(essential)
    assert np.allclose(remapped.A, -sol.A, atol=1e-14)
    assert np.allclose(remapped.B, sol.B, atol=1e-14)
    assert remapped.residual() <= remapped.ccr_tolerance()


def test_remap_minus_2i():
    sol = nondeg((0.0, 1.0, 3.0))
    from ccrlab.matrix_core import eigenspace
    from ccrlab.pair_builder import CanonicalSolution
    dom = eigenspace(sol.commutator(), -2j)
    essential = CanonicalSolution(sol.A, sol.B, -2j, dom, "manual")
    remapped = remap_essential_to_canonical(essential)
    assert np.allclose(remapped.A, -sol.A / 2.0, atol=1e-14)


def test_remap_identity_on_canonical():
    sol = nondeg((0.0, 1.0))
    remapped = remap_essential_to_canonical(sol)
    assert np.allclose(remapped.A, sol.A, atol=1e-14)
    assert np.allclose(remapped.B, sol.B, atol=1e-14)


def test_remap_rejects_real_c():
    from ccrlab.pair_builder import CanonicalSolution
    sol = nondeg((0.0, 1.0))
    bad = CanonicalSolution(sol.A, sol.B, 1.0 + 0j, sol.domain, "manual")
    with pytest.raises(errors.NotHermitianPair):
        remap_essential_to_canonical(bad)


def test_conjugated_preserves_residual():
    sol = nondeg((0.0, 1.0, 3.0))
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(m)[0]
    rot = sol.conjugated(u)
    assert rot.residual() <= rot.ccr_tolerance() * 10


# --- catalog ---------------------------------------------------------------

def catalog_cs(family):
    """The closed-form c of each relation of a family at its default parameters."""
    if family == "nondeg-1a":
        return [1j, -2j]
    if family == "nondeg-1b":
        root = np.sqrt(4.0 * sum(abs(b) ** 2 for b in default_catalog_params(family).beta) - 3.0)
        return [1j, -0.5 * (1.0 + root) * 1j, -0.5 * (1.0 - root) * 1j]
    return [1j, -1j, 0]


def test_catalog_all_families_instantiate():
    for family in CATALOG_FAMILIES:
        entries = catalog_3d(family)
        assert len(entries) >= 2
        a, b = entries[0].A, entries[0].B
        assert [e.c for e in entries] == catalog_cs(family)
        for e in entries:
            assert e.residual() <= 1e-9
            assert e.essentially_canonical == (abs(e.c) > 1e-12)
            assert e.A is a and e.B is b and e.provenance == f"catalog-3d:{family}"
            assert np.array_equal(e.domain.basis, eigenspace(commutator(a, b), e.c).basis)


def test_catalog_1a_relations():
    entries = catalog_3d("nondeg-1a")
    by_c = {complex(e.c): e for e in entries}
    assert by_c[1j].domain.dim == 2
    assert by_c[-2j].domain.dim == 1


def test_catalog_1b_eigenvalue_formula():
    params = default_catalog_params("nondeg-1b")
    beta2 = sum(abs(b) ** 2 for b in params.beta)
    root = np.sqrt(4 * beta2 - 3)
    entries = catalog_3d("nondeg-1b")
    got = sorted(e.c.imag for e in entries)
    want = sorted([1.0, -0.5 * (1 + root), -0.5 * (1 - root)])
    assert np.allclose(got, want, atol=1e-10)


def test_catalog_2c_relation_values():
    entries = catalog_3d("nondeg-2c")
    assert sorted(e.c.imag for e in entries) == pytest.approx([-1.0, 0.0, 1.0])


def test_catalog_1b_reduces_to_1a_at_beta2_3():
    # at |beta|^2 = 3 the 1b eigenvalue -0.5*(1+sqrt(9)) = -2 coincides with 1a
    assert -0.5 * (1 + np.sqrt(4 * 3.0 - 3.0)) == pytest.approx(-2.0)


def test_catalog_constraint_violation_named():
    params = CatalogParams((0.0, 1.0, 3.0), beta=(1.0, 1.0, 0.5))
    with pytest.raises(errors.FamilyConstraintViolated, match="nondeg-1a"):
        catalog_3d("nondeg-1a", params)


def test_catalog_degen_domains_match_closed_form():
    entries = catalog_3d("degen")
    params = default_catalog_params("degen")
    _, b13, b23 = params.beta
    plus = next(e for e in entries if e.c == 1j)
    minus = next(e for e in entries if e.c == -1j)
    target_plus = np.array([-1j * b13, -1j * b23, 1.0]) / np.sqrt(2)
    target_minus = np.array([1j * b13, 1j * b23, 1.0]) / np.sqrt(2)
    assert plus.domain.distance(target_plus) < 1e-10
    assert minus.domain.distance(target_minus) < 1e-10


def test_catalog_2c_domains_match_closed_form():
    # direct substitution into Cv = +iv gives (1, +i b12*, +i b13*)/sqrt(2)
    entries = catalog_3d("nondeg-2c")
    b12, b13, _ = default_catalog_params("nondeg-2c").beta
    plus = next(e for e in entries if e.c == 1j)
    minus = next(e for e in entries if e.c == -1j)
    zero = next(e for e in entries if e.c == 0)
    assert plus.domain.distance(
        np.array([1.0, 1j * np.conj(b12), 1j * np.conj(b13)]) / np.sqrt(2)) < 1e-10
    assert minus.domain.distance(
        np.array([1.0, -1j * np.conj(b12), -1j * np.conj(b13)]) / np.sqrt(2)) < 1e-10
    kernel = np.array([0.0, b13, -b12])
    assert zero.domain.distance(kernel / np.linalg.norm(kernel)) < 1e-10


def test_catalog_2a_domains_match_closed_form():
    entries = catalog_3d("nondeg-2a")
    _, b13, b23 = default_catalog_params("nondeg-2a").beta
    plus = next(e for e in entries if e.c == 1j)
    minus = next(e for e in entries if e.c == -1j)
    assert plus.domain.distance(
        np.array([-1j * b13, -1j * b23, 1.0]) / np.sqrt(2)) < 1e-10
    assert minus.domain.distance(
        np.array([1j * b13, 1j * b23, 1.0]) / np.sqrt(2)) < 1e-10


def test_catalog_1b_domain_matches_closed_form():
    entries = catalog_3d("nondeg-1b")
    params = default_catalog_params("nondeg-1b")
    b12, b13, b23 = params.beta
    a12, a13, a23 = params.alpha
    plus = next(e for e in entries if e.c == 1j)
    v = np.array([
        1.0,
        (abs(b13) ** 2 - 1) / (1j * b12 * np.exp(1j * a12)
                               - b13 * np.conj(b23) * np.exp(-1j * (-a13 + a23))),
        (abs(b12) ** 2 - 1) / (1j * b13 * np.exp(1j * a13)
                               + b12 * b23 * np.exp(1j * (a12 + a23))),
    ])
    assert plus.domain.distance(v / np.linalg.norm(v)) < 1e-10


def test_catalog_1a_domains_match_closed_form():
    entries = catalog_3d("nondeg-1a")
    params = default_catalog_params("nondeg-1a")
    b12, b13, b23 = params.beta
    a12, a13, a23 = params.alpha
    plus = next(e for e in entries if e.c == 1j)
    v1 = np.array([1.0, 0.0, 1j * np.conj(b13) * np.exp(-1j * a13)])
    v2 = np.array([0.0, 1.0, 1j * np.conj(b23) * np.exp(-1j * a23)])
    for v in (v1, v2):
        assert plus.domain.distance(v / np.linalg.norm(v)) < 1e-10
    minus2 = next(e for e in entries if e.c == -2j)
    w = np.array([
        1.0,
        (abs(b13) ** 2 - 4) / (-2j * b12 * np.exp(1j * a12)
                               - b13 * np.conj(b23) * np.exp(-1j * (-a13 + a23))),
        (abs(b12) ** 2 - 4) / (-2j * b13 * np.exp(1j * a13)
                               + b12 * b23 * np.exp(1j * (a12 + a23))),
    ])
    assert minus2.domain.distance(w / np.linalg.norm(w)) < 1e-10
