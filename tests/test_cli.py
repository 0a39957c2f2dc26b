import json

import numpy as np
import pytest

from ccrlab import serialize
from ccrlab.cli import main
from ccrlab.clock import TIME_OF_ARRIVAL, clock_from_solution
from ccrlab.errors import ConstraintViolated
from ccrlab.pair_builder import CATALOG_FAMILIES, SpectrumSpec, build_nondegenerate, catalog_3d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_matrix(path, m):
    serialize.dump(serialize.matrix_to_obj(m), str(path))


def test_serialize_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    obj = json.loads(json.dumps(serialize.matrix_to_obj(m)))
    back = serialize.matrix_from_obj(obj)
    assert (back == m).all()


def test_serialize_solution_roundtrip(tmp_path):
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 3.0)))
    path = tmp_path / "sol.json"
    serialize.dump(serialize.solution_to_obj(sol), str(path))
    back = serialize.solution_from_obj(serialize.load(str(path)))
    assert (back.A == sol.A).all()
    assert (back.B == sol.B).all()
    assert back.c == sol.c
    assert (back.domain.basis == sol.domain.basis).all()
    assert back.hbar == sol.hbar
    assert back.provenance == sol.provenance


def test_build_2d(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "build", "--levels", "0,1", "--out", str(out))
    assert code == 0
    assert "domain dim = 1" in stdout
    sol = serialize.solution_from_obj(serialize.load(str(out)))
    assert sol.c == 1j


def test_build_3d_domain_dim(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code, stdout, _ = run(capsys, "build", "--levels", "0,1,3", "--out", str(out))
    assert code == 0
    assert "domain dim = 2" in stdout


def test_build_purely_degenerate_exit_2(capsys):
    code, _, err = run(capsys, "build", "--levels", "5", "--mults", "3")
    assert code == 2
    assert "degenerate" in err


@pytest.mark.parametrize("argv", [("--levels", "1,0"), ("--levels", "0,1", "--mults", "1"),
                                  ("--levels", "0,1", "--mults", "1,0")])
def test_build_malformed_spectrum_exit_1(capsys, argv):
    code, _, err = run(capsys, "build", *argv)
    assert code == 1
    assert "must" in err


def test_build_bad_file_exit_1(capsys):
    code, _, _ = run(capsys, "classify", "--a", "/nonexistent.json", "--b", "/nonexistent.json")
    assert code == 1


def test_classify_pauli(tmp_path, capsys):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    write_matrix(tmp_path / "sx.json", sx)
    write_matrix(tmp_path / "sy.json", sy)
    code, stdout, _ = run(capsys, "classify", "--a", str(tmp_path / "sx.json"),
                          "--b", str(tmp_path / "sy.json"))
    assert code == 0
    report = json.loads(stdout)
    cs = [tuple(r["c"]) for r in report["relations"]]
    assert cs == [(0.0, 2.0), (0.0, -2.0)]
    assert stdout == json.dumps(report, indent=1) + "\n"


def test_classify_commuting_exit_3(tmp_path, capsys):
    write_matrix(tmp_path / "i.json", np.eye(2, dtype=complex))
    write_matrix(tmp_path / "z.json", np.diag([1.0, -1.0]).astype(complex))
    code, _, _ = run(capsys, "classify", "--a", str(tmp_path / "i.json"),
                     "--b", str(tmp_path / "z.json"))
    assert code == 3


def test_classify_random_pair_two_nonzero_relations(tmp_path, capsys):
    rng = np.random.default_rng(0)
    m1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m2 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    write_matrix(tmp_path / "a.json", (m1 + m1.conj().T) / 2)
    write_matrix(tmp_path / "b.json", (m2 + m2.conj().T) / 2)
    code, stdout, _ = run(capsys, "classify", "--a", str(tmp_path / "a.json"),
                          "--b", str(tmp_path / "b.json"))
    assert code == 0
    report = json.loads(stdout)
    nonzero = [r for r in report["relations"] if r["essentially_canonical"]]
    assert len(nonzero) >= 2


def test_factorize_command(tmp_path, capsys):
    c = 2j * np.diag([1.0, -1.0])
    write_matrix(tmp_path / "c.json", c)
    out_a = tmp_path / "A.json"
    out_b = tmp_path / "B.json"
    code, stdout, _ = run(capsys, "factorize", "--c", str(tmp_path / "c.json"),
                          "--b-values", "0,1",
                          "--out-a", str(out_a), "--out-b", str(out_b))
    assert code == 0
    a = serialize.matrix_from_obj(serialize.load(str(out_a)))
    b = serialize.matrix_from_obj(serialize.load(str(out_b)))
    assert np.linalg.norm(a @ b - b @ a - c, "fro") <= 1e-12


def test_invariant_set_command(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1", "--out", str(out))
    code, stdout, _ = run(capsys, "invariant-set", "--solution", str(out))
    assert code == 0
    data = json.loads(stdout)
    assert data["kind"] == "lattice"
    assert data["period"] == pytest.approx(2 * np.pi)


def test_invariant_set_zero_only(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", f"0,1,{float(np.sqrt(2))!r}", "--out", str(out))
    code, stdout, _ = run(capsys, "invariant-set", "--solution", str(out))
    assert code == 0
    assert json.loads(stdout)["kind"] == "zero_only"


def test_invariant_set_generator_of_another_dimension_exit_2(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1,2", "--out", str(out))
    h = json.dumps(np.diag([1.0, 2.0, 3.0, 4.0]).tolist())
    code, stdout, err = run(capsys, "invariant-set", "--solution", str(out), "--h", h)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_audit_command(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1", "--out", str(out))
    code, stdout, _ = run(capsys, "audit", "--solution", str(out))
    assert code == 0
    data = json.loads(stdout)
    assert data["floor"] == pytest.approx(0.5)
    assert data["product"] == pytest.approx(0.5, abs=1e-8)
    assert data["saturated"] is True


def test_clock_command_csv(tmp_path, capsys):
    out = tmp_path / "sol.json"
    csv = tmp_path / "trace.csv"
    run(capsys, "build", "--levels", "0,1", "--out", str(out))
    code, stdout, _ = run(capsys, "clock", "--solution", str(out),
                          "--base-index", "1", "--window", "0.01",
                          "--samples", "11", "--csv", str(csv))
    assert code == 0
    assert "slope = +1.000" in stdout
    lines = csv.read_text().split("\n")
    assert lines[0] == "tau,expectation,delta_T,delta_H,product"
    assert len(lines) == 13  # header + 11 rows + trailing newline
    first = lines[1].split(",")
    assert len(first) == 5
    assert "." in first[0] and "," not in first[0].replace(",", "")


@pytest.mark.parametrize("index", ["0", "1"])
def test_clock_arrival_sign_draws_the_state_from_the_arrival_domain(tmp_path, capsys, index):
    """A time-of-arrival clock on a 2-level pair runs backwards."""
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1", "--out", str(out))
    code, stdout, _ = run(capsys, "clock", "--solution", str(out), "--sign", "-1",
                          "--base-index", index, "--csv", str(tmp_path / "trace.csv"))
    assert code == 0
    assert "slope = -1.000" in stdout


@pytest.mark.parametrize("family", CATALOG_FAMILIES)
def test_clock_arrival_sign_uses_the_arrival_domains_invariant_set(tmp_path, capsys, family):
    """Every catalog relation whose pair has a -i*hbar domain runs an arrival
    clock at base index 1, the c = 0 relations included: the base point comes
    from the invariant set of the arrival domain, not of the relation's own."""
    clocks = 0
    for k, relation in enumerate(catalog_3d(family)):
        try:
            clock_from_solution(relation, sign=TIME_OF_ARRIVAL)
        except ConstraintViolated:
            continue
        path = tmp_path / f"relation-{k}.json"
        serialize.dump(serialize.solution_to_obj(relation), str(path))
        code, stdout, err = run(capsys, "clock", "--solution", str(path), "--sign", "-1",
                                "--base-index", "1", "--csv", str(tmp_path / "trace.csv"))
        assert code == 0, (relation.c, err)
        assert "slope = -1.000" in stdout
        clocks += 1
    assert clocks == (0 if family in ("nondeg-1a", "nondeg-1b") else 3)


def test_clock_base_index_zero_always_ok(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", f"0,1,{float(np.sqrt(2))!r}", "--out", str(out))
    code, _, _ = run(capsys, "clock", "--solution", str(out),
                     "--base-index", "0", "--csv", "-")
    assert code == 0


def test_clock_zero_only_nonzero_index_exit_4(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", f"0,1,{float(np.sqrt(2))!r}", "--out", str(out))
    code, _, err = run(capsys, "clock", "--solution", str(out),
                       "--base-index", "1", "--csv", "-")
    assert code == 4


def test_catalog_3d_command(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code, _, _ = run(capsys, "catalog-3d", "--family", "nondeg-2c", "--out", str(out))
    assert code == 0
    entries = json.loads(out.read_text())
    assert sorted(e["c"][1] for e in entries) == pytest.approx([-1.0, 0.0, 1.0])


def test_catalog_3d_hbar_without_b_values(capsys):
    code, stdout, _ = run(capsys, "catalog-3d", "--family", "nondeg-2a", "--hbar", "0.5")
    assert code == 0
    entries = json.loads(stdout)
    assert sorted(tuple(e["c"]) for e in entries) == [(0.0, -0.5), (0.0, 0.0), (0.0, 0.5)]
    assert [e["solution"]["hbar"] for e in entries] == [0.5] * len(entries)


@pytest.mark.parametrize("argv", [("--samples", "1"), ("--window", "0"), ("--samples", "0")])
def test_clock_without_a_slope_exit_1(tmp_path, capsys, argv):
    """Fewer than two distinct tau values leave the linear fit undetermined."""
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1,3", "--out", str(out))
    code, stdout, stderr = run(capsys, "clock", "--solution", str(out), *argv)
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CCRLAB_TOL", "1e-10")
    out = tmp_path / "sol.json"
    code, _, _ = run(capsys, "build", "--levels", "0,1", "--out", str(out))
    assert code == 0


def test_stdin_matrix(tmp_path, capsys, monkeypatch):
    import io

    sy = np.array([[0, -1j], [1j, 0]])
    write_matrix(tmp_path / "sy.json", sy)
    payload = json.dumps(serialize.matrix_to_obj(np.array([[0, 1], [1, 0]], dtype=complex)))
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, stdout, _ = run(capsys, "classify", "--a", "-", "--b", str(tmp_path / "sy.json"))
    assert code == 0
    assert json.loads(stdout)["relations"][0]["c"] == [0.0, 2.0]


def test_clock_honors_env_tolerance(tmp_path, capsys, monkeypatch):
    sol = build_nondegenerate(SpectrumSpec.nondegenerate((0.0, 1.0, 2.0, 3.5)))
    obj = serialize.solution_to_obj(sol)
    a = sol.A.copy()
    a[0, 1] += 1e-8  # relation residual above the default ccr_tol
    a[1, 0] += 1e-8
    obj["A"] = serialize.matrix_to_obj(a)
    path = tmp_path / "sol.json"
    serialize.dump(obj, str(path))
    code, _, _ = run(capsys, "clock", "--solution", str(path), "--csv", "-")
    assert code == 2
    monkeypatch.setenv("CCRLAB_TOL", "1e-7")
    code, stdout, _ = run(capsys, "clock", "--solution", str(path), "--csv", "-")
    assert code == 0
    assert stdout.startswith("tau,expectation")


def test_factorize_honors_env_tolerance(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(11)
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    c = 0.5j * (h + h.conj().T)
    c -= np.trace(c) / 6 * np.eye(6)
    c[0, 5] += 1e-9 * np.linalg.norm(c)  # non-normal beyond the default spectral_tol
    write_matrix(tmp_path / "c.json", c)
    argv = ("factorize", "--c", str(tmp_path / "c.json"),
            "--out-a", str(tmp_path / "A.json"), "--out-b", str(tmp_path / "B.json"))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "residual" in err
    monkeypatch.setenv("CCRLAB_TOL", "1e-8")
    code, _, _ = run(capsys, *argv)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("classify", "--a", '{"dim":1,"entries":[["a","b"]]}', "--b", "[[1]]"),
    ("classify", "--a", '{"dim":1,"entries":[null]}', "--b", "[[1]]"),
])
def test_malformed_matrix_exit_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: malformed matrix")


def test_malformed_state_exit_1(tmp_path, capsys):
    out = tmp_path / "sol.json"
    run(capsys, "build", "--levels", "0,1", "--out", str(out))
    code, _, err = run(capsys, "audit", "--solution", str(out), "--state", '{"x":1}')
    assert code == 1
    assert err.startswith("error: malformed state")
