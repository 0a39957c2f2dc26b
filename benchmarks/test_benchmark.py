"""Self-test of the benchmark: run from the repository root with

    python -m pytest benchmarks

Each workload runs at a tiny size and must print every metric that
BENCHMARK.json names, with its unit.  Each oracle is fed a planted wrong
result and must count it as failed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_benchmark(*args, cwd=ROOT):
    """The benchmark's command, run from the root of ``cwd`` as BENCHMARK.json gives it."""
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    done = run_benchmark("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", str(trace), "--size", "tiny", "--setup-repeats", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert any(line.startswith("error_rate") and "fraction" in line for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_benchmark("--workload", "solve-large", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# --- planted faults ----------------------------------------------------------------

def _rotate_toward_ones(basis: np.ndarray, angle: float = 1e-3) -> np.ndarray:
    """Tilt the first basis vector toward the all-ones vector (orthogonal to the domain)."""
    out = basis.copy()
    ones = np.ones(basis.shape[0]) / math.sqrt(basis.shape[0])
    out[:, 0] = math.cos(angle) * basis[:, 0] + math.sin(angle) * ones
    return out


@pytest.fixture(scope="module")
def solve():
    wl = workloads.SolveLarge(SEED, "tiny")
    integer_op, real_op = 0, 1
    assert workloads.SOLVE_MIX[integer_op][1] and not workloads.SOLVE_MIX[real_op][1]
    cases = [(inp, wl.run(inp)) for inp in (wl.inputs(integer_op), wl.inputs(real_op))]
    for inp, out in cases:
        assert wl.check(inp, out) == []
    return wl, cases


def test_solve_oracles_catch_planted_faults(solve):
    wl, [(inp, out), (real_inp, real_out)] = solve
    sub = workloads.matrix_core.Subspace
    replace = dataclasses.replace

    tilted = sub(_rotate_toward_ones(out.sol.domain.basis))
    assert any("all-ones" in p for p in
               wl.check(inp, replace(out, sol=replace(out.sol, domain=tilted))))

    short = replace(out, sol=replace(out.sol, domain=sub(out.sol.domain.basis[:, 1:])))
    assert any("domain shape" in p for p in wl.check(inp, short))

    relations = [replace(r, domain=sub(_rotate_toward_ones(r.domain.basis)))
                 if abs(r.c - 1j) < 1e-8 else r for r in out.report.relations]
    assert any("classify domain" in p for p in
               wl.check(inp, replace(out, report=replace(out.report, relations=relations))))
    top_missing = [r for r in out.report.relations if r.c.imag > -1]
    assert any("one-dimensional" in p for p in
               wl.check(inp, replace(out, report=replace(out.report, relations=top_missing))))

    wrong_gcd = replace(out.iset, generator_gcd=out.iset.generator_gcd * 2)
    assert any("gcd" in p for p in wl.check(inp, replace(out, iset=wrong_gcd)))
    assert any("zero_only" in p for p in
               wl.check(real_inp, replace(real_out, iset=out.iset)))

    low = replace(out.audit, product=0.49)
    assert any("floor" in p for p in wl.check(inp, replace(out, audit=low)))

    bad_a = out.a.copy()
    bad_a[0, 1] += 1e-3
    assert any("factorization" in p for p in wl.check(inp, replace(out, a=bad_a)))


def test_clock_oracles_catch_planted_faults():
    wl = workloads.ClockSweep(SEED, "tiny")
    inp = wl.inputs(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []
    replace = dataclasses.replace
    assert any("slope" in p for p in wl.check(inp, replace(out, fit=replace(out.fit, slope=1.01))))
    products = out.trace.uncertainty_product.copy()
    products[3] = 0.4
    low = replace(out.trace, uncertainty_product=products)
    assert any("floor" in p for p in wl.check(inp, replace(out, trace=low)))
    assert any("half-period" in p for p in wl.check(inp, replace(out, member=True)))
    assert any("T U psi" in p for p in wl.check(inp, replace(out, k_psi=out.k_psi * 1.001)))


@pytest.fixture(scope="module")
def session():
    wl = workloads.CliSession(SEED, "tiny", str(BENCH_DIR / "out"))
    wl.in_process = True
    steps = {}
    try:
        for i in range(wl.cycle):
            step = wl.inputs(i)
            out = wl.run(step)
            assert wl.check(step, out) == [], step.name
            steps[step.name] = (step, out)
        yield wl, steps
    finally:
        wl.close()


def _with_stdout(out, text):
    return dataclasses.replace(out, stdout=text)


def test_cli_oracles_catch_planted_faults(session):
    wl, steps = session
    step, out = steps["build-purely-degenerate"]
    assert any("exit code 1, expected 2" in p
               for p in wl.check(step, dataclasses.replace(out, code=1)))
    step, out = steps["audit"]
    assert any("exit code 2, expected 0" in p
               for p in wl.check(step, dataclasses.replace(out, code=2)))

    step, out = steps["build-3"]
    obj = json.loads(out.stdout)
    basis = workloads._vectors(obj["domain_basis"], 3)
    tilted = _rotate_toward_ones(basis, 1e-2)
    obj["domain_basis"] = [[[z.real, z.imag] for z in tilted[:, k]] for k in range(2)]
    assert any("all-ones" in p for p in wl.check(step, _with_stdout(out, json.dumps(obj))))

    step, out = steps["invariant-set"]
    obj = json.loads(out.stdout)
    obj["generator_gcd"] *= 3
    assert any("gcd" in p for p in wl.check(step, _with_stdout(out, json.dumps(obj))))

    step, out = steps["audit"]
    obj = json.loads(out.stdout)
    obj["product"] = 0.25
    assert any("floor" in p for p in wl.check(step, _with_stdout(out, json.dumps(obj))))

    step, out = steps["clock"]
    rows = out.stdout.splitlines()
    doubled = [rows[0]] + [",".join([r.split(",")[0], repr(2 * float(r.split(",")[1])),
                                     *r.split(",")[2:]]) for r in rows[1:]]
    assert any("slope" in p for p in wl.check(step, _with_stdout(out, "\n".join(doubled))))

    step, out = steps["classify"]
    obj = json.loads(out.stdout)
    obj["relations"] = [r for r in obj["relations"] if r["c"][1] > 0]
    assert any("one-dimensional" in p for p in
               wl.check(step, _with_stdout(out, json.dumps(obj))))

    step, out = steps["factorize"]
    assert any("reported residual" in p for p in wl.check(step, _with_stdout(out, "residual = 1")))

    step, out = steps["catalog-3d:nondeg-1a"]
    obj = json.loads(out.stdout)
    obj[1]["c"] = [0.0, -1.0]
    assert any("c values" in p for p in wl.check(step, _with_stdout(out, json.dumps(obj))))

    step, out = steps["build"]
    assert any("summary" in p for p in wl.check(step, _with_stdout(out, "c = 1j, domain dim = 1")))
    assert any("unreadable" in p for p in wl.check(steps["audit"][0],
                                                   _with_stdout(steps["audit"][1], "{")))


def test_tracer_nests_spans_and_restores_the_library():
    wl = workloads.SolveLarge(SEED, "tiny")
    inp = wl.inputs(0)
    original = workloads.pair_builder.eigenspace
    tracer = Tracer()
    tracer.install()
    try:
        assert workloads.pair_builder.eigenspace is not original
        tracer.begin_op(0)
        wl.run(inp)
        tracer.end_op(False)
    finally:
        tracer.uninstall()
    assert workloads.pair_builder.eigenspace is original
    names = [s[0] for s in tracer.spans]
    build = names.index("pair_builder.build")
    eigenspace = names.index("matrix_core.eigenspace")
    assert tracer.spans[eigenspace][3] == build
    metrics = tracer.layer_metrics()
    assert metrics["pair_builder.build.calls"][0] == 1
    assert metrics["matrix_core.decomps"][0] >= 3
    run_level = {m["name"] for m in SPEC["per_layer"]} - set(metrics)
    assert run_level == {"ops.p50_ms", "ops.p90_ms", "ops.samples", "ops_per_s.untraced",
                         "ops_per_s.traced", "trace.overhead", "cli.interp_ms", "cli.import_ms",
                         "blas_nproc.solve-large.ops_per_s", "blas_nproc.solve-large.op_p50_ms"}
