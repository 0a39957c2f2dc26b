#!/usr/bin/env python3
"""The ccrlab benchmark.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload solve-large --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for the inputs and oracles of each):

* ``solve-large``: the library pipeline at N=256 on a fresh pair every op
  (build, classify, invariant_set, audit_pair, factorize).  Assembly,
  Schur/eigh and certification dominate; no matrix is reused.
* ``clock-sweep``: one fixed N=256 clock; each op is a 101-sample
  ``clock_trace`` plus a fit, a membership test and a commuting factor.
  The same H is decomposed over a hundred times per op.
* ``cli-session``: a fixed script of 14 ``ccrlab`` commands, one child
  process per op.  Interpreter start, ``import ccrlab`` and JSON dominate.

BLAS runs on one thread (``--blas-threads``), in this process and in every
child; on the 2-vCPU machine the benchmark was written on, one thread made
solve-large twice as fast as two and its timings steadier.

``--trace 0`` measures with nothing installed and prints the end-to-end
metrics.  ``--trace 1`` runs half the time untraced and half with span
wrappers installed (tracing.py), then prints per-layer metrics, the
tracing overhead, CLI start-up probes and a reference run of
``solve-large`` with BLAS on every CPU; spans go to ``benchmarks/out/``.
The last line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Seed 2718 is held out: tune nothing on it, and use it to confirm a claim.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("solve-large", "clock-sweep", "cli-session")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9       # set-up samples per run: this process plus fresh child processes
PROBE_REPEATS = 5       # interpreter / import probes per traced run
CHILD_TIMEOUT_S = 150


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="ccrlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measured op time per phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small problems, for the self-test")
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 1 <= args.blas_threads <= (os.cpu_count() or 1):
        p.error("--blas-threads must be between 1 and the number of CPUs")
    if args.setup_repeats < 1 or args.seconds <= 0:
        p.error("--setup-repeats and --seconds must be positive")
    return args


def configure(args) -> None:
    """Pin the BLAS threads and point imports at this checkout's sources,
    for this process and every child; must run before numpy is imported."""
    if not (SRC / "ccrlab" / "__init__.py").is_file():
        sys.exit(f"error: no ccrlab sources at {SRC}; run from a checkout of the repository")
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)


def child(argv, timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=timeout, check=True)


# --- machine facts --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return found
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def machine_facts(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_reported": _openblas_threads(),
    }


# --- measurement ----------------------------------------------------------------

@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)   # (op index, [problem, ...])
    busy_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s

    def p50_ms(self) -> float:
        return statistics.median(self.latencies) * 1e3


def run_op(wl, i: int, phase: Phase, tracer=None) -> None:
    inp = wl.inputs(i)
    if tracer:
        tracer.begin_op(i)
    start = time.perf_counter()
    try:
        out, error = wl.run(inp), None
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        out, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op(error is not None)
    phase.latencies.append(elapsed)
    phase.busy_s += elapsed
    if error is None:
        try:
            problems = wl.check(inp, out)
        except Exception as exc:  # a malformed output is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        problems = [error]
    if problems:
        phase.problems.append((i, problems))


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: one op at a time until ``seconds`` of op time have
    passed and the op mix has completed a whole round.  Output checks run
    between ops and are not counted as op time."""
    phase = Phase()
    i = 0
    while phase.busy_s < seconds or i % wl.cycle:
        run_op(wl, i, phase, tracer)
        i += 1
    return phase


def setup_samples(args, in_process_s: float) -> list:
    samples = [in_process_s]
    for _ in range(args.setup_repeats - 1):
        done = child([__file__, "--setup-probe", "--workload", args.workload,
                      "--seed", str(args.seed), "--seconds", "1", "--size", args.size,
                      "--blas-threads", str(args.blas_threads)])
        samples.append(float(done.stdout.split()[-1]))
    return samples


def median_wall_ms(argv, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        child(argv)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def reference_run(args) -> dict:
    """solve-large, untraced, with BLAS on every CPU, to set against the
    single-thread runs."""
    done = child([__file__, "--workload", "solve-large", "--seed", str(args.seed),
                  "--seconds", repr(args.seconds / 4), "--size", args.size,
                  "--blas-threads", str(os.cpu_count() or 1), "--setup-repeats", "1"])
    return json.loads(done.stdout.strip().splitlines()[-1])


# --- reporting ------------------------------------------------------------------

def report(metrics: dict, attempted: int, failed: int, lines=()) -> None:
    for line in lines:
        print(f"# {line}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {failed / attempted:>14.6g}  fraction "
          f"({failed} of {attempted} ops failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def show_problems(phases) -> None:
    shown = 0
    for phase in phases:
        for i, problems in phase.problems:
            for problem in problems:
                if shown < 10:
                    print(f"op {i}: {problem}", file=sys.stderr)
                shown += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    configure(args)
    start = time.perf_counter()
    import workloads   # imports numpy and ccrlab: part of set-up

    wl = workloads.make(args.workload, args.seed, args.size, str(OUT_DIR))
    setup_in_process = time.perf_counter() - start
    if args.setup_probe:
        wl.close()
        print(repr(setup_in_process))
        return 0
    facts = machine_facts(args.blas_threads)
    header = [f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} size={args.size}",
              "machine " + json.dumps(facts)]
    try:
        if args.trace:
            return traced_main(args, wl, facts, header)
        warmup = Phase()
        run_op(wl, 0, warmup)
        phase = measure(wl, args.seconds)
        setup = setup_samples(args, setup_in_process)
        peak_kb = wl.peak_rss_kb()
    finally:
        wl.close()
    show_problems((warmup, phase))
    metrics = {
        "ops_per_s": (phase.ops_per_s(), "op/s"),
        "op_p50_ms": (phase.p50_ms(), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    header.append(f"{phase.attempted} measured ops; setup samples {setup}")
    report(metrics, warmup.attempted + phase.attempted, warmup.failed + phase.failed, header)
    return 0


def traced_main(args, wl, facts, header) -> int:
    from tracing import NOTES, Tracer

    if args.workload == "cli-session":
        wl.in_process = True   # the tracer can only see calls in this process
    warmup = Phase()
    run_op(wl, 0, warmup)
    plain = measure(wl, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    lat = plain.latencies
    metrics.update({
        "ops.p50_ms": (plain.p50_ms(), "ms"),
        "ops.p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1
                       else lat[0] * 1e3, "ms"),
        "ops.samples": (plain.attempted, "count"),
        "ops_per_s.untraced": (plain.ops_per_s(), "op/s"),
        "ops_per_s.traced": (traced.ops_per_s(), "op/s"),
        "trace.overhead": (traced.ops_per_s() / plain.ops_per_s(), "ratio"),
        "cli.interp_ms": (median_wall_ms(["-c", "pass"], PROBE_REPEATS), "ms"),
        "cli.import_ms": (median_wall_ms(["-c", "import ccrlab"], PROBE_REPEATS), "ms"),
    })
    reference = reference_run(args)
    metrics["blas_nproc.solve-large.ops_per_s"] = (reference["metrics"]["ops_per_s"]["value"],
                                                   "op/s")
    metrics["blas_nproc.solve-large.op_p50_ms"] = (reference["metrics"]["op_p50_ms"]["value"],
                                                   "ms")
    base = ("in-process ccrlab.cli.main(argv)" if args.workload == "cli-session"
            else "the library loop")
    notes = [*NOTES,
             f"trace.overhead = ops_per_s.traced / ops_per_s.untraced, both on {base}.",
             "ops.* come from the untraced half; blas_nproc.* from an untraced child run of "
             f"solve-large with {os.cpu_count()} BLAS threads (the measured runs use "
             f"{args.blas_threads})."]
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": facts, "notes": notes,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "problems": plain.problems + traced.problems,
                   "spans": tracer.dump_spans()}, fh)
    show_problems((warmup, plain, traced))
    attempted = warmup.attempted + plain.attempted + traced.attempted + reference["attempted"]
    failed = warmup.failed + plain.failed + traced.failed + reference["failed"]
    report(metrics, attempted, failed,
           [*header, *notes, f"spans written to {trace_path.relative_to(BENCH_DIR.parent)}"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
