"""The three benchmark workloads: seeded inputs, timed ops and output oracles.

Every workload is a closed loop with one caller: the next op starts only
after the previous one has finished and its output has been checked.
Inputs come from ``numpy.random.default_rng([seed, ...])``, so one seed
always gives the same inputs, and op ``i`` draws from its own stream, so
its inputs do not depend on how many ops ran before it.

Ops call the library through module attributes (``pair_builder.build_degenerate``,
never a name imported from a module), so that the traced run sees every
call once it replaces those attributes.  The oracles use plain numpy and
never call ``ccrlab``, so checking an output adds no span to the trace.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from functools import reduce

import numpy as np

import ccrlab  # noqa: F401  (imports every submodule below)

pair_builder = importlib.import_module("ccrlab.pair_builder")
matrix_core = importlib.import_module("ccrlab.matrix_core")
commutator_lab = importlib.import_module("ccrlab.commutator_lab")
invariant_sets = importlib.import_module("ccrlab.invariant_sets")
# ``ccrlab.uncertainty`` is rebound to the function of that name by the
# package, so the module is taken from the import system.
uncertainty = importlib.import_module("ccrlab.uncertainty")
clock = importlib.import_module("ccrlab.clock")
cli = importlib.import_module("ccrlab.cli")

HBAR = 1.0
SUBSPACE_TOL = 1e-8      # sine of the largest principal angle
ROUND_TRIP_TOL = 1e-9    # relative Frobenius residual of a factorization
SLOPE_TOL = 1e-3         # |d<T>/dtau - 1| on a clock trace
CHILD_TIMEOUT_S = 120.0

# Problem sizes: N for the library workloads, N of the CLI's large build.
SIZES = {"full": (256, 128), "tiny": (32, 8)}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def integer_levels(rng, count: int):
    """Distinct integer levels (as floats) and the exact gcd of their differences."""
    step = int(rng.integers(1, 4))
    ints = step * (int(rng.integers(-count, count)) + np.cumsum(rng.integers(1, 4, size=count)))
    return ints.astype(float), reduce(math.gcd, np.diff(ints).tolist(), 0)


def real_levels(rng, count: int) -> np.ndarray:
    """Distinct real levels with gaps uniform in [0.5, 1.5]: incommensurate."""
    return float(rng.uniform(-count, count)) + np.cumsum(rng.uniform(0.5, 1.5, size=count))


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def random_state(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def ccr_domain_problems(basis: np.ndarray, multiplicities) -> list[str]:
    """Closed-form oracle for a default-parameter pair.

    With default parameters [A, B] = -i*hbar*(W - W_block), where
    W_kl = 1/sqrt(M_k M_l) and W_block keeps W's intra-level blocks, so the
    i*hbar eigenspace is the set of level-constant vectors orthogonal to the
    all-ones vector (for a nondegenerate B: the complement of all-ones).
    Residual norms are Frobenius norms, an upper bound on the sine of the
    largest principal angle.
    """
    mults = np.asarray(multiplicities, dtype=int)
    n, levels = int(mults.sum()), len(mults)
    if basis.shape != (n, levels - 1):
        return [f"domain shape {basis.shape}, expected {(n, levels - 1)}"]
    problems = []
    gram = basis.conj().T @ basis - np.eye(levels - 1)
    if np.linalg.norm(gram) > SUBSPACE_TOL:
        problems.append(f"domain basis not orthonormal ({np.linalg.norm(gram):.2e})")
    q = np.zeros((n, levels))
    q[np.arange(n), np.repeat(np.arange(levels), mults)] = 1.0
    q /= np.sqrt(mults)
    off_block = np.linalg.norm(basis - q @ (q.T @ basis))
    if off_block > SUBSPACE_TOL:
        problems.append(f"domain leaves the level-constant vectors ({off_block:.2e})")
    on_ones = np.linalg.norm(np.ones(n) @ basis) / math.sqrt(n)
    if on_ones > SUBSPACE_TOL:
        problems.append(f"domain not orthogonal to the all-ones vector ({on_ones:.2e})")
    return problems


def within_problems(basis: np.ndarray, reference: np.ndarray, what: str) -> list[str]:
    """span(basis) must lie in span(reference); both orthonormal."""
    gap = np.linalg.norm(basis - reference @ (reference.conj().T @ basis))
    return [f"{what}: subspace angle sine up to {gap:.2e}"] if gap > SUBSPACE_TOL else []


def round_trip_problems(a, b, c) -> list[str]:
    resid = np.linalg.norm(a @ b - b @ a - c) / np.linalg.norm(c)
    return [f"factorization residual {resid:.2e}"] if resid > ROUND_TRIP_TOL else []


def slope_problems(slope: float) -> list[str]:
    return [f"clock slope {slope!r}, expected 1"] if abs(slope - 1.0) > SLOPE_TOL else []


def floor_problems(products, floor: float = HBAR / 2) -> list[str]:
    """Robertson's bound; a saturated (minimum-uncertainty) state may round just below it."""
    worst = float(np.min(products))
    if worst < floor * (1 - 1e-12):
        return [f"uncertainty product {worst!r} below the floor {floor}"]
    return []


class Workload:
    """One benchmark workload.  Set-up (the constructor) builds the fixed
    inputs; ``inputs(i)`` generates op ``i``'s inputs outside the timed
    region; ``run`` is the timed op; ``check`` lists what is wrong with its
    output (empty when correct)."""

    name = ""
    cycle = 1   # ops in one round of the op mix; a measured phase ends on a round boundary

    def inputs(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that ran the ops, in KiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- solve-large --------------------------------------------------------------

# One round of the op mix: (degenerate?, integer levels?).  Half the spectra
# are integers (commensurate: the lattice path of real_gcd), half are reals
# (incommensurate: real_gcd runs to exhaustion); one op in four is degenerate.
SOLVE_MIX = ((False, True), (False, False), (False, True), (True, False),
             (False, False), (False, True), (False, False), (True, True))
DEGENERATE_MULTIPLICITY = 4


@dataclass
class SolveInput:
    spec: object
    integer: bool
    gcd: int
    coeff: np.ndarray
    b_values: np.ndarray


@dataclass
class SolveOutput:
    sol: object
    report: object
    iset: object
    audit: object
    commutator: np.ndarray
    a: np.ndarray
    b: np.ndarray


class SolveLarge(Workload):
    name = "solve-large"
    cycle = len(SOLVE_MIX)

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n = SIZES[size][0]

    def inputs(self, i: int) -> SolveInput:
        degenerate, integer = SOLVE_MIX[i % self.cycle]
        rng = _rng(self.seed, 1, i)
        mult = DEGENERATE_MULTIPLICITY if degenerate else 1
        levels = self.n // mult
        if integer:
            values, gcd = integer_levels(rng, levels)
        else:
            values, gcd = real_levels(rng, levels), 0
        spec = pair_builder.SpectrumSpec(tuple(values), (mult,) * levels)
        return SolveInput(spec, integer, gcd, random_state(rng, levels - 1),
                          real_levels(rng, self.n))

    def run(self, inp: SolveInput) -> SolveOutput:
        if inp.spec.is_nondegenerate:
            sol = pair_builder.build_nondegenerate(inp.spec)
        else:
            sol = pair_builder.build_degenerate(inp.spec)
        report = commutator_lab.classify(sol.A, sol.B)
        iset = invariant_sets.invariant_set(sol, sol.B)
        audit = uncertainty.audit_pair(sol, unit(sol.domain.basis @ inp.coeff))
        c = matrix_core.commutator(sol.A, sol.B)
        a, b = commutator_lab.factorize(c, inp.b_values)
        return SolveOutput(sol, report, iset, audit, c, a, b)

    def check(self, inp: SolveInput, out: SolveOutput) -> list[str]:
        levels = inp.spec.levels
        domain = out.sol.domain.basis
        problems = ccr_domain_problems(domain, inp.spec.multiplicities)
        by_c = {complex(r.c): r for r in out.report.relations}
        canonical = [r for c, r in by_c.items() if abs(c - 1j * HBAR) <= 1e-8]
        if len(canonical) != 1 or canonical[0].domain.dim != domain.shape[1]:
            problems.append("classify: no i*hbar relation with the built domain's dimension")
        else:
            problems += within_problems(canonical[0].domain.basis, domain, "classify domain")
        top = -1j * (levels - 1) * HBAR
        if not any(abs(c - top) <= 1e-8 * levels and r.domain.dim == 1 for c, r in by_c.items()):
            problems.append(f"classify: no one-dimensional relation at c = {top}")
        kind = out.iset.kind.value
        if inp.integer:
            g = out.iset.generator_gcd
            if kind != "lattice" or g is None or abs(g - inp.gcd) > 1e-9 * inp.gcd:
                problems.append(f"invariant set {kind} gcd {g}, expected lattice gcd {inp.gcd}")
        elif kind != "zero_only":
            problems.append(f"invariant set {kind}, expected zero_only")
        if out.audit.floor != HBAR / 2:
            problems.append(f"audit floor {out.audit.floor!r}")
        problems += floor_problems([out.audit.product])
        return problems + round_trip_problems(out.a, out.b, out.commutator)


# --- clock-sweep --------------------------------------------------------------

CLOCK_SAMPLES = 101
CLOCK_WINDOW = 0.05      # half-width of the tau window in units of hbar/||H||
CLOCK_MAX_INDEX = 50     # lattice points n*period with |n| <= this


@dataclass
class ClockInput:
    index: int
    phi: np.ndarray
    psi: np.ndarray
    t: float


@dataclass
class ClockOutput:
    trace: object
    fit: object
    member: bool
    k_psi: np.ndarray


class ClockSweep(Workload):
    name = "clock-sweep"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        levels, _ = integer_levels(_rng(seed, 0), SIZES[size][0])
        self.sol = pair_builder.build_nondegenerate(pair_builder.SpectrumSpec.nondegenerate(levels))
        self.cfg = clock.clock_from_solution(self.sol)
        iset = invariant_sets.invariant_set(self.sol, self.cfg.H)
        if iset.kind is not invariant_sets.InvariantKind.LATTICE:
            raise RuntimeError(f"clock-sweep set-up: invariant set is {iset.kind}, not a lattice")
        self.period = iset.period
        window = CLOCK_WINDOW * HBAR / self.cfg.h_norm
        self.tau = np.linspace(-window, window, CLOCK_SAMPLES)
        # B is diagonal, so U(t) = diag(exp(-i*E*t/hbar)) is the oracle's propagator.
        self.energies = np.diag(self.cfg.H).real.copy()

    def inputs(self, i: int) -> ClockInput:
        rng = _rng(self.seed, 1, i)
        return ClockInput(int(rng.integers(-CLOCK_MAX_INDEX, CLOCK_MAX_INDEX + 1)),
                          unit(self.sol.domain.basis @ random_state(rng, self.sol.domain.dim)),
                          unit(random_state(rng, self.sol.dim)),
                          float(rng.uniform(0.0, self.period)))

    def run(self, inp: ClockInput) -> ClockOutput:
        trace = clock.clock_trace(self.cfg, inp.phi, inp.index * self.period, self.tau)
        fit = clock.linearity_fit(trace)
        member, _ = invariant_sets.check_membership(self.sol, self.cfg.H,
                                                    (inp.index + 0.5) * self.period)
        k_psi = clock.commuting_factor(self.cfg, inp.t, inp.psi)
        return ClockOutput(trace, fit, member, k_psi)

    def check(self, inp: ClockInput, out: ClockOutput) -> list[str]:
        problems = slope_problems(out.fit.slope) + floor_problems(out.trace.uncertainty_product)
        if out.member:
            problems.append("check_membership accepted a half-period point")
        # Weak Weyl relation T U(t) psi = U(t) (T + K(t)) psi.
        u = np.exp(-1j * self.energies * inp.t / HBAR)
        t_op = self.cfg.T
        lhs = t_op @ (u * inp.psi)
        err = np.linalg.norm(lhs - u * (t_op @ inp.psi + out.k_psi))
        if err > 1e-8 * max(np.linalg.norm(lhs), 1.0):
            problems.append(f"T U psi != U (T + K) psi (error {err:.2e})")
        return problems


# --- cli-session --------------------------------------------------------------

def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _matrix(obj) -> np.ndarray:
    entries = np.asarray(obj["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(obj["dim"], obj["dim"])


def _vectors(vectors, dim: int) -> np.ndarray:
    if not vectors:
        return np.zeros((dim, 0), dtype=complex)
    v = np.asarray(vectors, dtype=float)
    return (v[..., 0] + 1j * v[..., 1]).T


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# Commutator eigenvalues the 3D catalog must report for each family with
# its default parameters (nondeg-1b: |beta|^2 = 3 * 0.8^2).
_ROOT_1B = math.sqrt(4 * 3 * 0.8 ** 2 - 3)
CATALOG_C = {
    "nondeg-1a": (1j, -2j),
    "nondeg-1b": (1j, -0.5j * (1 + _ROOT_1B), -0.5j * (1 - _ROOT_1B)),
    "nondeg-2a": (1j, -1j, 0j),
    "nondeg-2b": (1j, -1j, 0j),
    "nondeg-2c": (1j, -1j, 0j),
    "degen": (1j, -1j, 0j),
}


@dataclass
class Step:
    name: str
    argv: list
    exit_code: int
    check: object   # (stdout, stderr) -> list[str]


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


class CliSession(Workload):
    """A fixed script of ``ccrlab`` commands, one child process per op.

    With ``in_process`` set, each command runs as ``ccrlab.cli.main(argv)``
    in this process instead, which is how the traced run sees the CLI's
    layers."""

    name = "cli-session"

    def __init__(self, seed: int, size: str = "full", workdir_parent: str = "."):
        self.in_process = False
        n = SIZES[size][1]
        rng = _rng(seed, 0)
        self.levels, self.gcd = integer_levels(rng, n)
        self.n = n
        self.workdir = tempfile.mkdtemp(prefix="cli-session-", dir=workdir_parent)
        self.env = dict(os.environ)
        self.child_peak_kb = 0
        self.commutator = None   # [A, B] of the last build, the factorize step's input
        self.steps = self._script(rng)
        self.cycle = len(self.steps)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _script(self, rng) -> list[Step]:
        sol = self.path("sol.json")
        window = CLOCK_WINDOW * HBAR / float(np.max(np.abs(self.levels)))
        steps = [
            Step("build", ["build", f"--levels={_csv(self.levels)}", "--out", sol], 0,
                 self._check_build),
            Step("build-3", ["build", "--levels", "0,1,3", "--out", "-"], 0, self._check_build_3),
            Step("invariant-set", ["invariant-set", "--solution", sol], 0, self._check_invariant),
            Step("audit", ["audit", "--solution", sol, "--seed", str(int(rng.integers(1 << 16)))],
                 0, self._check_audit),
            Step("clock", ["clock", "--solution", sol, "--samples", "21", "--window", repr(window),
                           f"--base-index={int(rng.integers(-CLOCK_MAX_INDEX, CLOCK_MAX_INDEX))}",
                           "--seed", str(int(rng.integers(1 << 16)))], 0, self._check_clock),
            Step("classify", ["classify", "--a", self.path("A.json"), "--b", self.path("B.json")],
                 0, self._check_classify),
            Step("factorize", ["factorize", "--c", self.path("C.json"),
                               f"--b-values={_csv(real_levels(rng, self.n))}",
                               "--out-a", self.path("FA.json"), "--out-b", self.path("FB.json")],
                 0, self._check_factorize),
        ]
        for family in pair_builder.CATALOG_FAMILIES:
            steps.append(Step(f"catalog-3d:{family}", ["catalog-3d", "--family", family], 0,
                              lambda out, err, f=family: self._check_catalog(f, out)))
        steps.append(Step("build-purely-degenerate", ["build", "--levels", "0", "--mults", "3"], 2,
                          lambda out, err: [] if "error:" in err else ["no error message"]))
        return steps

    def inputs(self, i: int) -> Step:
        if i % self.cycle == 0:   # a new session starts from an empty directory
            for name in os.listdir(self.workdir):
                os.remove(self.path(name))
        return self.steps[i % self.cycle]

    def run(self, step: Step) -> CliOutput:
        if self.in_process:
            return self._run_in_process(step.argv)
        out_path, err_path = self.path("stdout.txt"), self.path("stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child = subprocess.Popen([sys.executable, "-m", "ccrlab.cli", *step.argv],
                                     cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                     stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            child.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8") as out, open(err_path, encoding="utf-8") as err:
            return CliOutput(child.returncode, out.read(), err.read())

    @staticmethod
    def _run_in_process(argv) -> CliOutput:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:   # argparse rejects an argument
                code = exc.code
        return CliOutput(code, out.getvalue(), err.getvalue())

    def check(self, step: Step, out: CliOutput) -> list[str]:
        if out.code != step.exit_code:
            return [f"{step.name}: exit code {out.code}, expected {step.exit_code}: "
                    f"{out.stderr.strip()[-200:]}"]
        try:
            return [f"{step.name}: {p}" for p in step.check(out.stdout, out.stderr)]
        except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
            return [f"{step.name}: unreadable output ({type(exc).__name__}: {exc})"]

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def peak_rss_kb(self) -> int:
        """Peak resident memory over the command processes, in KiB."""
        return self.child_peak_kb

    # The oracles below read what the commands printed or wrote.

    def _check_build(self, stdout, stderr) -> list[str]:
        if f"domain dim = {self.n - 1}" not in stdout:
            return [f"summary {stdout.strip()!r}"]
        with open(self.path("sol.json"), encoding="utf-8") as fh:
            obj = json.load(fh)
        a, b = _matrix(obj["A"]), _matrix(obj["B"])
        problems = ccr_domain_problems(_vectors(obj["domain_basis"], self.n), [1] * self.n)
        # Inputs of the later classify and factorize steps.
        c = self.commutator = a @ b - b @ a
        c_obj = {"dim": self.n, "entries": np.stack([c.real, c.imag], -1).reshape(-1, 2).tolist()}
        for name, m in (("A.json", obj["A"]), ("B.json", obj["B"]), ("C.json", c_obj)):
            with open(self.path(name), "w", encoding="utf-8") as fh:
                json.dump(m, fh)
        return problems

    @staticmethod
    def _check_build_3(stdout, stderr) -> list[str]:
        obj = json.loads(stdout)
        problems = [] if _c(obj["c"]) == 1j * HBAR else [f"c = {obj['c']}"]
        return problems + ccr_domain_problems(_vectors(obj["domain_basis"], 3), [1, 1, 1])

    def _check_invariant(self, stdout, stderr) -> list[str]:
        obj = json.loads(stdout)
        g = obj["generator_gcd"]
        if obj["kind"] != "lattice" or g is None or abs(g - self.gcd) > 1e-9 * self.gcd:
            return [f"{obj['kind']} gcd {g}, expected lattice gcd {self.gcd}"]
        return []

    @staticmethod
    def _check_audit(stdout, stderr) -> list[str]:
        obj = json.loads(stdout)
        if obj["floor"] != HBAR / 2:
            return [f"floor {obj['floor']!r}"]
        return floor_problems([obj["product"]])

    def _check_clock(self, stdout, stderr) -> list[str]:
        rows = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (21, 5):
            return [f"csv shape {rows.shape}"]
        return slope_problems(np.polyfit(rows[:, 0], rows[:, 1], 1)[0]) + floor_problems(rows[:, 4])

    def _check_classify(self, stdout, stderr) -> list[str]:
        relations = {_c(r["c"]): r for r in json.loads(stdout)["relations"]}
        problems = []
        canonical = next((r for c, r in relations.items() if abs(c - 1j * HBAR) <= 1e-8), None)
        if canonical is None:
            problems.append("no i*hbar relation")
        else:
            problems += ccr_domain_problems(_vectors(canonical["domain_basis"], self.n),
                                            [1] * self.n)
        top = -1j * (self.n - 1) * HBAR
        if not any(abs(c - top) <= 1e-8 * self.n and r["dim"] == 1 for c, r in relations.items()):
            problems.append(f"no one-dimensional relation at c = {top}")
        return problems

    def _check_factorize(self, stdout, stderr) -> list[str]:
        c = self.commutator
        reported = float(stdout.strip().split("=")[1])
        problems = [] if reported <= ROUND_TRIP_TOL * np.linalg.norm(c) else [
            f"reported residual {reported!r}"]
        factors = []
        for name in ("FA.json", "FB.json"):
            with open(self.path(name), encoding="utf-8") as fh:
                factors.append(_matrix(json.load(fh)))
        return problems + round_trip_problems(*factors, c)

    @staticmethod
    def _check_catalog(family: str, stdout: str) -> list[str]:
        entries = json.loads(stdout)
        got = [_c(e["c"]) for e in entries]
        want = CATALOG_C[family]
        if len(got) != len(want) or any(abs(g - w) > 1e-9 for g, w in zip(got, want)):
            return [f"c values {got}, expected {list(want)}"]
        problems = []
        for e in entries:
            if e["essentially_canonical"] != (_c(e["c"]) != 0) or not e["solution"]["domain_basis"]:
                problems.append(f"entry at c = {e['c']} is malformed")
        return problems


WORKLOADS = {w.name: w for w in (SolveLarge, ClockSweep, CliSession)}


def make(name: str, seed: int, size: str = "full", workdir_parent: str = ".") -> Workload:
    if name == CliSession.name:
        return CliSession(seed, size, workdir_parent)
    return WORKLOADS[name](seed, size)

