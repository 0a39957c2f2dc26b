"""Span tracing installed from outside the library, for the traced run.

``Tracer.install`` replaces the public functions listed in ``SPANS`` on
every ``ccrlab`` module attribute that holds them (``pair_builder.eigenspace``
as well as ``matrix_core.eigenspace``), so nested library calls form parent
and child spans.  Spans (name, start, end, parent, op id) are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the durations of its child spans.  Wrappers record only
while an op is open, so set-up and output checks leave no spans.

Nothing in the library waits on a queue, a lock or another thread, so no
wait time is recorded.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

# Layer span name -> (module, functions recorded under that name).
SPANS = {
    "pair_builder.build": ("pair_builder", ("build_nondegenerate", "build_degenerate")),
    "pair_builder.catalog_3d": ("pair_builder", ("catalog_3d",)),
    "matrix_core.certify": ("matrix_core", ("require_hermitian", "require_normal",
                                            "require_normalized")),
    "matrix_core.commutator": ("matrix_core", ("commutator",)),
    "matrix_core.eigenspace": ("matrix_core", ("eigenspace",)),
    "matrix_core.eigh": ("matrix_core", ("eigh",)),
    "matrix_core.evolve": ("matrix_core", ("evolve",)),
    "commutator_lab.classify": ("commutator_lab", ("classify",)),
    "commutator_lab.factorize": ("commutator_lab", ("factorize",)),
    "invariant_sets.invariant_set": ("invariant_sets", ("invariant_set",)),
    "invariant_sets.real_gcd": ("invariant_sets", ("real_gcd",)),
    "invariant_sets.check_membership": ("invariant_sets", ("check_membership",)),
    "uncertainty.uncertainty": ("uncertainty", ("uncertainty",)),
    "uncertainty.audit_pair": ("uncertainty", ("audit_pair",)),
    "clock.clock_trace": ("clock", ("clock_trace",)),
    "clock.heisenberg_T": ("clock", ("heisenberg_T",)),
    "clock.commuting_factor": ("clock", ("commuting_factor",)),
    "serialize.encode": ("serialize", ("dump", "solution_to_obj", "matrix_to_obj",
                                       "vector_to_obj")),
    "serialize.decode": ("serialize", ("load", "solution_from_obj", "matrix_from_obj",
                                       "vector_from_obj")),
    "cli.main": ("cli", ("main",)),
}
OP_SPAN = "op"   # the root span of each op; its self time is benchmark glue

# Decompositions counted for decomps_per_matrix: eigh and the Schur form.
DECOMPOSITIONS = (("matrix_core", "eigh"), ("matrix_core", "normal_eig"))

NOTES = (
    "Per-layer values are per op of the traced phase (unit */op).",
    "No wait time is recorded: nothing in ccrlab waits on a queue, a lock or another thread.",
    "matrix_core.certify holds require_hermitian/_normal/_normalized, so the normality "
    "check of eigenspace counts there; eigenspace self time is the Schur form and selection.",
    "matrix_core.distinct_matrices counts distinct decomposed inputs per op, by a sampled "
    "fingerprint of the matrix entries.",
    "serialize.encode/decode also hold the json.dump/json.loads calls of ccrlab.cli.",
)


def _module(name: str):
    return importlib.import_module(f"ccrlab.{name}")


def _fingerprint(m) -> bytes:
    a = np.ascontiguousarray(m)
    flat = a.reshape(-1)
    if flat.size > 4096:
        flat = flat[:: flat.size // 4096]
    return hashlib.blake2b(flat.tobytes() + repr(a.shape).encode(), digest_size=16).digest()


def _stdout_position():
    try:
        return sys.stdout.tell()
    except (OSError, ValueError, AttributeError):
        return None


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self._stack = []       # indices of open spans
        self._child = []       # child time of each open span
        self.op = None
        self.ops = 0
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._op_matrices = set()
        self._patched = []     # (module, attribute, original)

    # --- spans ---------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_matrices = set()
        self._open(OP_SPAN)

    def end_op(self, failed: bool) -> None:
        self._close(self._stack[-1], failed)
        self.op = None
        self.ops += 1
        self.counts["matrix_core.distinct_matrices"] += len(self._op_matrices)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        self._child.append(0.0)
        return index

    def _close(self, index: int, failed: bool) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        name = span[0]
        self.self_s[name] += duration - self._child.pop()
        self.calls[name] += 1
        self.failed[name] += failed
        if self._child:
            self._child[-1] += duration

    def _wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            index = self._open(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._close(index, failed)
            if after:
                after(token, args, kwargs, result)
            return result
        return traced

    def _counted(self, fn, before):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.op is not None:
                before(args, kwargs)
            return fn(*args, **kwargs)
        return counted

    # --- counters ------------------------------------------------------------

    def _decomposition(self, args, kwargs):
        m = np.asarray(args[0] if args else next(iter(kwargs.values())))
        self.counts["matrix_core.decomps"] += 1
        self.counts["matrix_core.decomp_n3"] += float(m.shape[0]) ** 3
        self._op_matrices.add(_fingerprint(m))

    def _gcd_result(self, token, args, kwargs, result):
        self.counts["invariant_sets.real_gcd.none"] += result is None

    def _clock_samples(self, args, kwargs):
        tau = args[3] if len(args) > 3 else kwargs["tau_grid"]
        self.counts["clock.samples"] += np.size(tau)

    def _dump_before(self, args, kwargs):
        return _stdout_position()

    def _dump_after(self, token, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        if path != "-":
            self.counts["serialize.bytes_out"] += os.path.getsize(path)
        elif token is not None:
            self.counts["serialize.bytes_out"] += _stdout_position() - token

    def _load_before(self, args, kwargs):
        path = args[0] if args else kwargs["path"]
        if path != "-":
            self.counts["serialize.bytes_in"] += os.path.getsize(path)

    def _json_dump_before(self, args, kwargs):
        return args[1].tell()

    def _json_dump_after(self, token, args, kwargs, result):
        self.counts["serialize.bytes_out"] += args[1].tell() - token

    def _json_loads_before(self, args, kwargs):
        self.counts["serialize.bytes_in"] += len(args[0])

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions on every ccrlab module attribute."""
        hooks = {
            ("invariant_sets", "real_gcd"): (None, self._gcd_result),
            ("clock", "clock_trace"): (self._clock_samples, None),
            ("serialize", "dump"): (self._dump_before, self._dump_after),
            ("serialize", "load"): (self._load_before, None),
        }
        replacements = {}
        for name, (module, functions) in SPANS.items():
            for fn_name in functions:
                original = fn = getattr(_module(module), fn_name)
                if (module, fn_name) in DECOMPOSITIONS:
                    fn = self._counted(fn, self._decomposition)
                replacements[id(original)] = self._wrap(
                    name, fn, *hooks.get((module, fn_name), (None, None)))
        for module, fn_name in DECOMPOSITIONS:
            original = getattr(_module(module), fn_name)
            replacements.setdefault(id(original), self._counted(original, self._decomposition))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "ccrlab" or key.startswith("ccrlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._patch(module, attr, replacements[id(value)])
        # The CLI writes and parses some JSON itself; give it a json module
        # whose dump and loads count as serialization.
        cli = _module("cli")
        shim = types.SimpleNamespace(**{k: v for k, v in vars(json).items()
                                        if not k.startswith("__")})
        shim.dump = self._wrap("serialize.encode", json.dump,
                               self._json_dump_before, self._json_dump_after)
        shim.loads = self._wrap("serialize.decode", json.loads, self._json_loads_before)
        self._patch(cli, "json", shim)

    def _patch(self, module, attr: str, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op layer metrics as {name: (value, unit)}."""
        n = max(self.ops, 1)
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name] / n, "calls/op")
            out[f"{name}.self_ms"] = (self.self_s[name] * 1e3 / n, "ms/op")
            out[f"{name}.failed"] = (self.failed[name] / n, "calls/op")
        out["op.other_ms"] = (self.self_s[OP_SPAN] * 1e3 / n, "ms/op")
        c = self.counts
        out["matrix_core.decomps"] = (c["matrix_core.decomps"] / n, "count/op")
        out["matrix_core.distinct_matrices"] = (c["matrix_core.distinct_matrices"] / n, "count/op")
        out["matrix_core.decomps_per_matrix"] = (
            c["matrix_core.decomps"] / max(c["matrix_core.distinct_matrices"], 1), "ratio")
        out["matrix_core.decomp_n3"] = (c["matrix_core.decomp_n3"] / n, "N3/op")
        out["invariant_sets.real_gcd.none_frac"] = (
            c["invariant_sets.real_gcd.none"] / max(self.calls["invariant_sets.real_gcd"], 1),
            "fraction")
        out["clock.samples"] = (c["clock.samples"] / n, "samples/op")
        out["serialize.bytes_out"] = (c["serialize.bytes_out"] / n, "bytes/op")
        out["serialize.bytes_in"] = (c["serialize.bytes_in"] / n, "bytes/op")
        return out

    def dump_spans(self) -> list:
        origin = self.spans[0][1] if self.spans else 0.0
        return [[name, round(start - origin, 9), round(end - origin, 9), parent, op]
                for name, start, end, parent, op in self.spans]
