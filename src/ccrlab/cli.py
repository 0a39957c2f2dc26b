"""Command-line front end.

Matrices and solutions travel as JSON (complex entries as [re, im]
pairs), clock traces as CSV.  Exit codes: 0 success, 1 I/O, parse or
malformed-input failure (e.g. levels not increasing), 2 constraint
violation, 3 commuting pair, 4 invariant-set violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import serialize
from .clock import clock_from_solution, clock_trace, linearity_fit
from .commutator_lab import classify, factorize
from .config import tolerances_from_env
from .errors import BasePointNotInvariant, CcrError, CommutingPair
from .invariant_sets import GcdConfig, InvariantKind, invariant_set
from .pair_builder import (
    PairParams,
    SpectrumSpec,
    build_degenerate,
    build_nondegenerate,
    catalog_3d,
    default_catalog_params,
)
from .uncertainty import audit_pair

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONSTRAINT = 2
EXIT_COMMUTING = 3
EXIT_INVARIANT = 4


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip() != ""]


def _json_arg(text: str):
    """Inline JSON if the value looks like a literal, else a file path."""
    text = text.strip()
    if text.startswith(("[", "{")):
        return json.loads(text)
    return serialize.load(text)


def _matrix_arg(text: str) -> np.ndarray:
    obj = _json_arg(text)
    if isinstance(obj, dict):
        return serialize.matrix_from_obj(obj)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    return arr.astype(complex)


def _vector_arg(text: str) -> np.ndarray:
    obj = _json_arg(text)
    try:
        arr = np.asarray(obj["amplitudes"] if isinstance(obj, dict) else obj, dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise serialize.SerializationError(f"malformed state: {exc!r}") from exc
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    return arr.astype(complex).reshape(-1)


def cmd_build(args, tol) -> int:
    values = _floats(args.levels)
    mults = [int(m) for m in _floats(args.mults)] if args.mults else [1] * len(values)
    spec = SpectrumSpec(tuple(values), tuple(mults))
    params = PairParams(
        alpha=_matrix_arg(args.alpha).real if args.alpha else None,
        beta=_matrix_arg(args.beta) if args.beta else None,
        diag_a=np.asarray(_floats(args.diag_a)) if args.diag_a else None,
        block_b=_matrix_arg(args.block_b) if args.block_b else None,
        hbar=args.hbar,
    )
    builder = build_nondegenerate if spec.is_nondegenerate else build_degenerate
    sol = builder(spec, params, tol)
    serialize.dump(serialize.solution_to_obj(sol), args.out)
    summary = (f"c = {sol.c}, domain dim = {sol.domain.dim}, "
               f"residual = {sol.residual():.3e}")
    print(summary, file=sys.stderr if args.out == "-" else sys.stdout)
    return EXIT_OK


def cmd_classify(args, tol) -> int:
    if args.a == "-" and args.b == "-":
        raise ValueError("only one of --a/--b may read from stdin")
    a = _matrix_arg(args.a)
    b = _matrix_arg(args.b)
    report = classify(a, b, tol)
    out = {
        "trace_residual": report.trace_residual,
        "relations": [
            {
                "c": [r.c.real, r.c.imag],
                "dim": r.domain.dim,
                "essentially_canonical": r.essentially_canonical,
                "domain_basis": [serialize.vector_to_obj(r.domain.basis[:, k])
                                 for k in range(r.domain.dim)],
            }
            for r in report.relations
        ],
    }
    serialize.dump(out, "-")
    return EXIT_OK


def cmd_factorize(args, tol) -> int:
    c = _matrix_arg(args.c)
    n = c.shape[0]
    b_values = np.asarray(_floats(args.b_values)) if args.b_values \
        else np.arange(n, dtype=float)
    a_values = np.asarray(_floats(args.a_values)) if args.a_values else None
    a, b = factorize(c, b_values, a_values, tol)
    serialize.dump(serialize.matrix_to_obj(a), args.out_a)
    serialize.dump(serialize.matrix_to_obj(b), args.out_b)
    residual = float(np.linalg.norm(a @ b - b @ a - c, "fro"))
    print(f"residual = {residual:.3e}")
    return EXIT_OK


def cmd_invariant_set(args, tol) -> int:
    sol = serialize.solution_from_obj(serialize.load(args.solution))
    h = _matrix_arg(args.h) if args.h else sol.B
    cfg = GcdConfig(max_denominator=args.max_denominator)
    iset = invariant_set(sol, h, cfg, tol)
    out = {
        "kind": iset.kind.value,
        "period": iset.period,
        "generator_gcd": iset.generator_gcd,
        "excluded_levels": sorted(iset.excluded_levels),
    }
    serialize.dump(out, "-")
    return EXIT_OK


def _domain_state(domain, args) -> np.ndarray:
    if getattr(args, "state", None):
        return _vector_arg(args.state)
    rng = np.random.default_rng(args.seed)
    coeff = rng.normal(size=domain.dim) + 1j * rng.normal(size=domain.dim)
    v = domain.basis @ coeff
    return v / np.linalg.norm(v)


def cmd_audit(args, tol) -> int:
    sol = serialize.solution_from_obj(serialize.load(args.solution))
    phi = _domain_state(sol.domain, args)
    report = audit_pair(sol, phi, tol)
    out = {
        "delta_A": report.delta_A,
        "delta_B": report.delta_B,
        "product": report.product,
        "floor": report.floor,
        "saturated": report.saturated,
        "gamma": report.gamma,
        "gamma_residual": report.gamma_residual,
    }
    serialize.dump(out, "-")
    return EXIT_OK


def cmd_clock(args, tol) -> int:
    sol = serialize.solution_from_obj(serialize.load(args.solution))
    cfg = clock_from_solution(sol, sign=args.sign, tol=tol)
    # the clock's own relation: [T, H] = sign*i*hbar on the clock's domain
    relation = replace(sol, c=cfg.sign * 1j * sol.hbar, domain=cfg.domain)
    iset = invariant_set(relation, cfg.H, GcdConfig(), tol)
    n = args.base_index
    if iset.kind is InvariantKind.ZERO_ONLY:
        if n != 0:
            raise BasePointNotInvariant(
                "the invariant set is {0}; only --base-index 0 is allowed")
        base = 0.0
    elif iset.kind is InvariantKind.LATTICE:
        base = n * iset.period
    else:
        base = float(n)
    phi = _domain_state(cfg.domain, args)
    tau = np.linspace(-args.window, args.window, args.samples)
    trace = clock_trace(cfg, phi, base, tau)
    fit = linearity_fit(trace)
    lines = ["tau,expectation,delta_T,delta_H,product"]
    for k in range(len(tau)):
        lines.append(",".join(repr(float(x)) for x in (
            trace.tau_grid[k], trace.expectation[k], trace.delta_T[k],
            trace.delta_H[k], trace.uncertainty_product[k])))
    text = "\n".join(lines) + "\n"
    if args.csv == "-":
        sys.stdout.write(text)
    else:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    print(f"slope = {fit.slope:+.3f}, t0 = {trace.t0!r}, "
          f"max residual = {fit.max_residual:.3e}",
          file=sys.stderr if args.csv == "-" else sys.stdout)
    return EXIT_OK


def cmd_catalog_3d(args, tol) -> int:
    params = replace(default_catalog_params(args.family), hbar=args.hbar)
    if args.b_values:
        params = replace(params, b_values=tuple(_floats(args.b_values)))
    relations = catalog_3d(args.family, params, tol)
    out = [
        {
            "c": [r.c.real, r.c.imag],
            "essentially_canonical": r.essentially_canonical,
            "solution": serialize.solution_to_obj(r),
        }
        for r in relations
    ]
    serialize.dump(out, args.out)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ccrlab")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a canonical pair from a target spectrum")
    b.add_argument("--levels", required=True, help="comma-separated distinct eigenvalues of B")
    b.add_argument("--mults", help="comma-separated multiplicities (default all 1)")
    b.add_argument("--alpha", help="phase table (JSON matrix or file)")
    b.add_argument("--beta", help="weight table (JSON matrix or file)")
    b.add_argument("--diag-a", dest="diag_a", help="comma-separated diagonal of A")
    b.add_argument("--block-b", dest="block_b", help="intra-level block of A (JSON)")
    b.add_argument("--hbar", type=float, default=1.0)
    b.add_argument("--out", default="-")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("classify", help="list every commutation relation of a pair")
    c.add_argument("--a", required=True, help="matrix file or - for stdin")
    c.add_argument("--b", required=True)
    c.set_defaults(func=cmd_classify)

    f = sub.add_parser("factorize", help="factor a traceless normal matrix as [A, B]")
    f.add_argument("--c", required=True, help="matrix file or - for stdin")
    f.add_argument("--b-values", dest="b_values")
    f.add_argument("--a-values", dest="a_values")
    f.add_argument("--out-a", dest="out_a", default="A.json")
    f.add_argument("--out-b", dest="out_b", default="B.json")
    f.set_defaults(func=cmd_factorize)

    i = sub.add_parser("invariant-set", help="invariant set of a solution under exp(-iHt/hbar)")
    i.add_argument("--solution", required=True)
    i.add_argument("--h", help="generator matrix (default: the solution's B)")
    i.add_argument("--max-denominator", dest="max_denominator", type=int, default=10 ** 6)
    i.set_defaults(func=cmd_invariant_set)

    a = sub.add_parser("audit", help="uncertainty product and saturation on a domain state")
    a.add_argument("--solution", required=True)
    a.add_argument("--state", help="state vector (JSON); default: random domain state")
    a.add_argument("--seed", type=int, default=0)
    a.set_defaults(func=cmd_audit)

    k = sub.add_parser("clock", help="sample a clock trace around an invariant-set point")
    k.add_argument("--solution", required=True)
    k.add_argument("--base-index", dest="base_index", type=int, default=0)
    k.add_argument("--window", type=float, default=0.01)
    k.add_argument("--samples", type=int, default=21)
    k.add_argument("--csv", default="-")
    k.add_argument("--sign", type=int, default=1, choices=(1, -1))
    k.add_argument("--state", help="state vector (JSON); default: random domain state")
    k.add_argument("--seed", type=int, default=0)
    k.set_defaults(func=cmd_clock)

    g = sub.add_parser("catalog-3d", help="instantiate a three-dimensional solution family")
    g.add_argument("--family", required=True,
                   choices=("nondeg-1a", "nondeg-1b", "nondeg-2a",
                            "nondeg-2b", "nondeg-2c", "degen"))
    g.add_argument("--b-values", dest="b_values")
    g.add_argument("--hbar", type=float, default=1.0)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_catalog_3d)

    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        tol = tolerances_from_env()
        return args.func(args, tol)
    except CommutingPair as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMMUTING
    except BasePointNotInvariant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except serialize.SerializationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CcrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
