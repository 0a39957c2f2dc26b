"""JSON serialization of matrices, states and solutions.

Complex numbers are stored as [re, im] pairs.  json round-trips Python
floats through repr, which is lossless, so write -> read reproduces every
matrix bit-exactly.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import numpy as np

from .errors import CcrError, DimensionMismatch
from .matrix_core import Subspace, as_matrix
from .pair_builder import CanonicalSolution


class SerializationError(CcrError):
    pass


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def matrix_to_obj(m, metadata: Optional[dict] = None) -> dict:
    m = as_matrix(m)
    out = {"dim": int(m.shape[0]),
           "entries": [_pair(z) for z in m.reshape(-1)]}
    if metadata:
        out["metadata"] = dict(metadata)
    return out


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
        if len(entries) != dim * dim:
            raise DimensionMismatch(f"expected {dim * dim} entries, got {len(entries)}")
        flat = np.array([complex(re, im) for re, im in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed matrix object: {exc}") from exc
    return flat.reshape(dim, dim)


def vector_to_obj(v) -> list[list[float]]:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [_pair(z) for z in v]


def vector_from_obj(obj) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in obj])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed vector: {exc}") from exc


def solution_to_obj(sol: CanonicalSolution) -> dict:
    return {
        "A": matrix_to_obj(sol.A),
        "B": matrix_to_obj(sol.B),
        "c": _pair(sol.c),
        "domain_basis": [vector_to_obj(sol.domain.basis[:, k])
                         for k in range(sol.domain.dim)],
        "provenance": sol.provenance,
        "hbar": float(sol.hbar),
    }


def solution_from_obj(obj: dict) -> CanonicalSolution:
    try:
        a = matrix_from_obj(obj["A"])
        b = matrix_from_obj(obj["B"])
        c = complex(obj["c"][0], obj["c"][1])
        basis = np.column_stack([vector_from_obj(v) for v in obj["domain_basis"]]) \
            if obj["domain_basis"] else np.zeros((a.shape[0], 0), dtype=complex)
        return CanonicalSolution(a, b, c, Subspace(basis),
                                 str(obj.get("provenance", "loaded")),
                                 float(obj.get("hbar", 1.0)))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SerializationError(f"malformed solution object: {exc}") from exc


def dump(obj, path) -> None:
    text = json.dumps(obj, indent=1)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def load(path) -> dict:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
