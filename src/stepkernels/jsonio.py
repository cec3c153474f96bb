"""JSON schemas for the shared value types, canonical serialization, hashing.

Documents embed a decoration space inline or reference one by string id,
resolved against a registry mapping ids to space documents.  Canonical
output is UTF-8 with sorted keys, so identical inputs give byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .kernels import CbGraph, RealStepKernel, StepKernel
from .measures import DecorationSpace, SignedMeasure, TestFamily
from .quotients import Quotient, QuotientCloud

__all__ = [
    "SchemaError",
    "load_document",
    "space_from_json",
    "space_to_json",
    "measure_from_json",
    "family_from_json",
    "kernel_from_json",
    "kernel_to_json",
    "real_kernel_from_json",
    "cb_graph_from_json",
    "cb_graph_to_json",
    "cloud_from_json",
    "cloud_to_json",
    "canonical_dumps",
    "write_canonical",
    "file_sha256",
]


class SchemaError(ValueError):
    """Malformed document; the message points at the offending key."""


def _need(doc: dict, key: str, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{where}: missing required key {key!r}")
    return doc[key]


def load_document(path) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _resolve_space(ref, registry: Optional[dict], where: str) -> DecorationSpace:
    if isinstance(ref, str):
        if not registry or ref not in registry:
            raise SchemaError(f"{where}.space: unknown space id {ref!r}")
        ref = registry[ref]
    return space_from_json(ref, where=f"{where}.space")


def space_from_json(doc, where: str = "space") -> DecorationSpace:
    points = _need(doc, "points", where)
    dist = _need(doc, "dist", where)
    try:
        return DecorationSpace(tuple(points), dist)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def space_to_json(space: DecorationSpace) -> dict:
    return {"points": list(space.points), "dist": space.dist.tolist()}


def measure_from_json(doc, registry=None, where: str = "measure") -> SignedMeasure:
    space = _resolve_space(_need(doc, "space", where), registry, where)
    weights = _need(doc, "weights", where)
    try:
        return SignedMeasure(space, weights)
    except ValueError as exc:
        raise SchemaError(f"{where}.weights: {exc}") from exc


def family_from_json(doc, registry=None, where: str = "family") -> TestFamily:
    space = _resolve_space(_need(doc, "space", where), registry, where)
    functions = _need(doc, "functions", where)
    try:
        return TestFamily(space, functions)
    except ValueError as exc:
        raise SchemaError(f"{where}.functions: {exc}") from exc


def kernel_from_json(doc, registry=None, where: str = "kernel") -> StepKernel:
    space = _resolve_space(_need(doc, "space", where), registry, where)
    part_sizes = _need(doc, "part_sizes", where)
    entries = _need(doc, "entries", where)
    try:
        return StepKernel(space, part_sizes, entries)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def kernel_to_json(kernel: StepKernel) -> dict:
    return {
        "space": space_to_json(kernel.space),
        "part_sizes": kernel.part_sizes.tolist(),
        "entries": kernel.entries.tolist(),
        "kind": kernel.kind,
    }


def real_kernel_from_json(doc, where: str = "real_kernel") -> RealStepKernel:
    part_sizes = _need(doc, "part_sizes", where)
    values = _need(doc, "values", where)
    try:
        return RealStepKernel(part_sizes, values)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def cb_graph_from_json(doc, registry=None, where: str = "graph") -> CbGraph:
    space = _resolve_space(_need(doc, "space", where), registry, where)
    k = _need(doc, "k", where)
    beta_list = _need(doc, "beta", where)
    alpha = doc.get("alpha")
    beta = np.zeros((k, k, space.size))
    for idx, item in enumerate(beta_list):
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise SchemaError(f"{where}.beta[{idx}]: expected [i, j, function-vector]")
        i, j, f = item
        f = np.asarray(f, dtype=float)
        if not (0 <= i < k and 0 <= j < k):
            raise SchemaError(f"{where}.beta[{idx}]: vertex index out of range")
        if f.shape != (space.size,):
            raise SchemaError(
                f"{where}.beta[{idx}]: function vector must have length {space.size}"
            )
        beta[i, j] = f
    try:
        return CbGraph(space, beta, alpha)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def cb_graph_to_json(graph: CbGraph) -> dict:
    beta = [
        [int(i), int(j), graph.beta[i, j].tolist()]
        for i in range(graph.n_vertices)
        for j in range(graph.n_vertices)
        if np.abs(graph.beta[i, j]).max() > 0
    ]
    return {
        "space": space_to_json(graph.space),
        "k": graph.n_vertices,
        "alpha": graph.alpha.tolist(),
        "beta": beta,
    }


def cloud_from_json(doc, registry=None, where: str = "cloud") -> QuotientCloud:
    space = _resolve_space(_need(doc, "space", where), registry, where)
    k = _need(doc, "k", where)
    quots = _need(doc, "quotients", where)
    members = []
    for idx, item in enumerate(quots):
        alpha = _need(item, "alpha", f"{where}.quotients[{idx}]")
        beta = _need(item, "beta", f"{where}.quotients[{idx}]")
        try:
            members.append(Quotient(space, alpha, beta))
        except ValueError as exc:
            raise SchemaError(f"{where}.quotients[{idx}]: {exc}") from exc
    try:
        return QuotientCloud(space, int(k), tuple(members), doc.get("provenance", {}))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def cloud_to_json(cloud: QuotientCloud) -> dict:
    return cloud.to_jsonable()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_dumps(doc) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_canonical(path, doc) -> None:
    Path(path).write_text(canonical_dumps(doc), encoding="utf-8")


def file_sha256(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
