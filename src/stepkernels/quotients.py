"""Quotient graphs of step kernels, quotient clouds, and Hausdorff comparison.

A quotient averages a kernel over a finite partition, producing a
vertex-weighted graph whose edges are decorated by measures.  The full
quotient set of a kernel is infinite; clouds are finite, provenance-tagged
skeletons built from grid assignments or seeded samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .kernels import StepKernel, uniform_refine
from . import measures
from .measures import DecorationSpace, SignedMeasure, lp_distance_batch, subset_sums
from .overlay import GRID_ORACLE_CAP, OverlapMatrix, _cell_masses
from .search import (
    SearchBudget,
    SearchResult,
    count_assignments,
    every_assignment,
    lp_rectangle_max,
    rectangle_search,
)

__all__ = [
    "DSQUARE_ENUM_MAX",
    "HAUSDORFF_MEMORY_BUDGET",
    "Quotient",
    "QuotientCloud",
    "quotient",
    "d1_quotient",
    "dsquare_quotient",
    "dsquare_quotient_search",
    "quotient_cloud",
    "hausdorff",
    "rebalance_partition",
]

DSQUARE_ENUM_MAX = 12
# Bytes the (members, 4**k, m) subset aggregates of a dsquare Hausdorff
# comparison may take.
HAUSDORFF_MEMORY_BUDGET = 1 << 30
DEGENERATE_TOL = 1e-12
DEDUP_DECIMALS = 9


@dataclass(frozen=True, eq=False)
class Quotient:
    """Vertex weights plus measure-valued edge decorations on [k].

    ``beta[i, j]`` is the average of the source kernel over the (i, j) cell
    rectangle; cells with zero mass carry the zero measure and are marked
    degenerate.
    """

    space: DecorationSpace
    alpha: np.ndarray
    beta: np.ndarray  # (k, k, m)

    def __init__(self, space, alpha, beta):
        a = np.array(alpha, dtype=float)
        b = np.array(beta, dtype=float)
        k = a.size
        if not (a.min() >= -DEGENERATE_TOL and abs(a.sum() - 1.0) <= 1e-9):  # NaN fails
            raise ValueError("vertex weights must be a probability vector")
        a = np.maximum(a, 0.0)
        if b.shape != (k, k, space.size):
            raise ValueError(f"beta must be (k, k, {space.size}), got {b.shape}")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def k(self) -> int:
        return self.alpha.size

    def degenerate(self) -> np.ndarray:
        return self.alpha <= DEGENERATE_TOL

    def scaled(self) -> np.ndarray:
        """Mass-scaled decorations alpha_i alpha_j beta_ij (block integrals)."""
        return _scaled(self.alpha[None], self.beta[None])[0]

    def decoration(self, i: int, j: int) -> SignedMeasure:
        return SignedMeasure(self.space, self.beta[i, j])

    def to_jsonable(self) -> dict:
        return {"alpha": self.alpha.tolist(), "beta": self.beta.tolist()}


def _scaled(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """alpha_i alpha_j beta_ij for stacks alpha (N, k) and beta (N, k, k, m)."""
    return beta * (alpha[:, :, None] * alpha[:, None, :])[..., None]


def _quotient_stack(kernel: StepKernel, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex weights (B, k) and decorations (B, k, k, m) of the quotients of
    ``kernel`` by a stack of overlap matrices ``rho`` (B, p, k).

    Each member's block integrals are two matrix products, over the row
    parts and then over the column parts, so its value does not depend on
    how many members share the stack.
    """
    count, p, k = rho.shape
    m = kernel.space.size
    col = rho.sum(axis=1)
    rows = np.matmul(rho.transpose(0, 2, 1), kernel.entries.reshape(p, p * m))
    rows = rows.reshape(count, k, p, m).transpose(0, 1, 3, 2).reshape(count, k * m, p)
    scaled = np.matmul(rows, rho).reshape(count, k, m, k).transpose(0, 1, 3, 2)
    mass = col[:, :, None] * col[:, None, :]
    safe = np.where(mass > DEGENERATE_TOL, mass, 1.0)
    beta = np.ascontiguousarray(scaled / safe[..., None])
    beta[mass <= DEGENERATE_TOL] = 0.0
    alpha = col / np.maximum(col.sum(axis=1, keepdims=True), 1e-300)
    return np.maximum(alpha, 0.0), beta


def quotient(kernel: StepKernel, partition) -> Quotient:
    """Average the kernel over a partition given as an overlap matrix.

    ``partition`` may be an OverlapMatrix against the kernel's parts or an
    integer assignment vector sending each part wholly to one cell (pass a
    pair ``(assignment, k)`` to fix the cell count).
    """
    if isinstance(partition, OverlapMatrix):
        overlap = partition
    elif isinstance(partition, tuple):
        assignment, k = partition
        overlap = OverlapMatrix.from_assignment(kernel.part_sizes, assignment, k)
    else:
        z = np.asarray(partition, dtype=int)
        overlap = OverlapMatrix.from_assignment(kernel.part_sizes, z, int(z.max()) + 1)
    if overlap.rho.shape[0] != kernel.n_parts:
        raise ValueError("overlap rows do not match the kernel parts")
    if np.abs(overlap.row_sums - kernel.part_sizes).max() > 1e-9:
        raise ValueError("overlap row sums do not match the kernel part sizes")
    alpha, beta = _quotient_stack(kernel, overlap.rho[None])
    return Quotient(kernel.space, alpha[0], beta[0])


def _check_comparable(a: Quotient, b: Quotient) -> None:
    a.space.require_same(b.space)
    if a.k != b.k:
        raise ValueError(f"quotients have different cell counts: {a.k} vs {b.k}")


def _require_nonneg_scaled(q: Quotient, name: str) -> np.ndarray:
    s = q.scaled()
    if s.min() < -1e-12:
        raise ValueError(
            f"{name} has signed decorations; quotient distances use the "
            "Levy-Prokhorov metric and need nonnegative sources"
        )
    return np.maximum(s, 0.0)


def d1_quotient(a: Quotient, b: Quotient) -> float:
    """Vertex-weight l1 gap plus the sum of blockwise Levy-Prokhorov gaps."""
    _check_comparable(a, b)
    sa = _require_nonneg_scaled(a, "first quotient")
    sb = _require_nonneg_scaled(b, "second quotient")
    k, m = a.k, a.space.size
    d = lp_distance_batch(a.space, sa.reshape(-1, m), sb.reshape(-1, m))
    return float(np.abs(a.alpha - b.alpha).sum() + d.sum())


def dsquare_quotient(a: Quotient, b: Quotient) -> float:
    """Vertex-weight l1 gap plus the rectangle supremum of aggregated gaps."""
    _check_comparable(a, b)
    k = a.k
    if k > DSQUARE_ENUM_MAX:
        raise ValueError(
            f"exact rectangle enumeration is capped at {DSQUARE_ENUM_MAX} cells; "
            "call dsquare_quotient_search for a flagged estimate"
        )
    sa = _require_nonneg_scaled(a, "first quotient")
    sb = _require_nonneg_scaled(b, "second quotient")
    best = lp_rectangle_max(a.space, sa[None], sb[None])[0]
    return float(np.abs(a.alpha - b.alpha).sum() + best)


def dsquare_quotient_search(a: Quotient, b: Quotient, budget=None) -> SearchResult:
    """Rectangle supremum by ``rectangle_search``; a flagged lower bound.

    Falls through to the exact enumeration when the cell count allows it.
    """
    _check_comparable(a, b)
    if a.k <= DSQUARE_ENUM_MAX:
        return SearchResult(dsquare_quotient(a, b), True, None)
    value, cert = rectangle_search(
        _require_nonneg_scaled(a, "first quotient"),
        _require_nonneg_scaled(b, "second quotient"),
        lambda mus, nus: lp_distance_batch(a.space, mus, nus),
        budget or SearchBudget(),
        key=41,
    )
    return SearchResult(float(np.abs(a.alpha - b.alpha).sum()) + value, False, cert)


@dataclass(frozen=True, eq=False)
class QuotientCloud:
    """Finite skeleton of a quotient set, with generation provenance.

    The members are stored stacked: ``alpha`` is (N, k) and ``beta`` is
    (N, k, k, m).  ``quotients`` builds them as ``Quotient`` objects on the
    first read and returns the same tuple afterwards; the arrays are
    read-only, so the tuple cannot go stale.
    """

    space: DecorationSpace
    k: int
    alpha: np.ndarray
    beta: np.ndarray
    provenance: dict

    def __init__(self, space, k, quotients, provenance):
        quotients = tuple(quotients)
        for q in quotients:
            space.require_same(q.space)
            if q.k != k:
                raise ValueError(f"cloud member has {q.k} cells, not {k}")
        alpha = np.array([q.alpha for q in quotients], dtype=float).reshape(-1, k)
        beta = np.array([q.beta for q in quotients], dtype=float)
        self._store(space, k, alpha, beta.reshape(-1, k, k, space.size), provenance)

    @classmethod
    def _stacked(cls, space, k, alpha, beta, provenance) -> "QuotientCloud":
        cloud = cls.__new__(cls)
        cloud._store(space, k, alpha, beta, provenance)
        return cloud

    def _store(self, space, k, alpha, beta, provenance) -> None:
        alpha.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "provenance", provenance)

    @cached_property
    def quotients(self) -> tuple:
        return tuple(Quotient(self.space, a, b) for a, b in zip(self.alpha, self.beta))

    def __len__(self) -> int:
        return len(self.alpha)

    def scaled(self) -> np.ndarray:
        """Mass-scaled decorations of every member, (N, k, k, m)."""
        return _scaled(self.alpha, self.beta)

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "space": {"points": list(self.space.points), "dist": self.space.dist.tolist()},
            "quotients": [
                {"alpha": a.tolist(), "beta": b.tolist()} for a, b in zip(self.alpha, self.beta)
            ],
            "provenance": self.provenance,
        }


def _distinct(space, k: int, batches, provenance: dict) -> QuotientCloud:
    """The cloud of the first occurrence of each member of the (alpha, beta)
    batches, members being equal when alpha and the scaled decorations agree
    to DEDUP_DECIMALS places."""
    seen: set[bytes] = set()
    alphas, betas = [np.empty((0, k))], [np.empty((0, k, k, space.size))]
    for alpha, beta in batches:
        flat = np.concatenate([alpha, _scaled(alpha, beta).reshape(len(alpha), -1)], axis=1)
        first = []
        for i, key in enumerate(np.round(flat, DEDUP_DECIMALS)):
            key = key.tobytes()
            if key not in seen:
                seen.add(key)
                first.append(i)
        alphas.append(alpha[first])
        betas.append(beta[first])
    return QuotientCloud._stacked(
        space, k, np.concatenate(alphas), np.concatenate(betas), provenance
    )


def _assigned(kernel: StepKernel, chunks, k: int):
    """Quotient stacks of ``kernel`` by each chunk z of (B, p) assignments,
    row b sending part p wholly to cell z[b, p]."""
    p = kernel.n_parts
    for z in chunks:
        rho = np.zeros((len(z), p, k))
        rho[np.arange(len(z))[:, None], np.arange(p), z] = kernel.part_sizes
        yield _quotient_stack(kernel, rho)


def quotient_cloud(
    kernel: StepKernel,
    k: int,
    mode: str = "enumerate",
    cells: Optional[int] = None,
    count: int = 64,
    seed: int = 0,
    alpha=None,
) -> QuotientCloud:
    """Finite approximation of the k-cell quotient set.

    ``enumerate`` mode refines the kernel to ``cells`` equal cells and takes
    every class assignment (optionally only those of vertex weights
    ``alpha``, a probability vector of shape (k,)), at most
    ``overlay.GRID_ORACLE_CAP`` of them;
    ``sample`` mode takes ``count`` seeded uniform assignments plus every
    partition aligned with the kernel's own parts.  Members are deduplicated
    on rounded (alpha, scaled decorations) keys.
    """
    if mode == "enumerate":
        n = cells if cells is not None else kernel.n_parts
        if float(k) ** n > GRID_ORACLE_CAP:
            raise ValueError(
                f"{k}**{n} assignments exceed the enumeration budget; "
                "use mode='sample'"
            )
        refined = uniform_refine(kernel, n)
        provenance = {"mode": "enumerate", "cells": int(n), "k": int(k)}
        if alpha is None:
            chunks = every_assignment(n, k)
        else:
            alpha = _cell_masses(alpha, k)
            target = alpha * n
            if np.abs(target - np.rint(target)).max() > 1e-9:
                raise ValueError("alpha is not realizable on the requested grid")
            chunks = count_assignments(n, np.rint(target).astype(int))
            provenance["alpha"] = list(alpha)
        return _distinct(kernel.space, k, _assigned(refined, chunks, k), provenance)

    if mode == "sample":
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(31,)))
        n = cells if cells is not None else kernel.n_parts
        refined = uniform_refine(kernel, n)
        p = kernel.n_parts
        aligned = every_assignment(p, k) if float(k) ** p <= 4096 else []
        # stratify over cell-mass vectors so coverage does not collapse onto
        # balanced partitions as n grows
        draws = []
        for counts in _stratified_counts(n, k, count, rng):
            z = np.repeat(np.arange(k, dtype=np.intp), counts)
            rng.shuffle(z)
            draws.append(z)
        draws.extend(rng.integers(0, k, size=n) for _ in range(count))
        batches = itertools.chain(
            _assigned(kernel, aligned, k),
            _assigned(refined, [np.array(draws, dtype=np.intp).reshape(-1, n)], k),
        )
        provenance = {
            "mode": "sample",
            "cells": int(n),
            "count": int(count),
            "seed": int(seed),
            "k": int(k),
        }
        return _distinct(kernel.space, k, batches, provenance)

    if mode == "alpha_grid":
        # fractional-overlap quotients on a mass grid: one product-coupling
        # member per mass vector plus seeded transportation vertices; the
        # grid is the multiples of 1/cells (k = 2) or seeded compositions
        from .overlay import _random_transport_vertex

        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(37,)))
        r = cells if cells is not None else 16
        lam = kernel.part_sizes
        alphas: list[np.ndarray] = []
        if k == 2:
            alphas.extend(np.array([c / r, 1.0 - c / r]) for c in range(r + 1))
        else:
            for i in range(k):
                corner = np.zeros(k)
                corner[i] = 1.0
                alphas.append(corner)
            alphas.append(np.full(k, 1.0 / k))
            for _ in range(max(count - len(alphas), 0)):
                c = rng.multinomial(r, rng.dirichlet(np.ones(k)))
                alphas.append(c / r)
        overlaps = []
        per_alpha = max(1, count // max(len(alphas), 1))
        for a in alphas:
            overlaps.append(np.outer(lam, a))
            for _ in range(per_alpha - 1):
                overlaps.append(_random_transport_vertex(lam, a, rng))
        provenance = {
            "mode": "alpha_grid",
            "cells": int(r),
            "count": int(count),
            "seed": int(seed),
            "k": int(k),
        }
        return _distinct(
            kernel.space, k, [_quotient_stack(kernel, np.array(overlaps))], provenance
        )

    raise ValueError(f"unknown cloud mode {mode!r}")


def _stratified_counts(n: int, k: int, total: int, rng) -> list[np.ndarray]:
    if k == 2:
        grid = np.unique(np.round(np.linspace(0, n, max(2, min(total, n + 1)))).astype(int))
        return [np.array([c, n - c]) for c in grid]
    counts: list[np.ndarray] = []
    for i in range(k):
        corner = np.zeros(k, dtype=int)
        corner[i] = n
        counts.append(corner)
    balanced = np.full(k, n // k)
    balanced[: n % k] += 1
    counts.append(balanced)
    while len(counts) < total:
        counts.append(rng.multinomial(n, rng.dirichlet(np.ones(k))))
    return counts[:total]


def _pairwise_lp(rows_a, rows_b, space, reduce) -> np.ndarray:
    """(na, nb) matrix of ``reduce`` over the r Levy-Prokhorov distances
    between rows_a[i] and rows_b[j], both (n, r, m) and nonnegative.

    Member pairs are gathered in chunks of whole pairs, one
    ``lp_distance_batch`` call per chunk of about ``LP_CHUNK / 4`` rows,
    whatever m is: each call pays a bisection of about log2 R probes for R
    thresholds, so fewer and larger calls waste less on small spaces, and
    ``lp_distance_batch`` itself splits a call whose subset tables would
    outgrow its blocks.  Its values round alike in any batch.
    """
    na, r, m = rows_a.shape
    nb = rows_b.shape[0]
    per_call = max(1, (measures.LP_CHUNK >> 2) // r)
    out = np.empty(na * nb)
    for start in range(0, na * nb, per_call):
        pairs = np.arange(start, min(start + per_call, na * nb))
        d = lp_distance_batch(
            space, rows_a[pairs // nb].reshape(-1, m), rows_b[pairs % nb].reshape(-1, m)
        )
        out[start : start + pairs.size] = reduce(d.reshape(pairs.size, r), axis=1)
    return out.reshape(na, nb)


def _alpha_gaps(a: QuotientCloud, b: QuotientCloud) -> np.ndarray:
    return np.abs(a.alpha[:, None, :] - b.alpha[None, :, :]).sum(axis=2)


def _pairwise_d1(a: QuotientCloud, b: QuotientCloud) -> np.ndarray:
    k, m = a.k, a.space.size
    sa, sb = (np.clip(c.scaled(), 0, None).reshape(len(c), k * k, m) for c in (a, b))
    return _alpha_gaps(a, b) + _pairwise_lp(sa, sb, a.space, np.sum)


def _pairwise_dsquare(a: QuotientCloud, b: QuotientCloud) -> np.ndarray:
    m = a.space.size
    aggs = []
    for cloud in (a, b):
        # (members, 2**k row sets, 2**k column sets, m) rectangle masses
        s = np.clip(cloud.scaled(), 0, None)
        aggs.append(subset_sums(subset_sums(s, axis=1), axis=2).reshape(len(cloud), -1, m))
    return _alpha_gaps(a, b) + _pairwise_lp(*aggs, a.space, np.max)


def hausdorff(a: QuotientCloud, b: QuotientCloud, metric: str = "dsquare") -> float:
    """Two-sided sup-inf distance between finite quotient clouds.

    Exact between the two finite clouds.  When the clouds are samples or
    grids of quotient sets (``quotient_cloud``), it is only an estimate of
    the distance between those sets, not a bound on either side.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("Hausdorff distance needs non-empty clouds")
    a.space.require_same(b.space)
    if a.k != b.k:
        raise ValueError(f"clouds have different cell counts: {a.k} vs {b.k}")
    if metric == "d1":
        d = _pairwise_d1(a, b)
    elif metric == "dsquare":
        if a.k > DSQUARE_ENUM_MAX:
            raise ValueError(f"dsquare enumeration capped at {DSQUARE_ENUM_MAX} cells")
        size = (len(a) + len(b)) * 4**a.k * a.space.size * 8
        if size > HAUSDORFF_MEMORY_BUDGET:
            raise ValueError(
                f"dsquare Hausdorff at k={a.k} needs {size / 2**30:.1f} GiB of subset "
                f"aggregates, over the {HAUSDORFF_MEMORY_BUDGET / 2**30:.1f} GiB budget; "
                "use fewer cells, smaller clouds, or metric='d1'"
            )
        d = _pairwise_dsquare(a, b)
    else:
        raise ValueError(f"unknown quotient metric {metric!r}")
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def rebalance_partition(overlap: OverlapMatrix, a_target) -> OverlapMatrix:
    """Monotone mass transfer onto new cell masses.

    Shrinking cells only lose mass, growing cells only gain it, so each new
    cell is nested with its predecessor.  The total moved mass is half the
    l1 gap between the old and new distributions.
    """
    target = np.asarray(a_target, dtype=float)
    rho = np.array(overlap.rho)
    current = overlap.col_sums.copy()
    if target.shape != current.shape:
        raise ValueError("target distribution has the wrong number of cells")
    if abs(target.sum() - current.sum()) > 1e-9:
        raise ValueError("target distribution must carry the same total mass")
    excess = current - target
    donors = [i for i in range(target.size) if excess[i] > 1e-15]
    recipients = [j for j in range(target.size) if excess[j] < -1e-15]
    for i in donors:
        to_give = excess[i]
        for j in recipients:
            need = -excess[j]
            if need <= 1e-15 or to_give <= 1e-15:
                continue
            amount = min(to_give, need)
            moved = 0.0
            for p in range(rho.shape[0]):
                if moved >= amount - 1e-15:
                    break
                take = min(rho[p, i], amount - moved)
                if take > 0:
                    rho[p, i] -= take
                    rho[p, j] += take
                    moved += take
            excess[i] -= moved
            excess[j] += moved
            to_give -= moved
    return OverlapMatrix(rho)
