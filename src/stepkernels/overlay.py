"""Overlay functionals between kernels and decorated graphs or kernel pairs.

The graph overlay maximizes the total decorated interaction over partitions
of [0,1] with prescribed cell masses.  For a step kernel the objective
depends on a partition only through the overlap masses between kernel parts
and partition cells, so the feasible region is a transportation polytope.
Two solver tiers: an exhaustive grid oracle on a uniform refinement (each
half of the cell assignments valued once, then met with the other half),
and a multistart Frank-Wolfe ascent on the overlap matrix (flagged inexact,
since the quadratic may be indefinite), whose vertex step is a closed-form
fractional knapsack against two vertices and a HiGHS LP, imported on first
use, otherwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import gcd
from typing import Optional

import numpy as np

from .kernels import (
    CbGraph,
    CbStepKernel,
    StepKernel,
    _common_grid,
    minimal_refinement,
    uniform_refine,
)
from .measures import ABS_TOL, TestFamily
from .metrics import _f_inner_sum, _f_interaction_tensor
from .search import SearchBudget, SearchResult, qap_count_max, qap_optimize

__all__ = [
    "GRID_ORACLE_CAP",
    "OverlapMatrix",
    "overlay_graph",
    "overlay_kernel",
    "f_overlay",
    "f_overlay_truncated",
    "overlay_objective",
]

GRID_ORACLE_CAP = 1_000_000
MARGIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class OverlapMatrix:
    """Masses shared between kernel parts (rows) and partition cells (columns).

    Row sums reproduce the kernel part sizes, column sums the prescribed cell
    mass distribution.  Every such matrix is realized by some measurable
    partition of [0,1], and conversely.
    """

    rho: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray

    def __init__(self, rho):
        r = np.array(rho, dtype=float)
        if r.ndim != 2:
            raise ValueError("overlap matrix must be 2-dimensional")
        if r.min() < -MARGIN_TOL:
            raise ValueError("overlap masses must be nonnegative")
        r = np.maximum(r, 0.0)
        r.setflags(write=False)
        rows = r.sum(axis=1)
        cols = r.sum(axis=0)
        rows.setflags(write=False)
        cols.setflags(write=False)
        object.__setattr__(self, "rho", r)
        object.__setattr__(self, "row_sums", rows)
        object.__setattr__(self, "col_sums", cols)

    def check_marginals(self, part_sizes, alpha, tol: float = MARGIN_TOL) -> None:
        if np.abs(self.row_sums - np.asarray(part_sizes)).max() > tol:
            raise ValueError("overlap row sums do not match the kernel part sizes")
        if np.abs(self.col_sums - np.asarray(alpha)).max() > tol:
            raise ValueError("overlap column sums do not match the cell distribution")

    @classmethod
    def from_assignment(cls, part_sizes, assignment, k: int) -> "OverlapMatrix":
        """Each part wholly assigned to one cell."""
        lam = np.asarray(part_sizes, dtype=float)
        z = np.asarray(assignment, dtype=int)
        rho = np.zeros((lam.size, k))
        rho[np.arange(lam.size), z] = lam
        return cls(rho)


def _interaction(kernel: StepKernel, graph: CbGraph) -> np.ndarray:
    """c[p, q, i, j] = integral of the (i, j) decoration against block (p, q)."""
    kernel.space.require_same(graph.space)
    return np.tensordot(kernel.entries, graph.beta, axes=([2], [2]))


def _planned_form(c: np.ndarray):
    """(x, y) -> sum of x[p, i] y[q, j] c[p, q, i, j] for (p, k) overlaps.

    The contraction order is the one ``optimize=True`` picks for these
    shapes, planned once here instead of on every call.
    """
    probe = np.zeros(c.shape[1:3])
    path = np.einsum_path("pi,qj,pqij->", probe, probe, c, optimize="greedy")[0]
    return lambda x, y: float(np.einsum("pi,qj,pqij->", x, y, c, optimize=path))


def overlay_objective(kernel: StepKernel, graph: CbGraph, overlap: OverlapMatrix) -> float:
    """Total decorated interaction realized by an overlap matrix."""
    return _planned_form(_interaction(kernel, graph))(overlap.rho, overlap.rho)


def _cell_masses(alpha, k: int) -> np.ndarray:
    """``alpha`` as a float (k,) probability vector; ValueError otherwise."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (k,):
        raise ValueError(f"alpha must have shape ({k},)")
    if alpha.min() < 0 or abs(alpha.sum() - 1.0) > MARGIN_TOL:
        raise ValueError("alpha must be a probability vector")
    return alpha


def overlay_graph(
    kernel: StepKernel,
    graph: CbGraph,
    budget: Optional[SearchBudget] = None,
    alpha=None,
    cells: Optional[int] = None,
) -> SearchResult:
    """Maximal decorated interaction over partitions with prescribed masses.

    Tier (a), the grid oracle: refine the kernel to n equal cells compatible
    with ``alpha`` and maximize over every cell assignment with
    ``search.qap_count_max``; exhaustive, hence exact over grid partitions,
    and of the maximizers the certificate is the lexicographically first
    assignment.  Tier (b): multistart Frank-Wolfe ascent on the overlap
    matrix, flagged inexact.
    """
    k = graph.n_vertices
    alpha = _cell_masses(graph.alpha if alpha is None else alpha, k)
    budget = budget or SearchBudget()

    n = cells
    if n is None:
        base = minimal_refinement(kernel.part_sizes)
        try:
            d = minimal_refinement(alpha, cap=10_000)
        except ValueError:
            pass  # alpha is not rational on any grid: the ascent tier runs
        else:
            n = base * d // gcd(base, d)
    grid_ok = (
        n is not None
        and float(k) ** n <= GRID_ORACLE_CAP
        and np.abs(np.rint(alpha * n) - alpha * n).max() <= MARGIN_TOL
        and np.abs(np.rint(kernel.part_sizes * n) - kernel.part_sizes * n).max() <= MARGIN_TOL
    )
    if grid_ok:
        return _overlay_graph_grid(kernel, graph, alpha, n)
    if cells is not None:
        warnings.warn(
            "requested grid is incompatible with alpha or exceeds the oracle "
            "cap; falling back to the ascent tier",
            stacklevel=2,
        )
    elif n is None:
        warnings.warn(
            "alpha is not rational on the oracle grid; falling back to the "
            "ascent tier",
            stacklevel=2,
        )
    return _overlay_graph_ascent(kernel, graph, alpha, budget)


def _overlay_graph_grid(kernel, graph, alpha, n) -> SearchResult:
    refined = uniform_refine(kernel, n)
    counts = np.rint(alpha * n).astype(int)
    c_ref = _interaction(refined, graph) / float(n * n)
    best, best_assignment = qap_count_max(c_ref, counts)
    # fold the cells' masses back onto the original parts
    owner = np.repeat(np.arange(kernel.n_parts), np.rint(kernel.part_sizes * n).astype(int))
    rho = np.zeros((kernel.n_parts, graph.n_vertices))
    np.add.at(rho, (owner, best_assignment), refined.part_sizes)
    return SearchResult(best, True, OverlapMatrix(rho))


def _two_column_vertex(gradient: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """A maximizing vertex of a two-column transportation polytope.

    With two columns the problem is a fractional knapsack: rows fill column 0
    in decreasing order of gradient[:, 0] - gradient[:, 1] until it holds
    cols[0].  Rows tied in that order keep their index order (a stable
    sort); any order of tied rows gives an optimal vertex.
    """
    gain = gradient[:, 0] - gradient[:, 1]
    order = np.argsort(-gain, kind="stable")
    size = rows[order]
    first = np.clip(cols[0] - (np.cumsum(size) - size), 0.0, size)
    # the running sum's rounding must not leave a sliver in the wrong column
    first[first <= ABS_TOL] = 0.0
    np.copyto(first, size, where=(first > 0) & (size - first <= ABS_TOL))
    vertex = np.empty_like(gradient)
    vertex[order, 0] = first
    vertex[order, 1] = size - first
    return vertex


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call: the import adds about 50 MB."""
    from scipy.optimize import linprog as highs

    return highs(*args, **kwargs)


def _transport_lp(gradient: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Maximize <gradient, v> over the transportation polytope."""
    if cols.size == 2:
        return _two_column_vertex(gradient, rows, cols)
    p, k = gradient.shape
    a_eq = np.vstack([np.kron(np.eye(p), np.ones(k)), np.kron(np.ones(p), np.eye(k))])
    res = linprog(
        -gradient.ravel(),
        A_eq=a_eq,
        b_eq=np.concatenate([rows, cols]),
        bounds=[(0, None)] * (p * k),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"transportation subproblem failed: {res.message}")
    return res.x.reshape(p, k)


def _random_transport_vertex(rows, cols, rng) -> np.ndarray:
    pr = rng.permutation(rows.size)
    pc = rng.permutation(cols.size)
    rem_r = rows[pr].copy()
    rem_c = cols[pc].copy()
    out = np.zeros((rows.size, cols.size))
    i = j = 0
    while i < rows.size and j < cols.size:
        t = min(rem_r[i], rem_c[j])
        out[pr[i], pc[j]] += t
        rem_r[i] -= t
        rem_c[j] -= t
        if rem_r[i] <= 1e-15:
            i += 1
        if j < cols.size and rem_c[j] <= 1e-15:
            j += 1
    return out


def _random_interior(rows, cols, rng, iters: int = 200) -> np.ndarray:
    out = rng.random((rows.size, cols.size)) + 0.25
    for _ in range(iters):
        out *= (rows / out.sum(axis=1))[:, None]
        out *= (cols / out.sum(axis=0))[None, :]
    out *= (rows / out.sum(axis=1))[:, None]
    return out


def _overlay_graph_ascent(kernel, graph, alpha, budget) -> SearchResult:
    c = _interaction(kernel, graph)
    lam = kernel.part_sizes
    form = _planned_form(c)
    # the gradient's two halves, each with its contraction planned once
    halves = [
        (spec, np.einsum_path(spec, np.outer(lam, alpha), c, optimize="greedy")[0])
        for spec in ("qj,pqij->pi", "qj,qpji->pi")
    ]

    def value(rho):
        return form(rho, rho)

    def gradient(rho):
        g = [np.einsum(spec, rho, c, optimize=path) for spec, path in halves]
        return g[0] + g[1]

    best_val, best_rho = -np.inf, None
    for r in range(budget.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(23, r)))
        if r == 0:
            rho = np.outer(lam, alpha)
        elif r % 2 == 1:
            rho = _random_transport_vertex(lam, alpha, rng)
        else:
            rho = _random_interior(lam, alpha, rng)
        val = value(rho)
        for _ in range(200):
            grad = gradient(rho)
            vertex = _transport_lp(grad, lam, alpha)
            direction = vertex - rho
            lin = float((grad * direction).sum())
            quad = form(direction, direction)
            if lin <= 1e-13 and quad <= 0:
                break
            if quad < 0:
                t = min(max(lin / (-2.0 * quad), 0.0), 1.0)
            elif quad == 0:
                t = 1.0 if lin > 1e-13 else 0.0
            else:
                t = 1.0 if lin + quad > 0 else 0.0
            if t <= 0:
                break
            rho = rho + t * direction
            new_val = value(rho)
            if new_val <= val + 1e-13:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_val, best_rho = val, rho.copy()
    return SearchResult(best_val, False, OverlapMatrix(best_rho))


def overlay_kernel(
    kernel: StepKernel,
    fn_kernel: CbStepKernel,
    budget: Optional[SearchBudget] = None,
    cells: Optional[int] = None,
) -> SearchResult:
    """Supremum of the pairing over relabelings of the function-valued kernel.

    Realized as a quadratic assignment over permutations of a common uniform
    refinement: exhaustive (exact) for small grids, annealed and flagged
    beyond.  A constant argument makes every permutation equivalent.
    ``cells`` forces a finer grid (must be a multiple of the natural one),
    enlarging the searched partition class.
    """
    budget = budget or SearchBudget()
    u, w, n = _common_grid(kernel, fn_kernel, cells)
    if w.is_constant() or u.is_constant():
        val = float(np.einsum("abm,abm->", u.entries, w.entries) / (n * n))
        return SearchResult(val, True, np.arange(n, dtype=np.intp))
    interactions = np.einsum("abm,cdm->abcd", u.entries, w.entries, optimize=True) / float(n * n)
    return qap_optimize(interactions, budget)


def f_overlay(
    u: StepKernel,
    w: StepKernel,
    fam: TestFamily,
    budget: Optional[SearchBudget] = None,
    cells: Optional[int] = None,
) -> SearchResult:
    """Supremum over relabelings of the weighted family inner product."""
    ur, wr, _ = _common_grid(u, w, cells)
    return _f_overlay(ur, wr, fam, fam.values, fam.scale_weights(), budget)


def f_overlay_truncated(
    u: StepKernel,
    w: StepKernel,
    fam: TestFamily,
    n_terms: int,
    budget: Optional[SearchBudget] = None,
) -> tuple[SearchResult, float]:
    """Family overlay truncated to indices <= n_terms, with an enclosure bound.

    The tail of the geometrically weighted sum is controlled by
    q = sup_tv(u) * sup_tv(w); the returned half-width q / n_terms encloses
    the untruncated value around the truncated one.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    ur, wr, _ = _common_grid(u, w)
    keep = min(n_terms, len(fam) - 1)
    res = _f_overlay(ur, wr, fam, fam.values[: keep + 1], fam.scale_weights()[: keep + 1], budget)
    return res, u.sup_tv() * w.sup_tv() / float(n_terms)


def _f_overlay(ur, wr, fam, values, scale, budget) -> SearchResult:
    """Family overlay of two kernels on one grid, over the family functions
    ``values`` with weights ``scale``: a constant argument makes every
    relabeling equivalent, otherwise ``qap_optimize`` on the interactions."""
    ur.space.require_same(fam.space)
    if ur.is_constant() or wr.is_constant():
        value = _f_inner_sum(ur, wr, values, scale)
        return SearchResult(value, True, np.arange(ur.n_parts, dtype=np.intp))
    return qap_optimize(_f_interaction_tensor(ur, wr, values, scale), budget or SearchBudget())

