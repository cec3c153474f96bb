"""Cut seminorms and labeled/unlabeled cut distances between step kernels.

The labeled distances take a supremum of a measure discrepancy over
rectangles S x T.  For step kernels the supremum is attained on unions of
parts (by bilinearity for the real cut norm, convexity for the test-family
norm, and quasi-convexity of the Levy-Prokhorov distance).  Each distance is
a maximum of real block functionals (sign vectors for the test family, mass
gaps per threshold interval for Levy-Prokhorov), and for a fixed row set S
the best column set keeps the positive column sums, so the exact tier
enumerates the 2**P row sets in ``search.rectangle_max`` (a family of more
functions than parts enumerates the column sets of each row set instead of
its sign vectors).  The unlabeled
distances minimize the labeled ones over permutations of a common uniform
refinement: exhaustively up to EXACT_PERM_MAX parts, by simulated annealing
beyond, always reporting an exactness flag and the best permutation found.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .kernels import RealStepKernel, StepKernel, _common_grid, common_refinement, relabel
from . import measures
from .measures import TestFamily, _subset_masks, lp_distance_batch, subset_sums
from .search import (
    EXACT_PERM_MAX,
    SearchBudget,
    SearchResult,
    anneal_permutation,
    count_assignments,
    flip_search,
    lp_rectangle_max,
    ordered_matmul,
    qap_optimize,
    rectangle_max,
    rectangle_search,
)

__all__ = [
    "CUT_ENUM_MAX_PARTS",
    "CUT_NORM_MAX_PARTS",
    "cut_norm_real",
    "cut_norm_real_search",
    "cut_dist_lp",
    "cut_dist_f",
    "cut_dist_search",
    "delta_cut",
    "delta_2f",
    "f_l2_norm",
    "f_inner",
]

# Exact tiers: the 2**P row sets of parts are enumerated, for each block
# functional of a cut distance and for the real cut norm (and their 2**P
# column sets for a test family of more functions than parts).
CUT_ENUM_MAX_PARTS = 12
CUT_NORM_MAX_PARTS = 24
_EQUALITY_DFS_NODE_CAP = 200_000


# ---------------------------------------------------------------------------
# real cut norm
# ---------------------------------------------------------------------------

def cut_norm_real(w: RealStepKernel) -> float:
    """Exact rectangle supremum of |integral of w| for kernels with few parts.

    For a fixed row set S the optimal column set keeps either every positive
    or every negative column sum, so only the 2**P row sets are enumerated.
    """
    p = w.n_parts
    if p > CUT_NORM_MAX_PARTS:
        raise ValueError(
            f"exact cut norm enumerates 2**P subsets and is capped at "
            f"{CUT_NORM_MAX_PARTS} parts; call cut_norm_real_search instead"
        )
    weighted = w.values * np.outer(w.part_sizes, w.part_sizes)
    return float(rectangle_max(np.stack([weighted, -weighted], axis=-1)[None]).max())


def cut_norm_real_search(w: RealStepKernel, budget: Optional[SearchBudget] = None) -> SearchResult:
    """Flip-search lower bound over row sets for kernels with many parts.

    For a row set S the best column set keeps the positive, or the negative,
    column sums ``col``; flipping row i moves them to col -+ row i, so one
    scan prices every flip.  The certificate is the best row set found.
    """
    if w.n_parts <= CUT_NORM_MAX_PARTS:
        return SearchResult(cut_norm_real(w), True, None)
    weighted = w.values * np.outer(w.part_sizes, w.part_sizes)

    def side(col):
        return np.maximum(np.clip(col, 0, None).sum(axis=-1), np.clip(-col, 0, None).sum(axis=-1))

    def scan(s):
        col = weighted[s].sum(axis=0)
        return float(side(col)), side(col + np.where(s, -1.0, 1.0)[:, None] * weighted)

    value, rows = flip_search(scan, w.n_parts, budget or SearchBudget(), key=7)
    return SearchResult(value, False, rows)


# ---------------------------------------------------------------------------
# labeled cut distances (exact tier)
# ---------------------------------------------------------------------------

def _aligned(u: StepKernel, w: StepKernel) -> tuple[StepKernel, StepKernel]:
    if u.n_parts == w.n_parts and np.abs(u.part_sizes - w.part_sizes).max() <= 1e-9:
        u.space.require_same(w.space)
        return u, w
    a, b, _ = common_refinement(u, w)
    return a, b


def _weighted_entries(k: StepKernel) -> np.ndarray:
    lam = k.part_sizes
    return k.entries * np.multiply.outer(np.outer(lam, lam), np.ones(k.space.size))


def _sign_vectors(k: int, p: int) -> bool:
    """Whether a family of k functions is searched by its 2**k sign vectors
    (cheaper than the 2**p column sets of every row set when k <= p)."""
    return (p << k) <= (k << p)


def _f_rectangles(fam: TestFamily, diff: np.ndarray) -> np.ndarray:
    """Test-family rectangle suprema of a (C, P, P, m) stack of signed block
    masses, (C,) values.

    With x_k the scale-weighted k-th family integral over S x T, the value
    is the largest sum_k |x_k|.  That is the largest sum_k sigma_k x_k over
    the 2**K sign vectors sigma, so for a small family each sign vector is
    one real block functional of ``rectangle_max``, taken in power-of-two
    chunks of at least two within about 64 * LP_CHUNK entries.  A larger
    family enumerates the 2**P column sets of every row set instead, in
    chunks of row sets within about 16 * LP_CHUNK entries.
    """
    x = ordered_matmul(diff, fam.values.T * fam.scale_weights())
    c, p, _, k = x.shape
    best = np.zeros(c)
    if _sign_vectors(k, p):
        masks = _subset_masks(k)
        step = 1 << max(1, ((measures.LP_CHUNK << 6) // x[..., 0].size).bit_length() - 1)
        for i in range(0, len(masks), step):
            signs = 1.0 - 2.0 * masks[i : i + step]
            np.maximum(best, rectangle_max(ordered_matmul(x, signs.T)).max(axis=1), out=best)
        return best
    rows = subset_sums(x.transpose(1, 2, 0, 3).reshape(p, -1))  # [S, q, c, k]
    cols = np.ascontiguousarray(rows.reshape(-1, p, c * k).transpose(1, 0, 2)).reshape(p, -1)
    span = c * k * max(1, (measures.LP_CHUNK << 4) // (c * k << p))  # whole row sets
    for i in range(0, cols.shape[1], span):
        table = subset_sums(cols[:, i : i + span])  # [T, S, c, k]
        vals = np.abs(table, out=table).reshape(1 << p, -1, c, k).sum(axis=3)
        np.maximum(best, vals.max(axis=(0, 1)), out=best)
    return best


def cut_dist_lp(u: StepKernel, w: StepKernel) -> float:
    """Labeled cut distance under the Levy-Prokhorov metric (exact tier).

    Quasi-convexity of the Levy-Prokhorov distance in each aggregated
    argument puts the maximum at a vertex of the fractional rectangle set,
    i.e. on unions of parts.
    """
    u, w = _aligned(u, w)
    for k, name in ((u, "first"), (w, "second")):
        if k.kind == "signed":
            raise ValueError(
                f"{name} kernel is signed; the Levy-Prokhorov cut distance "
                "needs nonnegative kernels (use cut_dist_f)"
            )
    _require_enumerable(u.n_parts)
    blocks_u, blocks_w = _weighted_entries(u)[None], _weighted_entries(w)[None]
    return float(lp_rectangle_max(u.space, blocks_u, blocks_w)[0])


def cut_dist_f(u: StepKernel, w: StepKernel, fam: TestFamily) -> float:
    """Labeled cut distance under the test-family norm (exact tier).

    The objective is convex in the aggregated difference, so the rectangle
    supremum is attained on unions of parts.
    """
    u, w = _aligned(u, w)
    u.space.require_same(fam.space)
    _require_enumerable(u.n_parts)
    return float(_f_rectangles(fam, (_weighted_entries(u) - _weighted_entries(w))[None])[0])


def _require_enumerable(p: int) -> None:
    if p > CUT_ENUM_MAX_PARTS:
        raise ValueError(
            f"exact cut distance enumerates 2**P row sets and is capped "
            f"at {CUT_ENUM_MAX_PARTS} parts; call cut_dist_search instead"
        )


def cut_dist_search(
    u: StepKernel,
    w: StepKernel,
    metric: str = "lp",
    fam: Optional[TestFamily] = None,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Rectangle supremum by ``rectangle_search``; a flagged lower bound.

    Falls through to the exact tier when the part count allows it.
    """
    if metric not in ("lp", "f"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "f" and fam is None:
        raise ValueError("metric 'f' needs a TestFamily")
    u, w = _aligned(u, w)
    if metric == "lp" and (u.kind == "signed" or w.kind == "signed"):
        raise ValueError("the Levy-Prokhorov cut distance needs nonnegative kernels")
    p = u.n_parts
    if p <= CUT_ENUM_MAX_PARTS:
        if metric == "lp":
            return SearchResult(cut_dist_lp(u, w), True, None)
        return SearchResult(cut_dist_f(u, w, fam), True, None)
    if metric == "lp":
        def objective(mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
            return lp_distance_batch(u.space, np.clip(mus, 0.0, None), np.clip(nus, 0.0, None))
    else:
        def objective(mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
            return np.abs((mus - nus) @ fam.values.T) @ fam.scale_weights()

    value, cert = rectangle_search(
        _weighted_entries(u), _weighted_entries(w), objective, budget or SearchBudget(), key=11
    )
    return SearchResult(value, False, cert)


# ---------------------------------------------------------------------------
# unlabeled distances
# ---------------------------------------------------------------------------

def _find_equality_permutation(a: np.ndarray, b: np.ndarray, decimals: int = 12):
    """Search for perm with b[perm[i], perm[j]] == a[i, j] for all i, j.

    Blocks are compared through quantized keys, so this is an exact-equality
    shortcut (up to rounding at ``decimals``), not a tolerance search.  A
    failed multiset pre-check or an exhausted node budget returns None.
    """
    n = a.shape[0]
    keys: dict[bytes, int] = {}

    def block_ids(x: np.ndarray) -> np.ndarray:
        rounded = np.round(x, decimals) + 0.0  # normalize -0.0
        out = np.empty((n, n), dtype=np.intp)
        for i in range(n):
            for j in range(n):
                key = rounded[i, j].tobytes()
                out[i, j] = keys.setdefault(key, len(keys))
        return out

    a_ids = block_ids(a)
    b_ids = block_ids(b)
    if not np.array_equal(np.sort(a_ids, axis=None), np.sort(b_ids, axis=None)):
        return None
    if not np.array_equal(np.sort(np.diag(a_ids)), np.sort(np.diag(b_ids))):
        return None
    b_diag = np.diag(b_ids)
    candidates = [np.flatnonzero(b_diag == a_ids[i, i]) for i in range(n)]
    # fill the most constrained vertices first
    vertex_order = sorted(range(n), key=lambda i: candidates[i].size)
    assignment = np.full(n, -1, dtype=np.intp)
    used = np.zeros(n, dtype=bool)
    nodes = 0

    def extend(pos: int) -> bool:
        nonlocal nodes
        if pos == n:
            return True
        i = vertex_order[pos]
        for c in candidates[i]:
            if used[c]:
                continue
            nodes += 1
            if nodes > _EQUALITY_DFS_NODE_CAP:
                raise _DFSBudget()
            ok = True
            for prev in range(pos):
                j = vertex_order[prev]
                d = assignment[j]
                if a_ids[i, j] != b_ids[c, d] or a_ids[j, i] != b_ids[d, c]:
                    ok = False
                    break
            if ok:
                assignment[i] = c
                used[c] = True
                if extend(pos + 1):
                    return True
                used[c] = False
                assignment[i] = -1
        return False

    try:
        if extend(0):
            return assignment.copy()
    except _DFSBudget:
        return None
    return None


class _DFSBudget(Exception):
    pass


def delta_cut(
    u: StepKernel,
    w: StepKernel,
    metric: str = "lp",
    fam: Optional[TestFamily] = None,
    budget: Optional[SearchBudget] = None,
    cells: Optional[int] = None,
) -> SearchResult:
    """Unlabeled cut distance: minimize the labeled one over relabelings.

    The kernels are refined onto a common uniform grid and the labeled cut
    distance is minimized over permutations of the grid cells.  Shortcuts:
    a permutation realizing exact block equality gives 0 immediately, and a
    constant kernel makes every permutation equivalent.  For at most
    EXACT_PERM_MAX cells the enumeration is exhaustive (with early-exit
    pruning against the incumbent); beyond that simulated annealing runs
    within the budget and the result is flagged inexact.
    """
    if metric not in ("lp", "f"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "f" and fam is None:
        raise ValueError("metric 'f' needs a TestFamily")
    budget = budget or SearchBudget()
    ur, wr, n = _common_grid(u, w, cells)

    perm = _find_equality_permutation(ur.entries, wr.entries)
    if perm is not None:
        return SearchResult(0.0, True, perm, refinement=n)

    if ur.is_constant() or wr.is_constant():
        # relabeling a constant kernel changes nothing
        res = cut_dist_search(ur, wr, metric, fam, budget)
        return SearchResult(res.value, res.exact, np.arange(n, dtype=np.intp), refinement=n)

    if n <= EXACT_PERM_MAX:
        value, perm = _delta_exhaustive(ur, wr, metric, fam)
        return SearchResult(value, True, perm, refinement=n)

    def energy(p: np.ndarray) -> float:
        return cut_dist_search(ur, relabel(wr, p), metric, fam, budget).value

    perm, value = anneal_permutation(n, energy, budget, minimize=True)
    return SearchResult(value, False, perm, refinement=n)


def _delta_exhaustive(u, w, metric, fam):
    """Exhaustive minimum over cell permutations.

    Branch pruning: the distance between single-block rectangles lower-bounds
    the full rectangle supremum, and those bounds are cheap for every
    permutation at once.  Stacks of relabelings of w are evaluated in
    ascending lower-bound order until the bound reaches the incumbent; the
    first permutation attaining the minimum wins.
    """
    n = u.n_parts
    m = u.space.size
    wu = _weighted_entries(u)
    ww = _weighted_entries(w)
    if metric == "f":
        scale = fam.scale_weights()
        fu_blk = wu @ fam.values.T
        fw_blk = ww @ fam.values.T
        single = np.einsum(
            "abcdk,k->abcd",
            np.abs(fu_blk[:, :, None, None, :] - fw_blk[None, None, :, :, :]),
            scale,
        )

        def values(stack):
            return _f_rectangles(fam, wu[None] - stack)
    else:
        pairs_u = np.broadcast_to(np.clip(wu, 0, None)[:, :, None, None, :], (n, n, n, n, m))
        pairs_w = np.broadcast_to(np.clip(ww, 0, None)[None, None, :, :, :], (n, n, n, n, m))
        single = lp_distance_batch(
            u.space, pairs_u.reshape(-1, m), pairs_w.reshape(-1, m)
        ).reshape(n, n, n, n)

        def values(stack):
            return lp_rectangle_max(u.space, wu[None], stack)

    perms = np.concatenate(list(count_assignments(n, (1,) * n)))
    cells = np.arange(n)
    bounds = single[cells[:, None], cells, perms[:, :, None], perms[:, None, :]].max(axis=(1, 2))
    order = np.argsort(bounds, kind="stable")
    perms = perms[order]
    bounds = bounds[order]

    # at most this many block functionals per threshold, for each relabeling
    if metric == "f":
        width = 1 << len(fam) if _sign_vectors(len(fam), n) else len(fam)
    else:
        width = 1 << (m + 1)
    size = max(1, (measures.LP_CHUNK << 4) // (width * n << n))
    best, best_perm = np.inf, perms[0].copy()
    start = 0
    while start < perms.shape[0] and bounds[start] < best:
        stack = perms[start : min(start + size, int(np.searchsorted(bounds, best)))]
        vals = values(ww[stack[:, :, None], stack[:, None, :]])
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_perm = float(vals[i]), stack[i].copy()
        start += stack.shape[0]
    return best, best_perm


def f_inner(u: StepKernel, w: StepKernel, fam: TestFamily) -> float:
    """Geometric-weighted sum of L2 inner products of the family projections."""
    a, b = _aligned(u, w)
    a.space.require_same(fam.space)
    return _f_inner_sum(a, b, fam.values, fam.scale_weights())


def _f_inner_sum(u: StepKernel, w: StepKernel, values: np.ndarray, scale: np.ndarray) -> float:
    """``f_inner`` of two kernels on one partition, over the family functions
    ``values`` with weights ``scale``: per-function sums, then the weights."""
    lam2 = np.outer(u.part_sizes, u.part_sizes)
    per_k = np.einsum("pq,pqk->k", lam2, (u.entries @ values.T) * (w.entries @ values.T))
    return float(per_k @ scale)


def f_l2_norm(u: StepKernel, fam: TestFamily) -> float:
    """Inner-product norm: sqrt of the weighted sum of squared L2 norms."""
    return float(np.sqrt(max(f_inner(u, u, fam), 0.0)))


def delta_2f(
    u: StepKernel,
    w: StepKernel,
    fam: TestFamily,
    budget: Optional[SearchBudget] = None,
    cells: Optional[int] = None,
) -> SearchResult:
    """Unlabeled L2-style distance under the inner-product convention.

    Minimizing the distance over permutations is the same search as
    maximizing the weighted inner product, since permutations preserve the
    norm of each argument.
    """
    budget = budget or SearchBudget()
    ur, wr, n = _common_grid(u, w, cells)
    interactions = _f_interaction_tensor(ur, wr, fam.values, fam.scale_weights())
    res = qap_optimize(interactions, budget)
    # evaluate the distance directly at the winning permutation; the
    # inner-product expansion would lose half the significand to cancellation
    diff = StepKernel(
        ur.space, ur.part_sizes, ur.entries - relabel(wr, res.certificate).entries
    )
    value = float(np.sqrt(max(f_inner(diff, diff, fam), 0.0)))
    return SearchResult(value, res.exact, res.certificate, refinement=n)


def _f_interaction_tensor(
    u: StepKernel, w: StepKernel, values: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """interactions[a, b, c, d] = weighted-inner-product contribution of
    matching block (a, b) of u with block (c, d) of w, over the family
    functions ``values`` with weights ``scale``."""
    n = u.n_parts
    fu = u.entries @ values.T
    fw = w.entries @ values.T
    t = np.einsum("abk,cdk,k->abcd", fu, fw, scale, optimize=True)
    return t / float(n * n)
