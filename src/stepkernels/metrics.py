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
A relabeling under which the blocks, rounded to 12 decimals, are equal gives
0 at once: the identity on equal grids and, up to EXACT_PERM_MAX parts, the
lexicographically first one found by ``search.qap_count_max`` on the 0/1
block-match table.
The exhaustive tier races the relabelings against the pair-quotient lower
bound (the labeled distance between the quotients over ({a}, {b}, rest)),
evaluating them in ascending bound order until the bound passes the
incumbent by a rounding margin; it reports the smallest computed value and
the lexicographically first permutation attaining it.
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
    qap_count_max,
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

    Parts whose rows and columns are both equal are merged first, their
    sizes summed; that leaves the cut norm unchanged, so a kernel merging to
    at most CUT_NORM_MAX_PARTS parts (a uniform refinement of a small one)
    gets the exact tier.  Otherwise, for a row set S the best column set
    keeps the positive, or the negative, column sums ``col``; flipping row i
    moves them to col -+ row i, so one scan prices every flip.  The
    certificate is the best row set found.
    """
    if w.n_parts <= CUT_NORM_MAX_PARTS:
        return SearchResult(cut_norm_real(w), True, None)
    merged = _merge_equal_parts(w)
    if merged.n_parts <= CUT_NORM_MAX_PARTS:
        return SearchResult(cut_norm_real(merged), True, None)
    weighted = w.values * np.outer(w.part_sizes, w.part_sizes)

    def side(col):
        return np.maximum(np.clip(col, 0, None).sum(axis=-1), np.clip(-col, 0, None).sum(axis=-1))

    def scan(s):
        col = weighted[s].sum(axis=0)
        return float(side(col)), side(col + np.where(s, -1.0, 1.0)[:, None] * weighted)

    value, rows = flip_search(scan, w.n_parts, budget or SearchBudget(), key=7)
    return SearchResult(value, False, rows)


def _merge_equal_parts(w: RealStepKernel) -> RealStepKernel:
    """The kernel with each class of parts whose rows and columns are both
    equal merged into its first part, the part sizes summed."""
    v = w.values
    _, first, inverse = np.unique(
        np.concatenate([v, v.T], axis=1), axis=0, return_index=True, return_inverse=True
    )
    rank = np.argsort(np.argsort(first))  # classes in order of first appearance
    keep = np.sort(first)
    sizes = np.bincount(rank[inverse.ravel()], weights=w.part_sizes, minlength=keep.size)
    return RealStepKernel(sizes, v[np.ix_(keep, keep)])


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

def _equality_relabeling(u: np.ndarray, w: np.ndarray) -> Optional[np.ndarray]:
    """A permutation p with w[p[i], p[j]] == u[i, j] for every block (i, j),
    the blocks rounded to 12 decimals, or None.

    Equal rounded grids give the identity.  Otherwise, for at most
    EXACT_PERM_MAX cells and equal multisets of rounded entries, the 0/1
    table match[a, b, c, d] = (u[a, b] == w[c, d]) goes to ``qap_count_max``:
    a relabeling exists iff its maximum count reaches n * n, and then the
    maximizer is the lexicographically first one (the counts are exact
    integers).  Beyond EXACT_PERM_MAX cells only the identity is tried.
    """
    ru, rw = np.round(u, 12), np.round(w, 12)
    n = ru.shape[0]
    if np.array_equal(ru, rw):
        return np.arange(n, dtype=np.intp)
    if n > EXACT_PERM_MAX or not np.array_equal(np.sort(ru, axis=None), np.sort(rw, axis=None)):
        return None
    match = (ru[:, :, None, None] == rw).all(axis=-1).astype(float)
    count, perm = qap_count_max(match, (1,) * n)
    return perm if count == n * n else None


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
    a relabeling under which the blocks, rounded to 12 decimals, are equal
    gives 0 immediately (``_equality_relabeling``: the identity, or up to
    EXACT_PERM_MAX cells the lexicographically first such relabeling; beyond
    the cap a relabeled copy that is not the same grid goes to annealing),
    and a constant kernel makes every permutation equivalent.  For at most
    EXACT_PERM_MAX cells the enumeration is exhaustive: relabelings are
    raced against their pair-quotient lower bounds, with a rounding margin,
    and the certificate is the lexicographically first permutation attaining
    the smallest value (``_delta_exhaustive``).  Beyond that simulated
    annealing runs within the budget and the result is flagged inexact.
    """
    if metric not in ("lp", "f"):
        raise ValueError(f"unknown metric {metric!r}")
    if metric == "f" and fam is None:
        raise ValueError("metric 'f' needs a TestFamily")
    budget = budget or SearchBudget()
    ur, wr, n = _common_grid(u, w, cells)

    perm = _equality_relabeling(ur.entries, wr.entries)
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
    """Exhaustive minimum over cell permutations, by a race against a lower
    bound.

    Pair-quotient bound: a rectangle of the quotient over the parts ({a},
    {b}, rest) is a union of cells, so the labeled distance between the
    quotients of u and of w relabeled by pi lower-bounds the labeled distance
    at pi, and with pi(a) = c, pi(b) = d the quotient of the relabeled w is
    that of w over ({c}, {d}, rest).  ``_pair_bounds`` tabulates these
    distances once per pair a < b of u and ordered pair (c, d) of w, with
    the function the race evaluates, and bounds each relabeling by its
    largest entry.  Relabelings are evaluated in stacks, the lowest bound
    alone first, in ascending bound order while the bound stays below the
    incumbent plus ``_race_margin``, the rounding slack between a computed
    bound and a computed value.  When every relabeling fits in one stack the
    bounds are skipped and all are evaluated at once.  The result is the
    smallest computed value and, among equal values, the lexicographically
    first permutation, whatever the bound order or the stack size.
    """
    n = u.n_parts
    wu = _weighted_entries(u)
    ww = _weighted_entries(w)
    if metric == "f":
        width = 1 << len(fam) if _sign_vectors(len(fam), n) else len(fam)
        terms, weight = len(fam), np.abs(fam.values).T @ fam.scale_weights()

        def dist(a, b):
            return _f_rectangles(fam, a - b)
    else:
        width = 1 << (u.space.size + 1)
        terms, weight = 1, np.ones(u.space.size)

        def dist(a, b):
            return lp_rectangle_max(u.space, a, b)

    # a stack holds about 16 * LP_CHUNK row-set sums: at most ``width``
    # block functionals x n columns x 2**n row sets for each relabeling
    size = max(1, (measures.LP_CHUNK << 4) // (width * n << n))
    perms = np.concatenate(list(count_assignments(n, (1,) * n)))  # lexicographic
    if len(perms) <= size:
        vals = dist(wu[None], ww[perms[:, :, None], perms[:, None, :]])
        i = int(np.argmin(vals))
        return float(vals[i]), perms[i].copy()
    bounds = _pair_bounds(wu, ww, perms, dist, size * n * n)
    order = np.argsort(bounds, kind="stable")
    ranked = bounds[order]
    margin = _race_margin(wu, ww, terms, weight)
    best, at = np.inf, len(perms)
    start, step = 0, 1
    while start < len(order) and ranked[start] < best + margin:
        idx = order[start : min(start + step, int(np.searchsorted(ranked, best + margin)))]
        stack = perms[idx]
        vals = dist(wu[None], ww[stack[:, :, None], stack[:, None, :]])
        low = vals.min()
        first = int(idx[vals == low].min())
        if low < best or (low == best and first < at):
            best, at = float(low), first
        start, step = start + len(idx), size
    return best, perms[at].copy()


def _pair_quotients(blocks: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """(len(pairs), 3, 3, m) block masses of an (n, n, m) block array over
    the parts ({a}, {b}, rest), one per pair (a, b), the rest summed cell by
    cell."""
    k = np.arange(len(pairs))
    member = np.zeros((len(pairs), 3, blocks.shape[0]))
    member[k, 0, pairs[:, 0]] = 1.0
    member[k, 1, pairs[:, 1]] = 1.0
    member[:, 2] = 1.0 - member[:, 0] - member[:, 1]
    rows = np.einsum("pxi,ijm->pxjm", member, blocks)
    return np.einsum("pxjm,pyj->pxym", rows, member)


def _pair_bounds(wu: np.ndarray, ww: np.ndarray, perms: np.ndarray, dist, blocks: int) -> np.ndarray:
    """Pair-quotient lower bounds of the relabelings ``perms`` of w against u.

    B[a, b, c, d] = dist(pair quotient of u at (a, b), pair quotient of w at
    (c, d)) over the pairs a < b and every ordered c != d (the table is
    symmetric under swapping both pairs), and a relabeling pi is bounded by
    the largest B[a, b, pi(a), pi(b)].  Each ``dist`` call takes the pairs
    (a, b) of one stack of at most ``blocks`` quotient blocks, or one pair.
    """
    n = wu.shape[0]
    a, b = np.triu_indices(n, 1)
    c, d = np.nonzero(~np.eye(n, dtype=bool))
    qu = _pair_quotients(wu, np.stack([a, b], axis=1))
    qw = _pair_quotients(ww, np.stack([c, d], axis=1))
    table = np.zeros((a.size, n * n))
    step = max(1, blocks // (9 * c.size))
    for i in range(0, a.size, step):
        rows = qu[i : i + step]
        pairs = dist(np.repeat(rows, c.size, axis=0), np.tile(qw, (len(rows), 1, 1, 1)))
        table[i : i + step, c * n + d] = pairs.reshape(len(rows), c.size)
    return table[np.arange(a.size), perms[:, a] * n + perms[:, b]].max(axis=1)


def _race_margin(wu: np.ndarray, ww: np.ndarray, k: int, weight: np.ndarray) -> float:
    """Rounding slack between a computed bound and a computed value.

    Both come from chains of sums over the cells of a rectangle, the points
    of a subset and the k family functions: at most L = n * n * (m + k)
    terms of the weighted block masses, so each is within L * 2**-53 * M of
    its exact value, M the sum over blocks and points of (|u| + |w|) times
    the point weight (1 for Levy-Prokhorov, sum_k scale_k |f_k| for a
    family); the Levy-Prokhorov scan moves no more than its gaps.  The
    margin 2**-50 * L * M covers both errors four times over.
    """
    n, _, m = wu.shape
    mass = (np.abs(wu) + np.abs(ww)).sum(axis=(0, 1)) @ weight
    return float(2.0**-50 * n * n * (m + k) * mass)


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
    norm of each argument.  Beyond EXACT_PERM_MAX cells equal grids give 0
    at the identity, certified since the distance is nonnegative.
    """
    budget = budget or SearchBudget()
    ur, wr, n = _common_grid(u, w, cells)
    if n > EXACT_PERM_MAX and np.array_equal(ur.entries, wr.entries):
        return SearchResult(0.0, True, np.arange(n, dtype=np.intp), refinement=n)
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
