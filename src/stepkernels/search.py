"""The search loops behind every optimizer in the package.

Callers supply only the objective.  Enumeration is exhaustive, hence
exact: ``every_assignment`` yields the class sequences of a grid in product
order, ``count_assignments`` those of given class counts in lexicographic
order, and ``qap_count_max`` maximizes a quadratic assignment value over the
latter by meet in the middle, on the halves that ``count_assignments``
joins.  A permutation is a sequence of counts (1,) * n, so the exact tiers
over relabelings, up to ``EXACT_PERM_MAX`` cells, run on these two as well.
``flip_search`` climbs by single-coordinate flips of a boolean vector and
gives a flagged lower bound; ``rectangle_search`` runs it over the rows and
columns of S x T, and ``metrics.cut_norm_real_search`` over the row sets of
the real cut norm.  ``rectangle_max`` is the exact rectangle supremum of real
block functionals, over the 2**P row sets (``measures.subset_sums``), and
``lp_rectangle_max`` the Levy-Prokhorov one built on it.
``anneal_permutation`` is simulated annealing over permutations (geometric
cooling, random-transposition proposals, exponential acceptance).  All
randomness is keyed by explicit seeds; restarts are independent and the
result is the deterministic best-of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional

import numpy as np

from . import measures
from .measures import subset_sums

__all__ = [
    "BLOCK_ROWS",
    "COOLING",
    "EXACT_PERM_MAX",
    "FLIP_STEPS",
    "SearchBudget",
    "SearchResult",
    "every_assignment",
    "count_assignments",
    "qap_count_max",
    "flip_search",
    "rectangle_search",
    "ordered_matmul",
    "rectangle_max",
    "lp_rectangle_max",
    "qap_value",
    "qap_optimize",
    "anneal_permutation",
]

EXACT_PERM_MAX = 8
BLOCK_ROWS = 4096  # rows per enumerated block
FLIP_STEPS = 64
# Geometric cooling factor per annealing step; each restart starts at a
# temperature of a quarter of its initial energy.
COOLING = 0.995


@dataclass(frozen=True)
class SearchBudget:
    """Effort knobs for the heuristic tier."""

    restarts: int = 6
    steps: int = 2000
    seed: int = 0


@dataclass(frozen=True, slots=True)
class SearchResult:
    """A searched value, its exactness flag and what attains it.

    ``certificate`` is the witness: the permutation of the ``refinement``-cell
    uniform grid that relabels the second kernel to (approximately) best
    match the first, for the unlabeled distances; the row set, or the (S, T)
    pair, of a rectangle search; the ``OverlapMatrix`` of a graph overlay.
    ``lower`` and ``upper`` bracket the true value where a bracket is cheap
    (``lp_distance_estimate``, whose value is its upper end).  When
    ``exact`` is False, a maximization (cut norms, labeled cut distances,
    overlays) reports a lower bound; a minimization over relabelings (the
    unlabeled distances) reports the best labeled distance found, an upper
    bound only insofar as the labeled evaluations themselves were exact.
    """

    value: float
    exact: bool
    certificate: object = None
    refinement: Optional[int] = None
    lower: Optional[float] = None
    upper: Optional[float] = None

    @property
    def permutation(self):
        """The certificate, under the name unlabeled-distance callers read."""
        return self.certificate

    def to_jsonable(self) -> dict:
        # an overlay's OverlapMatrix certificate is written as its rho rows
        cert = getattr(self.certificate, "rho", self.certificate)
        if isinstance(cert, np.ndarray):
            cert = cert.tolist()
        elif isinstance(cert, tuple):
            cert = [c.tolist() if isinstance(c, np.ndarray) else c for c in cert]
        out = {"value": self.value, "exact": self.exact, "certificate": cert}
        for name in ("refinement", "lower", "upper"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out


def every_assignment(n: int, k: int) -> Iterator[np.ndarray]:
    """The k**n rows of ``itertools.product(range(k), repeat=n)``, in its
    order, as (<= BLOCK_ROWS, n) arrays: row i is i counted in base k."""
    total, powers = k**n, k ** np.arange(n - 1, -1, -1)
    for start in range(0, total, BLOCK_ROWS):
        yield np.arange(start, min(start + BLOCK_ROWS, total))[:, None] // powers % k


@lru_cache(maxsize=64)
def _halves(n: int, counts: tuple):
    """Both halves of the length-n class sequences with these counts: ``left``
    (the first n // 2 positions) in product order, ``right`` stably sorted by
    class counts, keyed in the mixed radix counts + 1.  Left row i joins
    right rows lo[i]:hi[i], of the complementary counts; rows that join none
    are left out, so negative counts or counts not summing to n give none.
    For ``qap_count_max`` also ``by_class``, the left rows stably sorted by
    count class; the one-hot left rows in that order and the one-hot right
    rows; and one span (a, b, lo, hi) per class, whose left rows
    by_class[a:b] join right rows lo:hi.  Oracles repeat their grids, so the
    read-only arrays are kept per shape.
    """
    counts = np.asarray(counts, dtype=np.int64)
    live = np.flatnonzero(counts > 0)  # absent classes are never enumerated
    k, radix = live.size, np.cumprod(np.concatenate([[1], counts[live] + 1]))
    halves = []
    for m in (n // 2, n - n // 2):
        digits = np.concatenate([*every_assignment(m, k), np.zeros((0, m), np.intp)])
        have = np.bincount((digits + k * np.arange(len(digits))[:, None]).ravel(),
                           minlength=len(digits) * k).reshape(len(digits), k)
        fits = (have <= counts[live]).all(axis=1) & (counts >= 0).all()
        halves.append((live[digits[fits]], have[fits] @ radix[:-1]))
    (left, need), (right, key) = halves
    order = np.argsort(key, kind="stable")
    lo, hi = (np.searchsorted(key[order], radix[-1] - 1 - need, side=s) for s in ("left", "right"))
    left, right, lo, hi = left[hi > lo], right[order], lo[hi > lo], hi[hi > lo]
    by_class = np.argsort(lo, kind="stable")  # each class keeps its product order
    firsts = np.flatnonzero(np.diff(lo[by_class], prepend=-1)).tolist()
    spans = tuple((a, b, int(lo[by_class[a]]), int(hi[by_class[a]]))
                  for a, b in zip(firsts, firsts[1:] + [len(left)]))
    x_left, x_right = _one_hot(left[by_class], counts.size), _one_hot(right, counts.size)
    out = left, right, lo, hi, by_class, x_left, x_right
    for a in out:
        a.setflags(write=False)
    return out + (spans,)


def count_assignments(n: int, counts) -> Iterator[np.ndarray]:
    """Every length-n class sequence with the given class counts, as
    (<= BLOCK_ROWS, n) arrays in lexicographic order: each left half of
    ``_halves`` in turn, joined with each of its right halves.  The
    permutations of range(n), in lexicographic order, are the counts
    (1,) * n."""
    left, right, lo, hi = _halves(n, tuple(counts))[:4]
    ends = np.cumsum(hi - lo)
    for start in range(0, int(ends[-1:].sum()), BLOCK_ROWS):
        at = np.arange(start, min(start + BLOCK_ROWS, int(ends[-1])))
        i = np.searchsorted(ends, at, side="right")
        yield np.concatenate([left[i], right[hi[i] - ends[i] + at]], axis=1)


def _one_hot(rows: np.ndarray, k: int) -> np.ndarray:
    """The (R, n * k) one-hot form of an (R, n) block of classes in range(k)."""
    x = np.zeros((rows.shape[0], rows.shape[1] * k))
    x[np.arange(rows.shape[0])[:, None], rows + k * np.arange(rows.shape[1])] = 1.0
    return x


def qap_count_max(table: np.ndarray, counts) -> tuple[float, Optional[np.ndarray]]:
    """Largest sum_(a,b) table[a, b, z[a], z[b]] over the class sequences z
    with these counts, and the lexicographically first sequence attaining
    it; no sequence gives (-inf, None).  ``table`` is (n, n, k, k), with k
    the number of counts.

    Meet in the middle (Horowitz-Sahni): with c the table as an (n k, n k)
    matrix and a one-hot row x = (x_L, x_R) split as in ``_halves``, the
    value x c x^T = v_L + v_R + x_L M x_R^T, M the sum of the off-diagonal
    blocks of c.  Each half is valued once on its diagonal block, and each
    left count class meets its right rows in one product, whose row-major
    argmax is first in order.
    """
    n, k = table.shape[1:3]
    left, right, _, _, by_class, xl, xr, spans = _halves(n, tuple(counts))
    if len(left) == 0:
        return -np.inf, None
    c, s = table.transpose(0, 2, 1, 3).reshape(n * k, n * k), n // 2 * k
    vl, vr = np.einsum("ij,ij->i", xl @ c[:s, :s], xl), np.einsum("ij,ij->i", xr @ c[s:, s:], xr)
    xm = xl @ (c[:s, s:] + c[s:, :s].T)
    best, where = -np.inf, None
    for a, b, start, stop in spans:
        vals = vl[a:b, None] + vr[start:stop] + xm[a:b] @ xr[start:stop].T
        i, j = divmod(int(vals.argmax()), stop - start)
        # a tie across classes goes to the first left half
        if vals[i, j] > best or (vals[i, j] == best and by_class[a + i] < where[0]):
            best, where = float(vals[i, j]), (by_class[a + i], start + j)
    return best, np.concatenate([left[where[0]], right[where[1]]])


def flip_search(
    scan: Callable[[np.ndarray], tuple[float, np.ndarray]],
    length: int,
    budget: SearchBudget,
    key: int,
) -> tuple[float, Optional[np.ndarray]]:
    """Best-improvement flip search over boolean vectors; a lower bound.

    ``scan(x)`` returns the objective at ``x`` and an array of its values
    after flipping each single coordinate.  Restart 0 starts from all-ones,
    later restarts from seeded random vectors (``spawn_key=(key, r)``).  Each
    restart takes the best flip while it improves by more than 1e-15, for at
    most FLIP_STEPS flips.  Returns the best value found, at least 0.0, and
    the vector attaining it (None if no restart exceeded 0.0).
    """
    best, best_x = 0.0, None
    for r in range(budget.restarts):
        if r == 0:
            x = np.ones(length, dtype=bool)
        else:
            rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(key, r)))
            x = rng.random(length) < 0.5
        for _ in range(FLIP_STEPS):
            value, flips = scan(x)
            i = int(np.argmax(flips))
            if flips[i] <= value + 1e-15:
                break
            x[i] = ~x[i]
        else:
            value, _ = scan(x)
        if value > best:
            best, best_x = value, x.copy()
    return best, best_x


def rectangle_search(
    blocks_u: np.ndarray,
    blocks_w: np.ndarray,
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget: SearchBudget,
    key: int,
) -> tuple[float, Optional[tuple[np.ndarray, np.ndarray]]]:
    """Flip search for the rectangle S x T maximizing the objective.

    ``blocks_u`` and ``blocks_w`` are (P, P, m) block masses; ``objective``
    maps two (B, m) arrays of rectangle masses to B values.  Flipping row i
    changes the rectangle mass by +-(row i over T), flipping column j by
    +-(column j over S), so one scan prices all 2P flips with three
    contractions per kernel.  Returns the best value and its (S, T) pair
    (None if no rectangle beat 0.0).
    """
    p = blocks_u.shape[0]

    def scan(x):
        s, t = x[:p].astype(float), x[p:].astype(float)
        sign = np.where(x, -1.0, 1.0)[:, None]
        masses, flips = [], []
        for blocks in (blocks_u, blocks_w):
            mass = np.einsum("p,pqm,q->m", s, blocks, t)
            rows, cols = np.einsum("pqm,q->pm", blocks, t), np.einsum("p,pqm->qm", s, blocks)
            masses.append(mass[None, :])
            flips.append(mass + sign * np.concatenate([rows, cols]))
        return float(objective(*masses)[0]), objective(*flips)

    value, x = flip_search(scan, 2 * p, budget, key)
    return value, None if x is None else (x[:p], x[p:])


def ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for an (..., n) stack and an (n, F) matrix, each entry a left
    fold over n in ascending order.

    BLAS may round the same entry differently for other matrix shapes; this
    form makes an entry depend only on its own row and column, whatever the
    stack or chunk it is computed in.
    """
    out = np.zeros(a.shape[:-1] + b.shape[1:])
    for i in range(a.shape[-1]):
        out += a[..., i, None] * b[i]
    return out


def rectangle_max(blocks: np.ndarray) -> np.ndarray:
    """Exact rectangle suprema of a stack of real block functionals.

    ``blocks`` is (C, P, P, F); returns the (C, F) maxima over row sets S
    and column sets T of the sum of blocks[c, p, q, f] over S x T.  For a
    fixed S the best T keeps the positive column sums (Frieze-Kannan), so
    only the 2**P row sets are enumerated, in chunks of about
    ``measures.LP_CHUNK`` entries.  Each row set adds its rows in ascending
    order and each value sums its columns in one fixed order, so the result
    does not depend on the chunk size or on C.
    """
    c, p, q, f = blocks.shape
    group = max(1, measures.LP_CHUNK // (f * q << p))  # members whose tables fit a chunk
    if c > group:
        return np.concatenate([rectangle_max(blocks[i : i + group]) for i in range(0, c, group)])
    rows = np.ascontiguousarray(blocks.transpose(1, 0, 3, 2)).reshape(p, -1)
    low = min(p, max(0, (measures.LP_CHUNK // rows.shape[1]).bit_length() - 1))
    table = subset_sums(rows[:low])
    best = np.zeros((c, f))
    for high in range(1 << (p - low)):
        sums = table
        for b in range(p - low):
            if high >> b & 1:
                sums = np.add(sums, rows[low + b], out=None if sums is table else sums)
        cols = np.maximum(sums, 0.0, out=None if sums is table else sums).reshape(-1, c, f, q)
        np.maximum(best, cols.sum(axis=3).max(axis=0), out=best)
    return best


def lp_rectangle_max(space, blocks_u: np.ndarray, blocks_w: np.ndarray) -> np.ndarray:
    """Levy-Prokhorov rectangle suprema between stacks of block masses.

    ``blocks_u`` and ``blocks_w`` are nonnegative (C, P, P, m) stacks, either
    may be a single (1, P, P, m) entry; returns the (C,) suprema over S x T of
    the distance between the two S x T masses.  On threshold interval r a
    pair needs eps at least its gap G_r, the largest mu(U) - nu(U^r) or
    nu(U) - mu(U^r) over U, and G_r does not grow with r; so a pair's
    distance is max(G_r, t_r) at the first r with G_r <= t_(r+1), and the
    supremum over rectangles is the same scan on the rectangle suprema of the
    gaps.  It scans upward where ``measures.lp_distance_batch`` bisects,
    because rectangle suprema stop at the first few thresholds (r = 1-4 on
    the cut distances of 3-5 parts at m = 6-8), below a bisection's first
    probe.  Only closed U can attain a gap.  The masses of every subset are
    one ``measures.subset_sums`` fold when they fit in 32 *
    ``measures.LP_CHUNK`` entries a side; otherwise each chunk of closed U
    forms its own, within 64 * LP_CHUNK gap entries, so large spaces stay in
    memory.  A product with the 0/1 bits of U is the same left fold, so both
    give the same bits.
    """
    thresholds = space.thresholds()
    points = np.arange(space.size)[:, None]
    budget = measures.LP_CHUNK << 5
    whole = max(len(blocks_u), len(blocks_w)) * blocks_u[0, ..., 0].size << space.size <= budget
    if whole:
        blocks_u, blocks_w = subset_sums(blocks_u, axis=-1), subset_sums(blocks_w, axis=-1)

    def mass(blocks, subsets):
        return blocks[..., subsets] if whole else ordered_matmul(blocks, subsets >> points & 1)

    out = np.empty(max(len(blocks_u), len(blocks_w)))
    todo = np.arange(out.size)
    for r, t in enumerate(thresholds):
        sets, near = space._closed_sets(r)
        bu = blocks_u if len(blocks_u) == 1 else blocks_u[todo]
        bw = blocks_w if len(blocks_w) == 1 else blocks_w[todo]
        step = max(1, budget // (todo.size * bu[0, ..., 0].size))
        value = np.zeros(todo.size)
        for i in range(0, sets.size, step):
            inner, outer = sets[i : i + step], near[i : i + step]
            gaps = np.concatenate(
                [mass(bu, inner) - mass(bw, outer), mass(bw, inner) - mass(bu, outer)], axis=3
            )
            np.maximum(value, rectangle_max(gaps).max(axis=1), out=value)
        done = value <= (thresholds[r + 1] if r + 1 < len(thresholds) else np.inf)
        out[todo[done]] = np.maximum(value[done], t)
        todo = todo[~done]
        if todo.size == 0:
            break
    return out


def qap_value(interactions: np.ndarray, perm: np.ndarray) -> float:
    """Sum over (a, b) of interactions[a, b, perm[a], perm[b]]."""
    n = perm.size
    idx = np.ix_(np.arange(n), np.arange(n))
    return float(interactions[idx[0], idx[1], perm[:, None], perm[None, :]].sum())


def qap_optimize(interactions: np.ndarray, budget: Optional[SearchBudget] = None) -> SearchResult:
    """Maximize sum_(a,b) interactions[a, b, perm(a), perm(b)] over permutations.

    Exhaustive (exact) up to EXACT_PERM_MAX cells, as ``qap_count_max`` over
    the class sequences of counts (1,) * n; annealed and flagged beyond.
    Both tiers report ``qap_value`` at the certificate.
    """
    n = interactions.shape[0]
    if n <= EXACT_PERM_MAX:
        perm = qap_count_max(interactions, (1,) * n)[1]
        return SearchResult(qap_value(interactions, perm), True, perm)
    perm, value = anneal_permutation(
        n, lambda p: qap_value(interactions, p), budget or SearchBudget(), minimize=False
    )
    return SearchResult(value, False, perm)


def anneal_permutation(
    n: int,
    energy_fn: Callable[[np.ndarray], float],
    budget: SearchBudget,
    minimize: bool = True,
) -> tuple[np.ndarray, float]:
    """Generic annealing over permutations with a black-box energy."""
    sign = -1.0 if minimize else 1.0
    best_perm = None
    best_val = -np.inf
    for r in range(budget.restarts):
        rng = np.random.default_rng(np.random.SeedSequence(budget.seed, spawn_key=(r,)))
        perm = rng.permutation(n)
        energy = sign * energy_fn(perm)
        temp = max(abs(energy) * 0.25, 1e-6)
        local_val, local_perm = energy, perm.copy()
        for _ in range(budget.steps):
            u, v = rng.choice(n, size=2, replace=False)
            cand = perm.copy()
            cand[u], cand[v] = perm[v], perm[u]
            cand_energy = sign * energy_fn(cand)
            delta = cand_energy - energy
            if delta >= 0 or rng.random() < math.exp(delta / max(temp, 1e-12)):
                perm, energy = cand, cand_energy
                if energy > local_val:
                    local_val, local_perm = energy, perm.copy()
            temp *= COOLING
        if local_val > best_val:
            best_val, best_perm = local_val, local_perm
    return best_perm, sign * best_val
