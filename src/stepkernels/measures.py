"""Finite decoration spaces, signed measures on them, and metrics for weak convergence.

Measures on a finite metric space are dense weight vectors indexed by the
space's points.  Two metrizations of weak convergence are provided: the exact
Levy-Prokhorov distance (a bisection over the thresholds for the first
feasible one, each probe a pass over the closed subsets, so only practical
for small spaces) and the norm induced by a finite family of [0,1]-valued
test functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .search import SearchResult

__all__ = [
    "ABS_TOL",
    "LP_CHUNK",
    "LP_EXACT_MAX_POINTS",
    "DecorationSpace",
    "SignedMeasure",
    "TestFamily",
    "SpaceMismatchError",
    "dirac",
    "integrate",
    "hahn_jordan",
    "tv_distance",
    "f_norm",
    "f_distance",
    "lp_distance",
    "lp_distance_batch",
    "lp_feasible",
    "lp_distance_estimate",
    "subset_sums",
]

ABS_TOL = 1e-12
# 2**m subsets are enumerated when computing the Levy-Prokhorov distance.
LP_EXACT_MAX_POINTS = 20
# Entries per chunk of the bulk enumerations, so that their work arrays stay
# in cache: subset masses (2**m per row) per chunk of member pairs of a
# Hausdorff comparison, and row-set sums per chunk of search.rectangle_max;
# 2**14 ran faster than 2**16 and 2**18 for every chunked Levy-Prokhorov
# caller.  lp_distance_batch splits a call into blocks of at most 64 times
# this many subset masses a side, only to bound its memory.
LP_CHUNK = 1 << 14
# glibc maps blocks of 128 KiB or more afresh and returns its heap top once
# 128 KiB is free there, until a large mapped block is freed; until then each
# work array of about LP_CHUNK entries faults its pages in again (250 faults
# per 5-cell delta_cut pair).  Freeing one block twice the largest table
# (64 * LP_CHUNK entries) lifts the two limits to 16 and 32 MiB.
np.empty(LP_CHUNK << 7)


class SpaceMismatchError(ValueError):
    """Raised when operands live on different decoration spaces."""


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=16)
def _subset_masks(m: int) -> np.ndarray:
    """Boolean matrix of shape (2**m, m); row s is the indicator of subset s."""
    if m > LP_EXACT_MAX_POINTS:
        raise ValueError(f"subset enumeration capped at {LP_EXACT_MAX_POINTS} points, got {m}")
    idx = np.arange(1 << m, dtype=np.uint32)
    masks = (idx[:, None] >> np.arange(m, dtype=np.uint32)) & 1
    masks = masks.astype(bool)
    masks.setflags(write=False)
    return masks


def subset_sums(rows: np.ndarray, axis: int = 0) -> np.ndarray:
    """Sums of every subset of the n entries along ``axis`` of ``rows``.

    That axis becomes one of length 2**n, laid out in place of the old one:
    entry s adds the entries in the bits of s as a left fold in ascending
    order, so no sum depends on the other axes or on their sizes.  This is
    the one way subset masses and rectangle aggregates are formed.
    """
    n = rows.shape[axis]
    shape = list(rows.shape)
    shape[axis] = 1 << n
    table = np.empty(shape)
    rows, sums = rows.swapaxes(axis, 0), table.swapaxes(axis, 0)
    sums[0] = 0.0
    for b in range(n):
        np.add(sums[: 1 << b], rows[b], out=sums[1 << b : 2 << b])
    return table


@dataclass(frozen=True, eq=False)
class DecorationSpace:
    """A finite metric space whose points decorate graph edges.

    ``dist`` must be symmetric, zero exactly on the diagonal, strictly
    positive off it, and satisfy the triangle inequality.
    """

    points: tuple
    dist: np.ndarray

    def __init__(self, points, dist):
        points = tuple(points)
        if len(points) < 1:
            raise ValueError("a decoration space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("decoration point labels must be distinct")
        d = np.array(dist, dtype=float)
        m = len(points)
        if d.shape != (m, m):
            raise ValueError(f"distance matrix must be {m}x{m}, got {d.shape}")
        if not np.all(np.isfinite(d)):
            raise ValueError("distances must be finite")
        if np.abs(d - d.T).max(initial=0.0) > ABS_TOL:
            raise ValueError("distance matrix must be symmetric")
        d = (d + d.T) / 2.0
        if np.abs(np.diag(d)).max(initial=0.0) > ABS_TOL:
            raise ValueError("distance matrix must vanish on the diagonal")
        np.fill_diagonal(d, 0.0)
        off = d[~np.eye(m, dtype=bool)]
        if off.size and off.min() <= 0.0:
            raise ValueError("off-diagonal distances must be strictly positive")
        # triangle inequality, O(m^3): d[i,j] <= min_k d[i,k] + d[k,j]
        via = d[:, :, None] + d[None, :, :]
        if (d - via.min(axis=1)).max() > 1e-9:
            raise ValueError("distance matrix violates the triangle inequality")
        d.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "_cache", {})

    @property
    def size(self) -> int:
        return len(self.points)

    def same_as(self, other: "DecorationSpace") -> bool:
        return self is other or (
            self.points == other.points and np.array_equal(self.dist, other.dist)
        )

    def require_same(self, other: "DecorationSpace") -> None:
        if not self.same_as(other):
            raise SpaceMismatchError("operands live on different decoration spaces")

    def thresholds(self) -> np.ndarray:
        """Sorted distinct distance values, always starting at 0."""
        key = "thresholds"
        if key not in self._cache:
            # np.unique would import numpy.ma (about 1.3 MB resident) on
            # first use; sorting and dropping repeats gives the same array
            t = np.sort(self.dist, axis=None)
            self._cache[key] = _frozen(t[np.concatenate([[True], t[1:] != t[:-1]])])
        return self._cache[key]

    def index(self, point) -> int:
        return self.points.index(point)

    def _closed_sets(self, r: int):
        """Nonempty closed subsets at threshold r and their t_r-enlargements.

        U is closed when it holds every point whose enlargement lies inside
        U's; only closed U can attain a Levy-Prokhorov gap.  Returns two int
        arrays of subset indices (bit x for point x): the closed U, and U^r.

        The closure of U is the complement of the enlargement of the
        complement of U^r: x leaves it exactly when some point within t_r of
        x lies outside U^r, and as ``dist`` is symmetric those points are the
        enlargement of that complement (the Galois closure of a symmetric
        relation).  So it is two gathers of the enlargement table.
        """
        key = ("closed", r)
        if key not in self._cache:
            within = self.dist <= self.thresholds()[r] + ABS_TOL
            single = within.astype(np.intp) @ (1 << np.arange(self.size))
            near = np.zeros(1 << self.size, dtype=np.intp)
            for x in range(self.size):
                np.bitwise_or(near[: 1 << x], single[x], out=near[1 << x : 2 << x])
            full = near.size - 1
            held = full ^ near[full ^ near]
            sets = np.flatnonzero(held == np.arange(near.size))[1:]
            self._cache[key] = (_frozen(sets, np.intp), _frozen(near[sets], np.intp))
        return self._cache[key]

    @classmethod
    def two_point(cls, labels=(0, 1), distance: float = 1.0) -> "DecorationSpace":
        return cls(labels, [[0.0, distance], [distance, 0.0]])

    @classmethod
    def discrete(cls, labels) -> "DecorationSpace":
        """All off-diagonal distances equal to 1."""
        labels = tuple(labels)
        m = len(labels)
        d = np.ones((m, m)) - np.eye(m)
        return cls(labels, d)

    def __repr__(self):
        return f"DecorationSpace({list(self.points)!r})"


@dataclass(frozen=True, eq=False)
class SignedMeasure:
    """A finite signed measure on a DecorationSpace, stored as a weight vector."""

    space: DecorationSpace
    weights: np.ndarray

    def __init__(self, space: DecorationSpace, weights):
        w = np.array(weights, dtype=float)
        if w.shape != (space.size,):
            raise ValueError(f"weights must have shape ({space.size},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "weights", w)

    def total_variation(self) -> float:
        return float(np.abs(self.weights).sum())

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def is_nonnegative(self, tol: float = ABS_TOL) -> bool:
        return bool(self.weights.min(initial=0.0) >= -tol)

    def is_probability(self, tol: float = ABS_TOL) -> bool:
        return self.is_nonnegative(tol) and abs(self.total_mass() - 1.0) <= tol

    def variation(self) -> "SignedMeasure":
        return SignedMeasure(self.space, np.abs(self.weights))

    def approx_eq(self, other: "SignedMeasure", tol: float = ABS_TOL) -> bool:
        self.space.require_same(other.space)
        return bool(np.abs(self.weights - other.weights).max(initial=0.0) <= tol)

    def __add__(self, other: "SignedMeasure") -> "SignedMeasure":
        self.space.require_same(other.space)
        return SignedMeasure(self.space, self.weights + other.weights)

    def __sub__(self, other: "SignedMeasure") -> "SignedMeasure":
        self.space.require_same(other.space)
        return SignedMeasure(self.space, self.weights - other.weights)

    def __mul__(self, c: float) -> "SignedMeasure":
        return SignedMeasure(self.space, self.weights * float(c))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SignedMeasure({np.array2string(self.weights, precision=6)})"


def dirac(space: DecorationSpace, point) -> SignedMeasure:
    w = np.zeros(space.size)
    w[space.index(point)] = 1.0
    return SignedMeasure(space, w)


@dataclass(frozen=True, eq=False)
class TestFamily:
    """An ordered family f_0..f_K of [0,1]-valued functions with f_0 == 1.

    The value matrix must have full column rank, which on a finite space is
    exactly the separating property: no two distinct measures integrate every
    member identically.
    """

    __test__ = False  # not a pytest case despite the name

    space: DecorationSpace
    values: np.ndarray

    def __init__(self, space: DecorationSpace, values):
        v = np.array(values, dtype=float)
        if v.ndim != 2 or v.shape[1] != space.size:
            raise ValueError(f"values must be (K+1, {space.size}), got {v.shape}")
        if v.shape[0] < 1:
            raise ValueError("family must contain at least f_0")
        if v.min() < -ABS_TOL or v.max() > 1.0 + ABS_TOL:
            raise ValueError("family functions must take values in [0, 1]")
        if np.abs(v[0] - 1.0).max() > ABS_TOL:
            raise ValueError("f_0 must be the constant function 1")
        if np.linalg.matrix_rank(v, tol=1e-10) < space.size:
            raise ValueError("family value matrix must have full column rank (separating)")
        v.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def function(self, k: int) -> np.ndarray:
        return self.values[k]

    def scale_weights(self) -> np.ndarray:
        """Geometric weights 2**-k applied to the k-th integral."""
        return 2.0 ** (-np.arange(len(self), dtype=float))

    @classmethod
    def default(cls, space: DecorationSpace) -> "TestFamily":
        """The constant 1 followed by the indicators of singletons."""
        return cls(space, np.vstack([np.ones(space.size), np.eye(space.size)]))

    @classmethod
    def two_point(cls, space: DecorationSpace) -> "TestFamily":
        """{1, indicator of the second point}; separates measures on 2 points."""
        if space.size != 2:
            raise ValueError("two_point family requires a 2-point space")
        return cls(space, [[1.0, 1.0], [0.0, 1.0]])


def integrate(mu: SignedMeasure, f) -> float:
    """Integral of the function-vector ``f`` against ``mu``."""
    f = np.asarray(f, dtype=float)
    if f.shape != (mu.space.size,):
        raise SpaceMismatchError(
            f"function vector of length {f.shape} does not match a "
            f"{mu.space.size}-point space"
        )
    return float(mu.weights @ f)


def hahn_jordan(mu: SignedMeasure) -> tuple[SignedMeasure, SignedMeasure]:
    """Positive/negative parts; mutually singular, mu = pos - neg."""
    pos = np.maximum(mu.weights, 0.0)
    neg = np.maximum(-mu.weights, 0.0)
    return SignedMeasure(mu.space, pos), SignedMeasure(mu.space, neg)


def tv_distance(mu: SignedMeasure, nu: SignedMeasure) -> float:
    mu.space.require_same(nu.space)
    return float(np.abs(mu.weights - nu.weights).sum())


def f_norm(mu: SignedMeasure, fam: TestFamily) -> float:
    """Sum over k of 2**-k |mu(f_k)|.  Bounded by 2 * total variation."""
    mu.space.require_same(fam.space)
    return float(fam.scale_weights() @ np.abs(fam.values @ mu.weights))


def f_distance(mu: SignedMeasure, nu: SignedMeasure, fam: TestFamily) -> float:
    return f_norm(mu - nu, fam)


def _require_nonnegative(mu: SignedMeasure, name: str) -> None:
    if not mu.is_nonnegative():
        raise ValueError(f"{name} has negative weights; the Levy-Prokhorov "
                         "distance is defined for nonnegative measures only")


def lp_distance(mu: SignedMeasure, nu: SignedMeasure) -> float:
    """Exact Levy-Prokhorov distance between nonnegative measures.

    The infimum of eps such that, for every subset U, mu(U) <= nu(U^eps) + eps
    and symmetrically, where U^eps collects the points at distance < eps from
    U.  Exact up to ``LP_EXACT_MAX_POINTS`` points; beyond that use
    :func:`lp_distance_estimate`.
    """
    mu.space.require_same(nu.space)
    _require_nonnegative(mu, "mu")
    _require_nonnegative(nu, "nu")
    return float(lp_distance_batch(mu.space, mu.weights[None, :], nu.weights[None, :])[0])


def lp_distance_batch(space: DecorationSpace, mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """Exact Levy-Prokhorov distances for a batch of weight-vector pairs.

    All pairs share ``space``.  ``mus`` and ``nus`` are (B, m) nonnegative
    arrays.  Returns a (B,) array.

    On threshold interval r the enlargement U^r is constant, so a pair needs
    eps at least its gap G_r, the largest mu(U) - nu(U^r) or nu(U) - mu(U^r).
    A pair's value is max(G_r, t_r) at the first r with G_r <= t_(r+1):
    later intervals give at least t_(r+1).  G_r never grows with r, as U^r
    only grows, and the rounded masses keep that order since an ascending
    fold of nonnegative entries never shrinks on a larger set; t_(r+1)
    grows, so every r past the first feasible one is feasible too.  A
    bisection over the threshold index finds it (Strassen 1965 for the
    threshold form) in about log2 R probes a pair for R thresholds, where
    an upward scan probes every threshold below it.  Only nonempty closed U
    are probed, as for nonnegative weights no set beats its closure.  The
    2**m subset masses of a pair are one ``subset_sums`` fold, which rounds
    alike in any batch; a call is split into blocks of pairs only to keep
    each table within about 64 * ``LP_CHUNK`` entries.
    """
    m = space.size
    if m > LP_EXACT_MAX_POINTS:
        raise ValueError(
            f"exact Levy-Prokhorov distance is capped at {LP_EXACT_MAX_POINTS} "
            "points; call lp_distance_estimate for flagged bounds"
        )
    mus = np.asarray(mus, dtype=float)
    nus = np.asarray(nus, dtype=float)
    if mus.ndim != 2 or mus.shape[1] != m or nus.shape != mus.shape:
        raise ValueError("mus and nus must be (B, m) arrays over the space")
    rows = max(1, (LP_CHUNK << 6) >> m)
    if len(mus) <= rows:
        return _lp_scan(space, mus, nus)
    blocks = -(-len(mus) // rows)
    pairs = zip(np.array_split(mus, blocks), np.array_split(nus, blocks))
    return np.concatenate([_lp_scan(space, a, b) for a, b in pairs])


def _lp_scan(space: DecorationSpace, mus: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """The threshold bisection of ``lp_distance_batch`` on one block of pairs."""
    # mass of every subset, for every pair: (2**m, B)
    mu_sub = subset_sums(mus.T)
    nu_sub = subset_sums(nus.T)
    out = np.empty(len(mus))
    _lp_bisect(space, mu_sub, nu_sub, np.arange(len(mus)), 0, len(space.thresholds()), out)
    return out


def _lp_bisect(space, mu_sub, nu_sub, pairs, lo, hi, out) -> None:
    """Write to ``out`` the value of each of the ``pairs`` columns whose first
    feasible threshold lies in [lo, hi).

    Probes the lower middle r: as G_r never grows with r, the pairs feasible
    at r stop in [lo, r] and the rest in [r + 1, hi).
    """
    thresholds = space.thresholds()
    r = (lo + hi - 1) // 2
    sets, near = space._closed_sets(r)
    cols = pairs if len(pairs) < mu_sub.shape[1] else None

    def masses(table, subsets):
        # rows before columns, so no column copy of a whole table is made
        rows = table[subsets]
        return rows if cols is None else np.take(rows, cols, axis=1)

    gap = np.maximum((masses(mu_sub, sets) - masses(nu_sub, near)).max(axis=0),
                     (masses(nu_sub, sets) - masses(mu_sub, near)).max(axis=0))
    required = np.maximum(gap, 0.0)
    done = required <= (thresholds[r + 1] if r + 1 < len(thresholds) else np.inf)
    out[pairs[done]] = np.maximum(required[done], thresholds[r])
    if lo < r and done.any():
        _lp_bisect(space, mu_sub, nu_sub, pairs[done], lo, r, out)
    if r + 1 < hi and not done.all():
        _lp_bisect(space, mu_sub, nu_sub, pairs[~done], r + 1, hi, out)


def lp_feasible(mu: SignedMeasure, nu: SignedMeasure, eps: float) -> bool:
    """Definitional feasibility check of a candidate eps (2**m subsets).

    Uses the strict enlargement U^eps = {z : d(z, U) < eps}.
    """
    mu.space.require_same(nu.space)
    _require_nonnegative(mu, "mu")
    _require_nonnegative(nu, "nu")
    if eps <= 0:
        return tv_distance(mu, nu) == 0.0
    m = mu.space.size
    masks = _subset_masks(m)
    reach = mu.space.dist < eps
    enlarged = masks @ reach > 0
    mu_sub = masks @ mu.weights
    nu_sub = masks @ nu.weights
    mu_enl = enlarged @ mu.weights
    nu_enl = enlarged @ nu.weights
    ok1 = np.all(mu_sub <= nu_enl + eps + ABS_TOL)
    ok2 = np.all(nu_sub <= mu_enl + eps + ABS_TOL)
    return bool(ok1 and ok2)


def lp_distance_estimate(mu: SignedMeasure, nu: SignedMeasure) -> SearchResult:
    """Exact value when the space is small; otherwise a flagged bracket.

    The result's ``lower`` and ``upper`` bracket the distance and its value
    is ``upper``.  Beyond the exact cap the upper bound is the total
    variation distance and the lower bound comes from a greedy single-subset
    search.
    """
    from .search import SearchResult  # search imports this module

    mu.space.require_same(nu.space)
    _require_nonnegative(mu, "mu")
    _require_nonnegative(nu, "nu")
    if mu.space.size <= LP_EXACT_MAX_POINTS:
        v = lp_distance(mu, nu)
        return SearchResult(v, True, lower=v, upper=v)
    upper = tv_distance(mu, nu)
    return SearchResult(upper, False, lower=_lp_greedy_lower(mu, nu), upper=upper)


def _single_subset_requirement(space, wa, wb, subset):
    """Infimum of eps satisfying both directional constraints for one subset.

    U^t changes only at the distances d(., U), so each of its at most m + 1
    values (the empty one at -inf) is evaluated once."""
    thresholds = space.thresholds()
    near = space.dist[:, subset].min(axis=1, initial=np.inf)
    levels = np.concatenate([[-np.inf], np.unique(near)])
    mass_a, mass_b = wa[subset].sum(), wb[subset].sum()
    reqs = np.array([max(mass_a - wb[near <= v].sum(), mass_b - wa[near <= v].sum(), 0.0)
                     for v in levels])
    req = reqs[np.searchsorted(levels, thresholds + ABS_TOL, side="right") - 1]
    t_next = np.append(thresholds[1:], np.inf)
    return np.where(req <= t_next, np.maximum(req, thresholds), np.inf).min()


def _lp_greedy_lower(mu: SignedMeasure, nu: SignedMeasure, sweeps: int = 4) -> float:
    """Greedy hill-climb over single subsets; any subset yields a lower bound."""
    space = mu.space
    m = space.size
    wa, wb = mu.weights, nu.weights
    subset = wa > wb  # start where mu exceeds nu
    best = _single_subset_requirement(space, wa, wb, subset)
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            trial = subset.copy()
            trial[i] = ~trial[i]
            val = _single_subset_requirement(space, wa, wb, trial)
            if val > best + ABS_TOL:
                subset, best, improved = trial, val, True
        if not improved:
            break
    return float(best)
