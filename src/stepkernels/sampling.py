"""Random decorated graphs sampled from a probability kernel, and the
empirical kernels they induce.

Latent vertex positions are uniform on [0,1]; each directed edge draws a
decoration from the kernel's conditional at the endpoint pair.  Randomness
comes from a counter-based generator (Philox) keyed by the seed, with
positions and edge uniforms on separate keys so the symmetric and directed
modes share vertex positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence, Union

import numpy as np

from .kernels import RealStepKernel, StepKernel, relabel, uniform_refine
from .measures import DecorationSpace
from .metrics import cut_norm_real_search, delta_cut
from .overlay import overlay_graph, f_overlay
from .quotients import hausdorff, quotient_cloud
from .search import SearchBudget, SearchResult, anneal_permutation

__all__ = [
    "KernelMixture",
    "DecoratedSample",
    "sample_graph",
    "empirical_kernel",
    "mixture_delta_n",
    "convergence_run",
]

SIMPLEX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class KernelMixture:
    """Finite decomposition sum_i f_i w_i with [0,1]-valued weight kernels.

    The weight kernels share one part structure and sum to 1 on every block;
    a deficit up to 1 is absorbed by appending a zero decoration class.
    Identifying class i with the Dirac mass at the i-th point of a discrete
    space turns the mixture into a probability step kernel.
    """

    labels: tuple
    weights: tuple

    def __init__(self, weights: Sequence[RealStepKernel], labels=None):
        ws = list(weights)
        if not ws:
            raise ValueError("mixture needs at least one component")
        lam = ws[0].part_sizes
        for w in ws[1:]:
            if w.part_sizes.shape != lam.shape or np.abs(w.part_sizes - lam).max() > 1e-9:
                raise ValueError("mixture components must share one part structure")
        stack = np.stack([w.values for w in ws])
        if stack.min() < -SIMPLEX_TOL or stack.max() > 1.0 + SIMPLEX_TOL:
            raise ValueError("mixture weights must take values in [0, 1]")
        total = stack.sum(axis=0)
        if total.max() > 1.0 + SIMPLEX_TOL:
            raise ValueError("mixture weights exceed 1 on some block")
        if labels is None:
            labels = tuple(range(len(ws)))
        else:
            labels = tuple(labels)
            if len(labels) != len(ws):
                raise ValueError("one label per component required")
        if total.min() < 1.0 - SIMPLEX_TOL:
            rest = RealStepKernel(lam, np.clip(1.0 - total, 0.0, None))
            ws.append(rest)
            labels = labels + ("rest",)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def part_sizes(self) -> np.ndarray:
        return self.weights[0].part_sizes

    def space(self) -> DecorationSpace:
        return DecorationSpace.discrete(self.labels)

    def to_step_kernel(self) -> StepKernel:
        """The identified probability kernel over the discrete label space."""
        entries = np.stack([w.values for w in self.weights], axis=2)
        return StepKernel(self.space(), self.part_sizes, entries)


@dataclass(frozen=True, eq=False)
class DecoratedSample:
    """A sampled decorated graph on n vertices.

    ``labels[j, k]`` indexes the decoration drawn for the directed edge
    (j, k), and is stored in the smallest unsigned type that holds every
    point of the space.  Diagonal draws exist only to keep the empirical
    kernel total; the graph itself has no self-loops.  In symmetric mode the
    lower triangle governs: labels[j, k] == labels[k, j].
    """

    space: DecorationSpace
    positions: np.ndarray
    labels: np.ndarray
    seed: int
    symmetric: bool

    def __init__(self, space, positions, labels, seed, symmetric):
        x = np.asarray(positions, dtype=float)
        lab = np.asarray(labels, dtype=np.intp)
        n = x.size
        if lab.shape != (n, n):
            raise ValueError("labels must be an (n, n) matrix")
        if symmetric and not np.array_equal(lab, lab.T):
            raise ValueError("symmetric sample must have symmetric labels")
        if lab.min(initial=0) < 0 or lab.max(initial=0) >= space.size:
            raise ValueError(f"labels must index the {space.size} decoration points")
        lab = lab.astype(np.min_scalar_type(space.size - 1))
        x.setflags(write=False)
        lab.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "labels", lab)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "symmetric", bool(symmetric))

    @property
    def n(self) -> int:
        return self.positions.size


def _positions_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))

def _edges_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 1]))


def _conditional_probs(model: Union[StepKernel, KernelMixture], parts: np.ndarray) -> np.ndarray:
    """(n, n, m) conditional decoration distribution per directed edge."""
    if isinstance(model, KernelMixture):
        stack = np.stack([w.values for w in model.weights], axis=2)
        probs = stack[np.ix_(parts, parts)]
    else:
        if model.kind != "probability":
            raise ValueError("sampling needs a probability kernel")
        probs = model.entries[np.ix_(parts, parts)]
    if probs.min() < -SIMPLEX_TOL or np.abs(probs.sum(axis=2) - 1.0).max() > SIMPLEX_TOL:
        raise ValueError("edge conditionals must be probability vectors")
    return np.clip(probs, 0.0, None)


def sample_graph(
    model: Union[StepKernel, KernelMixture],
    n: int,
    seed: int = 0,
    symmetric: bool = False,
) -> DecoratedSample:
    """Draw a decorated graph with i.i.d. uniform latent positions.

    Fixed seed gives a bit-identical sample; the directed and symmetric
    modes share positions and edge uniforms, the symmetric mode copying the
    lower-triangle draws onto the upper triangle.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    space = model.space() if isinstance(model, KernelMixture) else model.space
    part_sizes = model.part_sizes
    x = _positions_rng(seed).random(n)
    bounds = np.cumsum(np.asarray(part_sizes, dtype=float))[:-1]
    parts = np.searchsorted(bounds, x, side="right")
    uniforms = _edges_rng(seed).random((n, n))
    probs = _conditional_probs(model, parts)
    cum = np.cumsum(probs, axis=2)
    cum[:, :, -1] = 1.0
    labels = (uniforms[:, :, None] > cum).sum(axis=2)
    labels = np.minimum(labels, probs.shape[2] - 1)
    if symmetric:
        lower = np.tril_indices(n, k=-1)
        labels[lower[1], lower[0]] = labels[lower]
    return DecoratedSample(space, x, labels, seed, symmetric)


def empirical_kernel(sample: DecoratedSample) -> StepKernel:
    """Dirac-decorated step kernel on n equal parts read off a sample."""
    n = sample.n
    m = sample.space.size
    entries = np.eye(m)[sample.labels]
    return StepKernel(sample.space, np.full(n, 1.0 / n), entries)


def mixture_delta_n(
    model: KernelMixture,
    sample: DecoratedSample,
    budget: Optional[SearchBudget] = None,
) -> SearchResult:
    """Componentwise cut-norm distance between a mixture and a sample.

    Minimizes, over relabelings of the sampled vertex blocks, the sum of
    real cut norms between each weight kernel and the indicator kernel of
    the matching decoration class.  Constant mixtures need no search.
    """
    budget = budget or SearchBudget()
    n = sample.n
    indicators = [
        RealStepKernel(np.full(n, 1.0 / n), (sample.labels == i).astype(float))
        for i in range(model.n_components)
    ]
    refined = [uniform_refine(w, n) for w in model.weights]

    def norm_sum(components):
        total = 0.0
        all_exact = True
        for w, h in components:
            res = cut_norm_real_search(RealStepKernel(h.part_sizes, w.values - h.values), budget)
            total += res.value
            all_exact = all_exact and res.exact
        return total, all_exact

    constant = all(np.ptp(w.values) <= 1e-12 for w in model.weights)
    if constant or n <= 1:
        value, exact = norm_sum(list(zip(refined, indicators)))
        return SearchResult(value, exact, np.arange(n, dtype=np.intp), refinement=n)

    def energy(perm):
        return norm_sum([(w, relabel(h, perm)) for w, h in zip(refined, indicators)])[0]

    perm, value = anneal_permutation(n, energy, budget, minimize=True)
    return SearchResult(value, False, perm, refinement=n)


def _cell_seed(seed: int, n: int, trial: int) -> int:
    ss = np.random.SeedSequence(seed, spawn_key=(n, trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def convergence_run(
    model,
    n_schedule,
    trials: int,
    seed: int = 0,
    metrics=("delta_lp",),
    fam=None,
    graph=None,
    partner=None,
    quotient_k: int = 2,
    cloud_count: int = 24,
    symmetric: bool = False,
    budget: Optional[SearchBudget] = None,
) -> list[dict]:
    """Sample at each schedule size and measure convergence statistics.

    Emits one row per (n, trial, metric) with the computed value and its
    exactness flag.  Supported metrics: ``delta_lp`` and ``delta_f``
    (unlabeled cut distance between the empirical kernel and the model),
    ``delta_n`` (componentwise real cut norms, mixtures only), ``overlay``
    (graph overlay against ``graph``), ``foverlay`` (family overlay against
    ``partner``), and ``dhaus`` (cloud Hausdorff distance between quotient
    skeletons of the empirical kernel and the model).  A ``dhaus`` row is
    flagged exact because the distance between its two finite clouds is;
    as a distance between the quotient sets it is a sampled estimate.
    """
    budget = budget or SearchBudget()
    n_schedule = list(n_schedule)
    if any(b <= a for a, b in zip(n_schedule, n_schedule[1:])):
        raise ValueError("n_schedule must be strictly ascending")
    target = model.to_step_kernel() if isinstance(model, KernelMixture) else model
    target_cloud = None
    if "dhaus" in metrics:
        # mass grid fine enough that every schedule size lands on it
        grid = 1
        for n in n_schedule:
            grid = grid * n // gcd(grid, n)
        target_cloud = quotient_cloud(
            target, quotient_k, mode="alpha_grid", cells=grid, count=cloud_count
        )
    rows: list[dict] = []
    for n in n_schedule:
        for trial in range(trials):
            cell_seed = _cell_seed(seed, n, trial)
            sample = sample_graph(model, n, cell_seed, symmetric=symmetric)
            emp = empirical_kernel(sample)
            for metric in metrics:
                if metric in ("delta_lp", "delta_f"):
                    res = delta_cut(
                        emp,
                        target,
                        metric="lp" if metric == "delta_lp" else "f",
                        fam=fam,
                        budget=budget,
                    )
                    value, exact = res.value, res.exact
                elif metric == "delta_n":
                    if not isinstance(model, KernelMixture):
                        raise ValueError("delta_n needs a KernelMixture model")
                    res = mixture_delta_n(model, sample, budget)
                    value, exact = res.value, res.exact
                elif metric == "overlay":
                    if graph is None:
                        raise ValueError("metric 'overlay' needs a decorated graph")
                    res = overlay_graph(emp, graph, budget)
                    value, exact = res.value, res.exact
                elif metric == "foverlay":
                    if partner is None or fam is None:
                        raise ValueError("metric 'foverlay' needs partner and fam")
                    res = f_overlay(emp, partner, fam, budget)
                    value, exact = res.value, res.exact
                elif metric == "dhaus":
                    emp_cloud = quotient_cloud(
                        emp,
                        quotient_k,
                        mode="sample",
                        count=max(cloud_count, n + 1),
                        seed=cell_seed,
                    )
                    value = hausdorff(emp_cloud, target_cloud, metric="dsquare")
                    exact = True
                else:
                    raise ValueError(f"unknown experiment metric {metric!r}")
                rows.append(
                    {
                        "n": int(n),
                        "trial": int(trial),
                        "metric": metric,
                        "value": float(value),
                        "exact": bool(exact),
                    }
                )
    return rows


