"""Measure-valued, function-valued and real step kernels, and decorated graphs.

A step kernel is constant on the rectangles of a finite partition of [0,1];
it is stored as a vector of part sizes plus a (P, P, m) array of measure
weights or function values over the decoration space, or a (P, P) array of
reals.  Relabelings of [0,1] are represented by permutations of a uniform
refinement, and one ``uniform_refine`` and one ``relabel`` pull back a kernel
of any class along them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, TypeVar

import numpy as np

from .measures import (
    ABS_TOL,
    DecorationSpace,
    SignedMeasure,
    SpaceMismatchError,
)

__all__ = [
    "DEFAULT_DENOMINATOR_CAP",
    "StepKernel",
    "RealStepKernel",
    "CbStepKernel",
    "CbGraph",
    "from_real_graphon",
    "apply_function",
    "block_integral",
    "aggregate_measure",
    "uniform_refine",
    "relabel",
    "pair",
    "cb_graph_to_kernel",
    "common_refinement",
    "minimal_refinement",
]

DEFAULT_DENOMINATOR_CAP = 120
PART_TOL = 1e-9


def _check_part_sizes(part_sizes) -> np.ndarray:
    lam = np.array(part_sizes, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("part_sizes must be a non-empty vector")
    if lam.min() <= 0:
        raise ValueError("part sizes must be strictly positive")
    if abs(lam.sum() - 1.0) > ABS_TOL * max(1, lam.size):
        raise ValueError(f"part sizes must sum to 1, got {lam.sum()!r}")
    lam.setflags(write=False)
    return lam


def _classify(entries: np.ndarray) -> str:
    masses = entries.sum(axis=2)
    if entries.min() >= -ABS_TOL:
        if np.abs(masses - 1.0).max() <= 1e-9:
            return "probability"
        if masses.max() <= 1.0 + 1e-9:
            return "subprobability"
        return "nonnegative"
    return "signed"


@dataclass(frozen=True, eq=False)
class _VectorKernel:
    """Part sizes plus a (P, P, m) array of vectors over a decoration space."""

    space: DecorationSpace
    part_sizes: np.ndarray
    entries: np.ndarray

    def __init__(self, space: DecorationSpace, part_sizes, entries):
        lam = _check_part_sizes(part_sizes)
        e = np.array(entries, dtype=float)
        p = lam.size
        if e.shape != (p, p, space.size):
            raise ValueError(
                f"entries must have shape ({p}, {p}, {space.size}), got {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "part_sizes", lam)
        object.__setattr__(self, "entries", e)

    @property
    def n_parts(self) -> int:
        return self.part_sizes.size

    def is_constant(self, tol: float = ABS_TOL) -> bool:
        first = self.entries[0, 0]
        return bool(np.abs(self.entries - first).max() <= tol)

    def scale(self, c: float):
        return type(self)(self.space, self.part_sizes, self.entries * float(c))

    def __add__(self, other):
        a, b, _ = common_refinement(self, other)
        return type(self)(a.space, a.part_sizes, a.entries + b.entries)

    @classmethod
    def constant(cls, space, f, part_sizes=(1.0,)):
        lam = np.asarray(part_sizes, dtype=float)
        e = np.broadcast_to(np.asarray(f, dtype=float), (lam.size, lam.size, space.size))
        return cls(space, lam, np.array(e))

    def _pulled_back(self, part_sizes, index):
        """New part i carries old part index[i]; ``part_sizes`` are the new sizes."""
        return type(self)(self.space, part_sizes, self.entries[np.ix_(index, index)])


class StepKernel(_VectorKernel):
    """Measure-valued step kernel: part sizes plus a (P, P, m) weight array."""

    kind: str

    def __init__(self, space: DecorationSpace, part_sizes, entries):
        super().__init__(space, part_sizes, entries)
        object.__setattr__(self, "kind", _classify(self.entries))

    def entry(self, p: int, q: int) -> SignedMeasure:
        return SignedMeasure(self.space, self.entries[p, q])

    def sup_tv(self) -> float:
        """Largest total variation over the blocks."""
        return float(np.abs(self.entries).sum(axis=2).max())

    def __sub__(self, other: "StepKernel") -> "StepKernel":
        a, b, _ = common_refinement(self, other)
        return StepKernel(a.space, a.part_sizes, a.entries - b.entries)

    def approx_eq(self, other: "StepKernel", tol: float = ABS_TOL) -> bool:
        self.space.require_same(other.space)
        return (
            self.part_sizes.shape == other.part_sizes.shape
            and np.abs(self.part_sizes - other.part_sizes).max() <= tol
            and np.abs(self.entries - other.entries).max() <= tol
        )

    @classmethod
    def constant(cls, mu: SignedMeasure, part_sizes=(1.0,)) -> "StepKernel":
        return super().constant(mu.space, mu.weights, part_sizes)

    @classmethod
    def from_measures(cls, space, part_sizes, measures) -> "StepKernel":
        """Build from a nested list of SignedMeasure values."""
        p = len(measures)
        e = np.empty((p, p, space.size))
        for i in range(p):
            for j in range(p):
                mu = measures[i][j]
                space.require_same(mu.space)
                e[i, j] = mu.weights
        return cls(space, part_sizes, e)

    def __repr__(self):
        return (
            f"StepKernel(parts={self.n_parts}, space={self.space.size} pts, "
            f"kind={self.kind!r})"
        )


@dataclass(frozen=True, eq=False)
class RealStepKernel:
    """Real-valued step kernel: part sizes plus a (P, P) value matrix."""

    part_sizes: np.ndarray
    values: np.ndarray

    def __init__(self, part_sizes, values):
        lam = _check_part_sizes(part_sizes)
        v = np.array(values, dtype=float)
        if v.shape != (lam.size, lam.size):
            raise ValueError(f"values must be ({lam.size}, {lam.size}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "part_sizes", lam)
        object.__setattr__(self, "values", v)

    @property
    def n_parts(self) -> int:
        return self.part_sizes.size

    def sup_norm(self) -> float:
        return float(np.abs(self.values).max())

    def __sub__(self, other: "RealStepKernel") -> "RealStepKernel":
        if self.part_sizes.shape != other.part_sizes.shape or np.abs(
            self.part_sizes - other.part_sizes
        ).max() > PART_TOL:
            raise ValueError("part structures differ; refine to a common grid first")
        return RealStepKernel(self.part_sizes, self.values - other.values)

    @classmethod
    def constant(cls, value: float, part_sizes=(1.0,)) -> "RealStepKernel":
        lam = np.asarray(part_sizes, dtype=float)
        return cls(lam, np.full((lam.size, lam.size), float(value)))

    def _pulled_back(self, part_sizes, index):
        return RealStepKernel(part_sizes, self.values[np.ix_(index, index)])


class CbStepKernel(_VectorKernel):
    """Function-valued step kernel: entries are function vectors over the space."""

    def sup_norm(self) -> float:
        return float(np.abs(self.entries).max())


@dataclass(frozen=True, eq=False)
class CbGraph:
    """A graph with function-valued edge decorations and vertex weights.

    ``beta[v, w]`` is the decorating function vector of the directed edge
    (v, w); an all-zero vector marks a non-edge.  Vertex weights default to
    uniform.
    """

    space: DecorationSpace
    beta: np.ndarray  # (k, k, m)
    alpha: np.ndarray  # (k,)

    def __init__(self, space, beta, alpha=None):
        b = np.array(beta, dtype=float)
        if b.ndim != 3 or b.shape[0] != b.shape[1] or b.shape[2] != space.size:
            raise ValueError(f"beta must be (k, k, {space.size}), got {b.shape}")
        k = b.shape[0]
        if alpha is None:
            a = np.full(k, 1.0 / k)
        else:
            a = np.array(alpha, dtype=float)
            if a.shape != (k,):
                raise ValueError(f"alpha must have shape ({k},)")
            if a.min() < -ABS_TOL or abs(a.sum() - 1.0) > 1e-9:
                raise ValueError("alpha must be a probability vector")
            a = np.maximum(a, 0.0)
        b.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "alpha", a)

    @property
    def n_vertices(self) -> int:
        return self.beta.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        k = self.n_vertices
        return [
            (i, j)
            for i in range(k)
            for j in range(k)
            if np.abs(self.beta[i, j]).max() > 0
        ]

    @classmethod
    def from_edges(cls, space, k: int, decorated_edges, alpha=None, symmetric=True) -> "CbGraph":
        """Build from a sparse list of (i, j, function-vector) triples."""
        b = np.zeros((k, k, space.size))
        for i, j, f in decorated_edges:
            f = np.asarray(f, dtype=float)
            b[i, j] = f
            if symmetric:
                b[j, i] = f
        return cls(space, b, alpha)


# any step kernel, and any measure- or function-valued one
_K = TypeVar("_K", StepKernel, CbStepKernel, RealStepKernel)
_V = TypeVar("_V", bound=_VectorKernel)
_W = TypeVar("_W", bound=_VectorKernel)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def from_real_graphon(w: RealStepKernel) -> StepKernel:
    """Embed a [0,1]-valued step kernel as a probability kernel on two points.

    The resulting kernel puts mass ``w`` on point 1 and ``1 - w`` on point 0.
    """
    if w.values.min() < 0.0 or w.values.max() > 1.0:
        raise ValueError("real graphon values must lie in [0, 1]")
    space = DecorationSpace.two_point()
    e = np.stack([1.0 - w.values, w.values], axis=2)
    return StepKernel(space, w.part_sizes, e)


def apply_function(kernel: StepKernel, f) -> RealStepKernel:
    """Entrywise integration of a function vector: the real kernel W[f]."""
    f = np.asarray(f, dtype=float)
    if f.shape != (kernel.space.size,):
        raise SpaceMismatchError(
            f"function vector length {f.shape} does not match the space"
        )
    return RealStepKernel(kernel.part_sizes, kernel.entries @ f)


def block_integral(kernel: StepKernel, s, t) -> SignedMeasure:
    """Integral of the kernel over a fractional rectangle.

    ``s`` and ``t`` give, per part, the fraction of that part included in the
    rectangle's sides (0 <= fraction <= 1).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    p = kernel.n_parts
    if s.shape != (p,) or t.shape != (p,):
        raise ValueError(f"side fractions must have shape ({p},)")
    if s.min() < -ABS_TOL or s.max() > 1 + ABS_TOL or t.min() < -ABS_TOL or t.max() > 1 + ABS_TOL:
        raise ValueError("side fractions must lie in [0, 1]")
    a = s * kernel.part_sizes
    b = t * kernel.part_sizes
    w = np.einsum("p,pqm,q->m", a, kernel.entries, b)
    return SignedMeasure(kernel.space, w)


def aggregate_measure(kernel: StepKernel) -> SignedMeasure:
    """Size-weighted sum of the blockwise variation measures.

    For a probability kernel this is a probability measure describing the
    overall decoration distribution.
    """
    lam = kernel.part_sizes
    w = np.einsum("p,pqm,q->m", lam, np.abs(kernel.entries), lam)
    return SignedMeasure(kernel.space, w)


def minimal_refinement(part_sizes, cap: int = DEFAULT_DENOMINATOR_CAP) -> int:
    """Smallest n such that every part size is an integer multiple of 1/n."""
    n = 1
    for lam in np.asarray(part_sizes, dtype=float):
        frac = Fraction(lam).limit_denominator(cap)
        if abs(float(frac) - lam) > PART_TOL:
            raise ValueError(
                f"part size {lam!r} is not rational with denominator <= {cap}"
            )
        n = n * frac.denominator // gcd(n, frac.denominator)
    return n


def _refinement_owner(part_sizes, n: int) -> np.ndarray:
    """Map each of n equal cells to the part that contains it."""
    lam = np.asarray(part_sizes, dtype=float)
    counts = np.rint(lam * n).astype(int)
    if counts.sum() != n or np.abs(counts / n - lam).max() > PART_TOL:
        minimal = minimal_refinement(lam)
        raise ValueError(
            f"cannot refine part sizes {lam.tolist()} into {n} equal cells; "
            f"the minimal compatible size is {minimal}"
        )
    return np.repeat(np.arange(lam.size), counts)


def uniform_refine(kernel: _K, n: int) -> _K:
    """Re-express the kernel on n equal parts (weakly isomorphic by construction).

    A kernel already on n equal parts is returned as it is.
    """
    if np.array_equal(kernel.part_sizes, np.full(n, 1.0 / n)):
        return kernel
    return kernel._pulled_back(np.full(n, 1.0 / n), _refinement_owner(kernel.part_sizes, n))


def _equal_parts(part_sizes) -> bool:
    lam = np.asarray(part_sizes, dtype=float)
    return bool(np.abs(lam - 1.0 / lam.size).max() <= PART_TOL)


def _check_permutation(perm, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=int)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"expected a permutation of range({n})")
    return perm


def relabel(kernel: _K, perm) -> _K:
    """Pull back the kernel along a permutation of its equal parts."""
    if not _equal_parts(kernel.part_sizes):
        raise ValueError("relabel requires equal part sizes; call uniform_refine first")
    return kernel._pulled_back(kernel.part_sizes, _check_permutation(perm, kernel.n_parts))


def pair(measure_kernel: StepKernel, fn_kernel: CbStepKernel) -> RealStepKernel:
    """Blockwise integral of a function-valued kernel against a measure-valued one."""
    measure_kernel.space.require_same(fn_kernel.space)
    if measure_kernel.n_parts != fn_kernel.n_parts or np.abs(
        measure_kernel.part_sizes - fn_kernel.part_sizes
    ).max() > PART_TOL:
        raise ValueError("part structures differ; refine to a common grid first")
    v = np.einsum("pqm,pqm->pq", measure_kernel.entries, fn_kernel.entries)
    return RealStepKernel(measure_kernel.part_sizes, v)


def cb_graph_to_kernel(graph: CbGraph) -> CbStepKernel:
    """Step-kernel representation of a decorated graph on equal vertex blocks.

    Ignores non-uniform vertex weights by design: the block representation
    fixes equal intervals; weighted comparisons happen through partitions.
    """
    k = graph.n_vertices
    return CbStepKernel(graph.space, np.full(k, 1.0 / k), graph.beta)


def common_refinement(
    a: _V, b: _W, cap: int = DEFAULT_DENOMINATOR_CAP
) -> tuple[_V, _W, int]:
    """Refine both kernels onto the smallest shared uniform grid."""
    a.space.require_same(b.space)
    na = minimal_refinement(a.part_sizes, cap)
    nb = minimal_refinement(b.part_sizes, cap)
    n = na * nb // gcd(na, nb)
    return uniform_refine(a, n), uniform_refine(b, n), n


def _common_grid(a: _V, b: _W, cells: Optional[int] = None) -> tuple[_V, _W, int]:
    """The common refinement, refined on to ``cells`` equal parts when given:
    the grid whose relabelings the unlabeled searches range over."""
    a, b, n = common_refinement(a, b)
    if cells is None:
        return a, b, n
    return uniform_refine(a, cells), uniform_refine(b, cells), cells
