"""Registered property suites: every proved inequality as a seeded check.

Each check draws seeded random instances, evaluates one inequality or
identity, and reports the instance count, failure count, and the worst
margin (allowed minus observed; negative means a violation).  The first
violating instance is serialized as a minimal reproducer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import jsonio
from .kernels import (
    CbGraph,
    RealStepKernel,
    StepKernel,
    cb_graph_to_kernel,
    from_real_graphon,
    relabel,
    uniform_refine,
)
from .measures import (
    DecorationSpace,
    SignedMeasure,
    TestFamily,
    dirac,
    f_norm,
    lp_distance,
    tv_distance,
)
from .metrics import (
    cut_dist_f,
    cut_dist_lp,
    cut_norm_real,
    delta_2f,
    delta_cut,
    f_l2_norm,
)
from .overlay import (
    GRID_ORACLE_CAP,
    OverlapMatrix,
    f_overlay,
    f_overlay_truncated,
    overlay_graph,
    overlay_kernel,
)
from .quotients import (
    Quotient,
    QuotientCloud,
    d1_quotient,
    dsquare_quotient,
    hausdorff,
    quotient,
    quotient_cloud,
    rebalance_partition,
)
from .sampling import convergence_run
from .search import SearchBudget

__all__ = ["CheckReport", "SUITES", "run_suite", "report_lines"]

TOL = 1e-9


@dataclass
class CheckReport:
    name: str
    instances: int
    failures: int
    worst_margin: float
    detail: str = ""
    reproducer: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_jsonable(self) -> dict:
        out = {
            "name": self.name,
            "instances": self.instances,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.reproducer is not None:
            out["reproducer"] = self.reproducer
        return out


class _Margins:
    """Collects margins (allowed - observed); negative means violation."""

    def __init__(self, name: str, tol: float = TOL):
        self.name = name
        self.tol = tol
        self.count = 0
        self.failures = 0
        self.worst = np.inf
        self.reproducer = None

    def add(self, margin: float, reproducer: Optional[Callable[[], dict]] = None):
        self.count += 1
        if margin < self.worst:
            self.worst = margin
        if margin < -self.tol:
            self.failures += 1
            if self.reproducer is None and reproducer is not None:
                self.reproducer = reproducer()

    def report(self, detail: str = "") -> CheckReport:
        worst = self.worst if self.count else 0.0
        return CheckReport(self.name, self.count, self.failures, float(worst), detail, self.reproducer)


# ---------------------------------------------------------------------------
# seeded instance generators
# ---------------------------------------------------------------------------

def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def random_space(rng, max_points: int = 8, min_points: int = 2) -> DecorationSpace:
    m = int(rng.integers(min_points, max_points + 1))
    raw = rng.random((m, m)) + 0.1
    d = raw + raw.T
    np.fill_diagonal(d, 0.0)
    for k in range(m):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    np.fill_diagonal(d, 0.0)
    return DecorationSpace(tuple(range(m)), d)


def random_measure(rng, space, scale: float = 1.0) -> SignedMeasure:
    return SignedMeasure(space, scale * rng.random(space.size))


def random_prob_kernel(rng, space, parts: int) -> StepKernel:
    e = rng.random((parts, parts, space.size)) + 0.05
    e /= e.sum(axis=2, keepdims=True)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


def random_signed_kernel(rng, space, parts: int, scale: float = 1.0) -> StepKernel:
    e = scale * (rng.random((parts, parts, space.size)) - 0.5)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


def random_real_graphon(rng, parts: int) -> RealStepKernel:
    return RealStepKernel(np.full(parts, 1.0 / parts), rng.random((parts, parts)))


def random_quotient(rng, space, k: int) -> Quotient:
    a = rng.random(k) + 0.1
    a /= a.sum()
    b = rng.random((k, k, space.size)) + 0.05
    b /= b.sum(axis=2, keepdims=True)
    return Quotient(space, a, b)


def _measure_doc(mu: SignedMeasure) -> dict:
    return {"space": jsonio.space_to_json(mu.space), "weights": mu.weights.tolist()}


# ---------------------------------------------------------------------------
# measures suite
# ---------------------------------------------------------------------------

def check_lp_bounded_by_tv(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 1)
    margins = _Margins("lp_bounded_by_tv")
    for i in range(trials):
        space = random_space(rng)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        margin = tv_distance(mu, nu) - lp_distance(mu, nu)
        margins.add(margin, lambda: {"seed": seed, "index": i, "mu": _measure_doc(mu), "nu": _measure_doc(nu)})
    return margins.report("d_lp <= d_tv")


def check_lp_scaling(seed: int, trials: int, alphas=(1.5, 2.0, 10.0)) -> CheckReport:
    rng = _rng(seed, 2)
    margins = _Margins("lp_scaling_sandwich")
    for i in range(trials):
        space = random_space(rng)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        base = lp_distance(mu, nu)
        for a in alphas:
            scaled = lp_distance(a * mu, a * nu)
            lower = scaled - base
            upper = a * base - scaled
            margins.add(
                min(lower, upper),
                lambda: {"seed": seed, "index": i, "alpha": a, "mu": _measure_doc(mu), "nu": _measure_doc(nu)},
            )
    return margins.report("d_lp <= d_lp(scaled) <= alpha * d_lp")


def check_lp_quasi_convex(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 3)
    margins = _Margins("lp_quasi_convexity")
    for i in range(trials):
        space = random_space(rng)
        m1, m2 = random_measure(rng, space), random_measure(rng, space)
        n1, n2 = random_measure(rng, space), random_measure(rng, space)
        t = float(rng.random())
        mixed = lp_distance(t * m1 + (1 - t) * m2, t * n1 + (1 - t) * n2)
        cap = max(lp_distance(m1, n1), lp_distance(m2, n2))
        margins.add(
            cap - mixed,
            lambda: {
                "seed": seed, "index": i, "t": t,
                "m1": _measure_doc(m1), "m2": _measure_doc(m2),
                "n1": _measure_doc(n1), "n2": _measure_doc(n2),
            },
        )
    return margins.report("mixture distance <= max of component distances")


def check_lp_metric_axioms(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 4)
    margins = _Margins("lp_metric_axioms")
    for i in range(trials):
        space = random_space(rng)
        a, b, c = (random_measure(rng, space) for _ in range(3))
        dab, dba = lp_distance(a, b), lp_distance(b, a)
        margins.add(TOL - abs(dab - dba))
        margins.add(TOL - lp_distance(a, a))
        margins.add(lp_distance(a, c) + lp_distance(c, b) - dab,
                    lambda: {"seed": seed, "index": i, "a": _measure_doc(a), "b": _measure_doc(b), "c": _measure_doc(c)})
    return margins.report("symmetry, identity, triangle inequality")


def check_lp_sharpness(seed: int, trials: int) -> CheckReport:
    margins = _Margins("lp_sharpness_witnesses", tol=1e-12)
    for alpha in (1.5, 2.0, 10.0):
        z = DecorationSpace.two_point(distance=10 * alpha)
        d_scaled = lp_distance(alpha * dirac(z, 0), alpha * dirac(z, 1))
        margins.add(1e-12 - abs(d_scaled - alpha))
        z1 = DecorationSpace.two_point(distance=1.0)
        d_unit = lp_distance(alpha * dirac(z1, 0), alpha * dirac(z1, 1))
        margins.add(1e-12 - abs(d_unit - 1.0))
    return margins.report("Dirac pairs attain the scaling bounds exactly")


def check_lp_probability_bound(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 5)
    margins = _Margins("lp_probability_upper_bound")
    for i in range(trials):
        space = random_space(rng)
        mu = random_measure(rng, space)
        nu = random_measure(rng, space)
        mu = (1.0 / mu.total_mass()) * mu
        nu = (1.0 / nu.total_mass()) * nu
        margins.add(1.0 - lp_distance(mu, nu))
    return margins.report("probability measures stay within distance 1")


def check_f_norm_bounds(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 6)
    margins = _Margins("f_norm_bounds")
    for i in range(trials):
        space = random_space(rng)
        fam = TestFamily.default(space)
        mu = SignedMeasure(space, rng.random(space.size) - 0.5)
        margins.add(2.0 * mu.total_variation() - f_norm(mu, fam))
        if mu.total_variation() > 1e-6:
            margins.add(f_norm(mu, fam) - 1e-12)  # separating: nonzero stays nonzero
    return margins.report("f_norm <= 2 tv; separating on nonzero measures")


# ---------------------------------------------------------------------------
# cut norm suite
# ---------------------------------------------------------------------------

def check_family_cut_bound(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 7)
    margins = _Margins("family_cut_norm_bound")
    for i in range(trials):
        space = random_space(rng, max_points=4)
        fam = TestFamily.default(space)
        parts = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            w = random_prob_kernel(rng, space, parts)
        else:
            w = random_signed_kernel(rng, space, parts)
        zero = StepKernel(space, w.part_sizes, np.zeros_like(w.entries))
        fnorm = cut_dist_f(w, zero, fam)
        for k in range(len(fam)):
            real = cut_norm_real(
                RealStepKernel(w.part_sizes, w.entries @ fam.function(k))
            )
            margins.add(
                (2.0 ** k) * fnorm - real,
                lambda: {"seed": seed, "index": i, "k": k, "kernel": jsonio.kernel_to_json(w)},
            )
    return margins.report("projected cut norm <= 2**k * family cut norm")


# ---------------------------------------------------------------------------
# delta suite
# ---------------------------------------------------------------------------

def check_delta_relabel_zero(seed: int, trials: int, n_max: int = 8) -> CheckReport:
    rng = _rng(seed, 8)
    margins = _Margins("delta_relabel_zero", tol=0.0)
    for i in range(trials):
        space = random_space(rng, max_points=4)
        n = int(rng.integers(2, n_max + 1))
        w = random_prob_kernel(rng, space, n)
        perm = rng.permutation(n)
        res = delta_cut(w, relabel(w, perm), metric="lp")
        ok = res.value == 0.0 and res.exact
        margins.add(
            0.0 if ok else -1.0,
            lambda: {"seed": seed, "index": i, "perm": perm.tolist(), "kernel": jsonio.kernel_to_json(w)},
        )
    return margins.report("relabeled kernels at distance exactly 0")


def delta_real_oracle(w: RealStepKernel, u: RealStepKernel) -> float:
    """Independent real-kernel unlabeled cut distance by full enumeration."""
    n = w.n_parts
    best = np.inf
    for p in itertools.permutations(range(n)):
        perm = np.array(p, dtype=np.intp)
        best = min(best, cut_norm_real(w - relabel(u, perm)))
    return float(best)


def check_two_point_embedding(seed: int, trials: int, parts: int = 4) -> CheckReport:
    rng = _rng(seed, 9)
    margins = _Margins("two_point_embedding_proportionality")
    space = DecorationSpace.two_point()
    fam = TestFamily.two_point(space)
    for i in range(trials):
        w = random_real_graphon(rng, parts)
        u = random_real_graphon(rng, parts)
        res = delta_cut(from_real_graphon(w), from_real_graphon(u), metric="f", fam=fam)
        oracle = delta_real_oracle(w, u)
        margins.add(
            TOL - abs(res.value - 0.5 * oracle),
            lambda: {"seed": seed, "index": i,
                     "w": w.values.tolist(), "u": u.values.tolist(),
                     "delta_f": res.value, "real_oracle": oracle},
        )
    return margins.report("family delta equals half the real-kernel delta")


def check_delta_axioms(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 10)
    margins = _Margins("delta_symmetry_triangle")
    space = DecorationSpace.two_point()
    for i in range(trials):
        n = int(rng.integers(2, 5))
        a, b, c = (random_prob_kernel(rng, space, n) for _ in range(3))
        dab = delta_cut(a, b, metric="lp").value
        dba = delta_cut(b, a, metric="lp").value
        margins.add(TOL - abs(dab - dba))
        dac = delta_cut(a, c, metric="lp").value
        dcb = delta_cut(c, b, metric="lp").value
        margins.add(dac + dcb - dab)
        labeled = cut_dist_lp(a, b)
        margins.add(labeled - dab)
    return margins.report("symmetry, triangle, labeled >= unlabeled (exact tier)")


def check_refinement_invariance(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 11)
    margins = _Margins("refinement_weak_isomorphism", tol=0.0)
    for i in range(trials):
        space = random_space(rng, max_points=4)
        parts = int(rng.integers(1, 4))
        w = random_prob_kernel(rng, space, parts)
        n = parts * int(rng.integers(2, 4))
        res = delta_cut(w, uniform_refine(w, n), metric="lp")
        margins.add(0.0 if (res.value == 0.0 and res.exact) else -1.0)
    return margins.report("uniform refinements at distance exactly 0")


# ---------------------------------------------------------------------------
# overlay suite
# ---------------------------------------------------------------------------

def _random_cb_graph(rng, space, k: int) -> CbGraph:
    beta = np.zeros((k, k, space.size))
    for i in range(k):
        for j in range(k):
            if i != j and rng.random() < 0.8:
                f = rng.random(space.size)
                beta[i, j] = f
                beta[j, i] = f
    if not beta.any():
        beta[0, (1 if k > 1 else 0)] = np.ones(space.size)
    return CbGraph(space, beta)


def check_overlay_homogeneity(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 12)
    margins = _Margins("overlay_positive_homogeneity")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        k = int(rng.integers(1, 4))
        parts = int(rng.integers(1, 3))
        w = random_prob_kernel(rng, space, parts)
        g = _random_cb_graph(rng, space, k)
        cells = _oracle_cells(parts, k)
        lam = float(rng.uniform(0.5, 3.0))
        base = overlay_graph(w, g, cells=cells)
        scaled = overlay_graph(w.scale(lam), g, cells=cells)
        margins.add(
            TOL - abs(scaled.value - lam * base.value),
            lambda: {"seed": seed, "index": i, "lam": lam, "kernel": jsonio.kernel_to_json(w)},
        )
    return margins.report("overlay(lam * kernel) == lam * overlay (oracle tier)")


def _oracle_cells(parts: int, k: int) -> int:
    n = parts
    while n % k or n < 4:
        n += parts
    while float(k) ** n > GRID_ORACLE_CAP:
        n -= parts
    return max(n, parts)


def check_overlay_subadditivity(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 13)
    margins = _Margins("overlay_subadditivity")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        k = int(rng.integers(1, 3))
        parts = int(rng.integers(1, 3))
        u = random_signed_kernel(rng, space, parts)
        v = random_signed_kernel(rng, space, parts)
        g = _random_cb_graph(rng, space, k)
        cells = _oracle_cells(parts, k)
        both = overlay_graph(u + v, g, cells=cells).value
        split = overlay_graph(u, g, cells=cells).value + overlay_graph(v, g, cells=cells).value
        margins.add(
            split - both + TOL,
            lambda: {"seed": seed, "index": i,
                     "u": jsonio.kernel_to_json(u), "v": jsonio.kernel_to_json(v)},
        )
    return margins.report("overlay(u + v) <= overlay(u) + overlay(v) (oracle tier)")


def check_overlay_graph_kernel_identity(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 14)
    margins = _Margins("overlay_graph_kernel_identity")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        k = int(rng.integers(1, 3))
        parts = int(rng.integers(1, 3))
        w = random_prob_kernel(rng, space, parts)
        g = _random_cb_graph(rng, space, k)
        cells = _oracle_cells(parts, k)
        via_graph = overlay_graph(w, g, cells=cells).value
        via_kernel = overlay_kernel(w, cb_graph_to_kernel(g), cells=cells).value
        margins.add(
            TOL - abs(via_graph - via_kernel),
            lambda: {"seed": seed, "index": i, "kernel": jsonio.kernel_to_json(w),
                     "graph": jsonio.cb_graph_to_json(g)},
        )
    return margins.report("graph overlay equals kernel overlay at matched grids")


def check_overlay_cosine(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 15)
    margins = _Margins("overlay_cosine_identity")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        fam = TestFamily.default(space)
        parts = int(rng.integers(2, 5))
        u = random_prob_kernel(rng, space, parts)
        w = random_prob_kernel(rng, space, parts)
        co = f_overlay(u, w, fam).value
        d2 = delta_2f(u, w, fam).value
        nu2, nw2 = f_l2_norm(u, fam) ** 2, f_l2_norm(w, fam) ** 2
        margins.add(
            TOL - abs(co - 0.5 * (nu2 + nw2 - d2 ** 2)),
            lambda: {"seed": seed, "index": i,
                     "u": jsonio.kernel_to_json(u), "w": jsonio.kernel_to_json(w)},
        )
    return margins.report("family overlay matches the inner-product expansion")


def check_overlay_truncation(seed: int, trials: int, terms=(1, 2, 4)) -> CheckReport:
    rng = _rng(seed, 16)
    margins = _Margins("overlay_truncation_enclosure")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        fam = TestFamily.default(space)
        parts = int(rng.integers(2, 4))
        u = random_prob_kernel(rng, space, parts)
        w = random_prob_kernel(rng, space, parts)
        full = f_overlay(u, w, fam).value
        for n_terms in terms:
            truncated, bound = f_overlay_truncated(u, w, fam, n_terms)
            margins.add(
                bound - abs(full - truncated.value),
                lambda: {"seed": seed, "index": i, "n_terms": n_terms,
                         "u": jsonio.kernel_to_json(u), "w": jsonio.kernel_to_json(w)},
            )
            margins.add(1.0 / n_terms - abs(full - truncated.value))
    return margins.report("|full - truncated| <= q / N on probability pairs")


def check_overlay_relabel_invariance(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 17)
    margins = _Margins("overlay_relabel_invariance")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        k = int(rng.integers(1, 3))
        parts = int(rng.integers(2, 4))
        w = random_prob_kernel(rng, space, parts)
        g = _random_cb_graph(rng, space, k)
        cells = _oracle_cells(parts, k)
        base = overlay_graph(w, g, cells=cells).value
        perm = rng.permutation(parts)
        moved = overlay_graph(relabel(w, perm), g, cells=cells).value
        margins.add(TOL - abs(base - moved))
    return margins.report("overlay unchanged under relabeling of the kernel")


def check_overlay_quotient_identity(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 18)
    margins = _Margins("overlay_quotient_identity")
    for i in range(trials):
        space = random_space(rng, max_points=3)
        k = int(rng.integers(1, 3))
        parts = int(rng.integers(1, 3))
        w = random_prob_kernel(rng, space, parts)
        g = _random_cb_graph(rng, space, k)
        cells = _oracle_cells(parts, k)
        via_overlay = overlay_graph(w, g, cells=cells).value
        cloud = quotient_cloud(w, k, mode="enumerate", cells=cells, alpha=g.alpha)
        best = -np.inf
        for q in cloud.quotients:
            val = float(np.einsum("ijm,ijm->", q.scaled(), g.beta))
            best = max(best, val)
        margins.add(
            TOL - abs(via_overlay - best),
            lambda: {"seed": seed, "index": i, "kernel": jsonio.kernel_to_json(w),
                     "graph": jsonio.cb_graph_to_json(g)},
        )
    return margins.report("overlay equals the maximum over the matched quotient cloud")


# ---------------------------------------------------------------------------
# quotient suite
# ---------------------------------------------------------------------------

def check_quotient_sandwich(seed: int, trials: int, k_max: int = 5) -> CheckReport:
    rng = _rng(seed, 19)
    margins = _Margins("quotient_metric_sandwich")
    for i in range(trials):
        space = random_space(rng, max_points=4)
        k = int(rng.integers(1, k_max + 1))
        a, b = random_quotient(rng, space, k), random_quotient(rng, space, k)
        d1 = d1_quotient(a, b)
        ds = dsquare_quotient(a, b)
        margins.add(ds - d1 / (k * k),
                    lambda: {"seed": seed, "index": i, "k": k,
                             "a": a.to_jsonable(), "b": b.to_jsonable()})
        margins.add(k * k * d1 - ds)
    return margins.report("d1 / k^2 <= dsquare <= k^2 * d1")


def check_rebalance_bound(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 20)
    margins = _Margins("rebalance_mass_transfer_bound")
    for i in range(trials):
        space = random_space(rng, max_points=4)
        parts = int(rng.integers(2, 5))
        k = int(rng.integers(2, 4))
        w = random_prob_kernel(rng, space, parts)
        z = rng.integers(0, k, size=parts)
        overlap = OverlapMatrix.from_assignment(w.part_sizes, z, k)
        target = rng.random(k) + 0.1
        target /= target.sum()
        moved = rebalance_partition(overlap, target)
        qa = quotient(w, overlap)
        qb = quotient(w, moved)
        gap = float(np.abs(overlap.col_sums - target).sum())
        bound = (1.0 + 2.0 * w.sup_tv()) * gap
        d1 = d1_quotient(qa, qb)
        margins.add(
            bound - d1,
            lambda: {"seed": seed, "index": i, "kernel": jsonio.kernel_to_json(w),
                     "assignment": z.tolist(), "target": target.tolist()},
        )
        margins.add(3.0 * gap - d1)
    return margins.report("d1 after rebalancing <= (1 + 2 sup_tv) * l1 gap <= 3 * l1 gap")


def check_matched_cloud_bound(seed: int, trials: int) -> CheckReport:
    rng = _rng(seed, 21)
    margins = _Margins("matched_cloud_hausdorff_bound")
    space = DecorationSpace.two_point()
    for i in range(trials):
        n = int(rng.integers(3, 5))
        k = int(rng.integers(1, 3))
        u = random_prob_kernel(rng, space, n)
        w = random_prob_kernel(rng, space, n)
        res = delta_cut(u, w, metric="lp")
        overlaid = relabel(w, res.certificate)
        members_u, members_w = [], []
        for z in itertools.product(range(k), repeat=n):
            z = np.array(z, dtype=np.intp)
            members_u.append(quotient(u, (z, k)))
            members_w.append(quotient(overlaid, (z, k)))
        cloud_u = QuotientCloud(space, k, tuple(members_u), {"mode": "matched"})
        cloud_w = QuotientCloud(space, k, tuple(members_w), {"mode": "matched"})
        h = hausdorff(cloud_u, cloud_w, metric="dsquare")
        margins.add(
            res.value - h,
            lambda: {"seed": seed, "index": i, "u": jsonio.kernel_to_json(u),
                     "w": jsonio.kernel_to_json(w), "delta": res.value, "hausdorff": h},
        )
    return margins.report("matched-cloud Hausdorff <= unlabeled cut distance")


def check_cloud_alpha_vs_k(seed: int, trials: int) -> CheckReport:
    """Proof-level two-sided comparison of per-distribution and pooled clouds."""
    rng = _rng(seed, 22)
    margins = _Margins("cloud_alpha_vs_k_comparison")
    space = DecorationSpace.two_point()
    for i in range(trials):
        n = 4
        k = 2
        u = random_prob_kernel(rng, space, n)
        w = random_prob_kernel(rng, space, n)
        cloud_u = quotient_cloud(u, k, mode="enumerate", cells=n)
        cloud_w = quotient_cloud(w, k, mode="enumerate", cells=n)
        pooled = hausdorff(cloud_u, cloud_w, metric="dsquare")
        per_alpha = []
        for c in range(n + 1):
            alpha = np.array([c / n, 1 - c / n])
            cu = quotient_cloud(u, k, mode="enumerate", cells=n, alpha=alpha)
            cw = quotient_cloud(w, k, mode="enumerate", cells=n, alpha=alpha)
            per_alpha.append(hausdorff(cu, cw, metric="dsquare"))
        sup_alpha = max(per_alpha)
        margins.add(sup_alpha - pooled)
        # on a full grid enumeration the rebalanced witness is itself a grid
        # assignment, so the proof-level chain closes with no extra slack
        margins.add(4 * k * k * pooled - sup_alpha)
    return margins.report("pooled <= sup over distributions <= proof-level multiple")


# ---------------------------------------------------------------------------
# theorem-level experiment
# ---------------------------------------------------------------------------

def run_theorem_experiment(
    seed: int = 7,
    trials: int = 24,
    n_schedule=(4, 8, 16, 32),
    budget: Optional[SearchBudget] = None,
) -> tuple[list[CheckReport], list[dict]]:
    """Sampled-kernel convergence seen simultaneously through the unlabeled
    cut distance, the overlay values against the shipped decorated graph, and
    the quotient-cloud Hausdorff distances."""
    half = from_real_graphon(RealStepKernel([1.0], [[0.5]]))
    space = half.space
    graph = CbGraph.from_edges(space, 2, [(0, 1, [0.0, 1.0])])
    limit = overlay_graph(half, graph, cells=4).value
    rows = convergence_run(
        half,
        list(n_schedule),
        trials=trials,
        seed=seed,
        metrics=("delta_lp", "overlay", "dhaus"),
        graph=graph,
        cloud_count=max(40, max(n_schedule) + 1),
        budget=budget,
    )
    medians: dict[str, list[float]] = {}
    for metric in ("delta_lp", "overlay", "dhaus"):
        per_n = []
        for n in n_schedule:
            vals = [r["value"] for r in rows if r["metric"] == metric and r["n"] == n]
            if metric == "overlay":
                vals = [abs(v - limit) for v in vals]
            per_n.append(float(np.median(vals)))
        medians[metric] = per_n

    reports = []
    d = medians["delta_lp"]
    strict = all(a > b for a, b in zip(d, d[1:]))
    reports.append(CheckReport(
        "theorem_delta_trend", len(d), 0 if (strict and d[-1] <= 0.15) else 1,
        min(min(a - b for a, b in zip(d, d[1:])), 0.15 - d[-1]),
        f"medians {['%.4f' % x for x in d]}"))
    o = medians["overlay"]
    mono = all(a >= b - TOL for a, b in zip(o, o[1:])) and o[-1] < o[0]
    reports.append(CheckReport(
        "theorem_overlay_trend", len(o), 0 if (mono and o[-1] <= 0.1) else 1,
        0.1 - o[-1], f"medians {['%.4f' % x for x in o]} vs limit {limit}"))
    h = medians["dhaus"]
    mono_h = all(a >= b - TOL for a, b in zip(h, h[1:])) and h[-1] < h[0]
    reports.append(CheckReport(
        "theorem_quotient_trend", len(h), 0 if mono_h else 1,
        h[0] - h[-1], f"medians {['%.4f' % x for x in h]}"))
    return reports, rows


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

def _suite_measures(seed: int, trials: int, budget) -> list[CheckReport]:
    return [
        check_lp_bounded_by_tv(seed, trials),
        check_lp_scaling(seed, trials),
        check_lp_quasi_convex(seed, trials),
        check_lp_metric_axioms(seed, max(trials // 4, 10)),
        check_lp_sharpness(seed, trials),
        check_lp_probability_bound(seed, max(trials // 4, 10)),
        check_f_norm_bounds(seed, trials),
    ]


def _suite_cutnorm(seed: int, trials: int, budget) -> list[CheckReport]:
    return [check_family_cut_bound(seed, trials)]


def _suite_delta(seed: int, trials: int, budget) -> list[CheckReport]:
    return [
        check_delta_relabel_zero(seed, trials),
        check_two_point_embedding(seed, max(trials // 2, 10)),
        check_delta_axioms(seed, max(trials // 10, 5)),
        check_refinement_invariance(seed, max(trials // 10, 5)),
    ]


def _suite_overlay(seed: int, trials: int, budget) -> list[CheckReport]:
    return [
        check_overlay_homogeneity(seed, trials),
        check_overlay_subadditivity(seed, trials),
        check_overlay_graph_kernel_identity(seed, max(trials // 2, 10)),
        check_overlay_cosine(seed, trials),
        check_overlay_truncation(seed, max(trials // 2, 10)),
        check_overlay_relabel_invariance(seed, max(trials // 2, 10)),
        check_overlay_quotient_identity(seed, max(trials // 2, 10)),
    ]


def _suite_quotients(seed: int, trials: int, budget) -> list[CheckReport]:
    return [
        check_quotient_sandwich(seed, trials),
        check_rebalance_bound(seed, trials),
        check_matched_cloud_bound(seed, max(trials // 4, 10)),
        check_cloud_alpha_vs_k(seed, max(trials // 20, 3)),
    ]


def _suite_theorem(seed: int, trials: int, budget) -> list[CheckReport]:
    reports, _ = run_theorem_experiment(seed=seed, trials=max(trials, 20), budget=budget)
    return reports


SUITES: dict[str, Callable[[int, int, Optional[SearchBudget]], list[CheckReport]]] = {
    "measures": _suite_measures,
    "cutnorm": _suite_cutnorm,
    "delta": _suite_delta,
    "overlay": _suite_overlay,
    "quotients": _suite_quotients,
    "theorem": _suite_theorem,
}


def run_suite(name: str, seed: int = 0, trials: int = 100, budget=None) -> list[CheckReport]:
    if name == "none":
        return []
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](seed, trials, budget))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'/'none'")
    return SUITES[name](seed, trials, budget)


def report_lines(reports: list[CheckReport]) -> list[str]:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name}: instances={r.instances} failures={r.failures} "
            f"worst_margin={r.worst_margin:.3e}"
            + (f"  ({r.detail})" if r.detail else "")
        )
    return lines
