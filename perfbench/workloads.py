"""The four benchmark workloads: inputs from a seed, one instance, checks.

Each workload turns the seed into inputs once (set-up), then runs instances
by index in a closed loop.  An instance is a short list of public API calls
(operations); each call's result is kept so that the checks, which run after
the timed region, can replay certificates through the public API.  Every
call goes through attribute lookup on the package, so the outside-in tracer
sees it when installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

ABS_TOL = 1e-9
# scratch files of a run (verify reports, span dumps); ignored by git
OUT_DIR = Path(__file__).resolve().parents[1] / ".perfbench_out"


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class Ops:
    """The operations of one instance, in call order."""

    def __init__(self):
        self.rows: list[tuple[str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        self.rows.append((name, result))
        return result

    def inexact(self) -> int:
        """Operations whose result is flagged ``exact: false``."""
        return sum(1 for _, r in self.rows if getattr(r, "exact", True) is False)


class Checker:
    """Failed output checks, one message per (instance, operation)."""

    def __init__(self):
        self.failed: dict[tuple[int, str], str] = {}

    def expect(self, ok: bool, index: int, op: str, message: str) -> None:
        if not ok and (index, op) not in self.failed:
            self.failed[(index, op)] = message

    def close(self, index: int, op: str, got: float, want: float, what: str) -> None:
        ok = math.isfinite(got) and abs(got - want) <= ABS_TOL * max(1.0, abs(want))
        self.expect(ok, index, op, f"{what}: got {got!r}, replay gives {want!r}")


def _random_metric_space(sk, rng, m: int):
    """Points in the unit square under the Euclidean metric (distinct distances)."""
    pts = rng.random((m, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return sk.DecorationSpace(tuple(range(m)), d)


def _random_prob_kernel(sk, rng, space, parts: int):
    entries = rng.dirichlet(np.ones(space.size), size=(parts, parts))
    return sk.StepKernel(space, np.full(parts, 1.0 / parts), entries)


def _weighted_tv(u, w) -> float:
    """Total variation of the block-mass difference: bounds every rectangle."""
    lam = np.outer(u.part_sizes, u.part_sizes)[:, :, None]
    return float(np.abs((u.entries - w.entries) * lam).sum())


# ---------------------------------------------------------------------------
# theorem: the convergence experiment of acceptance criterion 6
# ---------------------------------------------------------------------------

class Theorem:
    """One trial of the criterion-6 experiment per instance: its four cells,
    n in {4, 8, 16, 32}, with the seeds and calls of ``convergence_run``.

    A trial, not a cell, is the instance because cells differ tenfold in cost
    with n and with the sample, so a median over cells sat on the edge between
    two sizes and spread 19-22% across seeds.  Operation names carry the cell
    size, as in ``delta_cut@16``.
    """

    name = "theorem"
    schedule = (4, 8, 16, 32)
    cloud_count = 40  # run_theorem_experiment: max(40, max(schedule) + 1)
    # One restart instead of the default six.  A Frank-Wolfe restart either
    # stops within ~25 LP solves or runs to its 200-iteration cap, so with six
    # restarts per n = 32 cell the throughput of a 20 s run spread 15-20%
    # across seeds; with one it is a small, countable share of the run.
    budget_args = dict(restarts=1)
    round_size = 1  # every trial holds the same mix
    trials = 400  # cell seeds generated; a 30 s run uses about 40 trials

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        self.model = sk.from_real_graphon(sk.RealStepKernel([1.0], [[0.5]]))
        self.graph = sk.CbGraph.from_edges(self.model.space, 2, [(0, 1, [0.0, 1.0])])
        self.budget = sk.SearchBudget(**self.budget_args)
        grid = math.lcm(*self.schedule)
        self.target_cloud = sk.quotient_cloud(
            self.model, 2, mode="alpha_grid", cells=grid, count=self.cloud_count
        )
        # the per-cell seed convergence_run derives from (seed, n, trial)
        self.cell_seeds = {
            (n, trial): int(np.random.SeedSequence(seed, spawn_key=(n, trial))
                            .generate_state(1, dtype=np.uint64)[0])
            for trial in range(self.trials) for n in self.schedule
        }

    def run(self, ops: Ops, index: int) -> None:
        sk = self.sk
        trial = index % self.trials
        for n in self.schedule:
            cs = self.cell_seeds[(n, trial)]
            sample = ops.call(f"sample_graph@{n}", sk.sample_graph, self.model, n, cs)
            emp = ops.call(f"empirical_kernel@{n}", sk.empirical_kernel, sample)
            ops.call(f"delta_cut@{n}", sk.delta_cut, emp, self.model, metric="lp",
                     budget=self.budget)
            ops.call(f"overlay_graph@{n}", sk.overlay_graph, emp, self.graph, self.budget)
            cloud = ops.call(
                f"quotient_cloud@{n}", sk.quotient_cloud, emp, 2,
                mode="sample", count=max(self.cloud_count, n + 1), seed=cs,
            )
            ops.call(f"hausdorff@{n}", sk.hausdorff, cloud, self.target_cloud, metric="dsquare")

    @staticmethod
    def cell(ops: Ops, n: int) -> dict:
        """Results of the cell of size n, keyed by operation name."""
        tag = f"@{n}"
        return {name[: -len(tag)]: r for name, r in ops.rows if name.endswith(tag)}

    def rows(self, index: int, ops: Ops) -> list[dict]:
        """The convergence_run rows this trial stands for."""
        out = []
        for n in self.schedule:
            res = self.cell(ops, n)
            for metric, op in (("delta_lp", "delta_cut"), ("overlay", "overlay_graph"),
                               ("dhaus", "hausdorff")):
                r = res[op]
                value, exact = (r, True) if op == "hausdorff" else (r.value, r.exact)
                out.append({"n": n, "trial": index % self.trials, "metric": metric,
                            "value": float(value), "exact": bool(exact)})
        return out

    def reference_values(self, index: int, ops: Ops) -> dict:
        return {f"{r['metric']}@{r['n']}": r["value"] for r in self.rows(index, ops) if r["exact"]}

    def check_one(self, index: int, ops: Ops, chk: Checker) -> None:
        for n in self.schedule:
            self._check_cell(index, n, self.cell(ops, n), chk)

    def _check_cell(self, index: int, n: int, res: dict, chk: Checker) -> None:
        sk = self.sk
        sample, emp = res["sample_graph"], res["empirical_kernel"]
        chk.expect(sample.n == n and sample.labels.max() < 2, index, f"sample_graph@{n}",
                   "sample has the wrong size or labels")
        chk.expect(emp.n_parts == n and emp.kind == "probability", index,
                   f"empirical_kernel@{n}", "empirical kernel is not an n-part probability kernel")
        d = res["delta_cut"]
        # the target is constant, so the labeled value at the identity is the
        # distance; it is exact up to the labeled enumeration cap of 12 parts
        chk.expect(d.exact == (n <= 12), index, f"delta_cut@{n}", f"exact={d.exact}")
        if d.exact:
            chk.close(index, f"delta_cut@{n}", d.value, sk.cut_dist_lp(emp, self.model),
                      "labeled replay")
        else:
            tv = _weighted_tv(emp, sk.uniform_refine(self.model, n))
            chk.expect(0.0 <= d.value <= tv + ABS_TOL, index, f"delta_cut@{n}",
                       f"search value {d.value!r} outside [0, TV {tv!r}]")
        o = res["overlay_graph"]
        chk.expect(o.exact == (n <= 16), index, f"overlay_graph@{n}", f"exact={o.exact}")
        try:
            o.certificate.check_marginals(emp.part_sizes, self.graph.alpha)
        except ValueError as exc:
            chk.expect(False, index, f"overlay_graph@{n}", str(exc))
        chk.close(index, f"overlay_graph@{n}", o.value,
                  sk.overlay_objective(emp, self.graph, o.certificate), "certificate replay")
        cloud = res["quotient_cloud"]
        chk.expect(len(cloud) >= 1 and cloud.k == 2, index, f"quotient_cloud@{n}", "empty cloud")
        h = res["hausdorff"]
        # the Hausdorff distance bounds the distance from any member to the other cloud
        lower = min(sk.dsquare_quotient(cloud.quotients[0], b)
                    for b in self.target_cloud.quotients)
        chk.expect(math.isfinite(h) and h >= lower - ABS_TOL, index, f"hausdorff@{n}",
                   f"value {h!r} below the one-member bound {lower!r}")

    def check_all(self, done: list, chk: Checker) -> None:
        """Trial 0 must give the rows of one convergence_run call."""
        first = next((ops for i, ops in done if i % self.trials == 0), None)
        if first is None:
            return
        rows = self.sk.convergence_run(
            self.model, list(self.schedule), trials=1, seed=self.seed,
            metrics=("delta_lp", "overlay", "dhaus"), graph=self.graph,
            cloud_count=self.cloud_count, budget=self.budget,
        )
        ref = {(r["n"], r["metric"]): r for r in rows}
        for row in self.rows(0, first):
            other = ref.get((row["n"], row["metric"]))
            chk.expect(other == row, 0, "convergence_run",
                       f"row {row} differs from convergence_run {other}")


# ---------------------------------------------------------------------------
# unlabeled: permutation search between random kernels
# ---------------------------------------------------------------------------

class Unlabeled:
    """One kernel pair per instance: delta_cut (lp and f), delta_2f, f_overlay.

    Grids of 5 and 6 cells take the exhaustive permutation race; 9-cell grids
    take the annealing and QAP tiers under one small fixed budget.  Of the
    two annealed pairs in a round one is planted: ``w`` is a relabeled,
    slightly perturbed copy of ``u``.  Twenty-four 5-cell pairs per round put
    the median near the middle of the 5-cell class, and the two annealed
    pairs per round are the slowest class, so the tail falls inside it.
    7-cell and larger exhaustive grids are left out: their race takes from
    0.3 s to over 15 s depending on the pair.
    """

    name = "unlabeled"
    # (cells, points, planted) per instance of a round
    _FIVES = ((5, 2, False), (5, 2, False), (5, 3, False)) * 4
    ROUND = (
        ((9, 2, True),) + _FIVES + ((6, 3, False),)
        + ((9, 2, False),) + _FIVES + ((6, 2, False),)
    )
    round_size = len(ROUND)
    rounds = 24
    budget_args = dict(restarts=1, steps=6, seed=0)
    noise = 0.02

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        rng = _rng(seed, 2)
        self.spaces = {2: sk.DecorationSpace.two_point(), 3: sk.DecorationSpace.discrete((0, 1, 2))}
        self.families = {m: sk.TestFamily.default(s) for m, s in self.spaces.items()}
        self.budget = sk.SearchBudget(**self.budget_args)
        self.deck = []
        for _ in range(self.rounds):
            for cells, m, planted in self.ROUND:
                space = self.spaces[m]
                u = _random_prob_kernel(sk, rng, space, cells)
                if planted:
                    perm = rng.permutation(cells)
                    e = u.entries[np.ix_(perm, perm)] + self.noise * rng.random(u.entries.shape)
                    e /= e.sum(axis=2, keepdims=True)
                    w = sk.StepKernel(space, u.part_sizes, e)
                    undo = np.argsort(perm)
                else:
                    w, undo = _random_prob_kernel(sk, rng, space, cells), None
                self.deck.append((u, w, self.families[m], undo))

    def run(self, ops: Ops, index: int) -> None:
        sk = self.sk
        u, w, fam, _ = self.deck[index % len(self.deck)]
        ops.call("delta_cut.lp", sk.delta_cut, u, w, metric="lp", budget=self.budget)
        ops.call("delta_cut.f", sk.delta_cut, u, w, metric="f", fam=fam, budget=self.budget)
        ops.call("delta_2f", sk.delta_2f, u, w, fam, budget=self.budget)
        ops.call("f_overlay", sk.f_overlay, u, w, fam, budget=self.budget)

    def reference_values(self, index: int, ops: Ops) -> dict:
        return {op: r.value for op, r in ops.rows if r.exact}

    def brute_force(self, index: int, ops: Ops) -> list[str]:
        """Exhaustive minima of 5-cell pairs recomputed over all 120 relabelings."""
        sk = self.sk
        u, w, fam, _ = self.deck[index % len(self.deck)]
        if u.n_parts != 5:
            return []
        res = dict(ops.rows)
        perms = list(itertools.permutations(range(5)))
        lp = min(sk.cut_dist_lp(u, sk.relabel(w, p)) for p in perms)
        f = min(sk.cut_dist_f(u, sk.relabel(w, p), fam) for p in perms)
        return [f"{op}: {res[op].value!r} != brute force {want!r}"
                for op, want in (("delta_cut.lp", lp), ("delta_cut.f", f))
                if abs(res[op].value - want) > ABS_TOL]

    def planted_excess(self, done: list) -> list[float]:
        """Reported lp value minus the labeled distance at the planted permutation."""
        out = []
        for index, ops in done:
            u, w, _, undo = self.deck[index % len(self.deck)]
            res = dict(ops.rows)
            if undo is None or res["delta_cut.lp"].exact:
                continue
            planted = self.sk.cut_dist_lp(u, self.sk.relabel(w, undo))
            out.append(res["delta_cut.lp"].value - planted)
        return out

    def check_one(self, index: int, ops: Ops, chk: Checker) -> None:
        sk = self.sk
        u, w, fam, _ = self.deck[index % len(self.deck)]
        n = u.n_parts
        exhaustive = n <= 8
        res = dict(ops.rows)
        for op, r in ops.rows:
            chk.expect(r.exact == exhaustive, index, op, f"exact={r.exact} at {n} cells")
        lp, f = res["delta_cut.lp"], res["delta_cut.f"]
        chk.close(index, "delta_cut.lp", lp.value,
                  sk.cut_dist_lp(u, sk.relabel(w, lp.permutation)), "permutation replay")
        chk.close(index, "delta_cut.f", f.value,
                  sk.cut_dist_f(u, sk.relabel(w, f.permutation), fam), "permutation replay")
        d2 = res["delta_2f"]
        diff = sk.StepKernel(u.space, u.part_sizes,
                             u.entries - sk.relabel(w, d2.permutation).entries)
        chk.close(index, "delta_2f", d2.value, sk.f_l2_norm(diff, fam), "permutation replay")
        fo = res["f_overlay"]
        chk.close(index, "f_overlay", fo.value,
                  sk.f_inner(u, sk.relabel(w, fo.certificate), fam), "permutation replay")
        if index % self.round_size == 1:  # one 5-cell pair per round, ~0.3 s
            for problem in self.brute_force(index, ops):
                chk.expect(False, index, "brute_force", problem)
        if exhaustive:
            # an optimum over permutations is no worse than the identity
            chk.expect(lp.value <= sk.cut_dist_lp(u, w) + ABS_TOL, index, "delta_cut.lp",
                       "exhaustive minimum above the identity permutation")
            chk.expect(fo.value >= sk.f_inner(u, w, fam) - ABS_TOL, index, "f_overlay",
                       "exhaustive maximum below the identity permutation")


# ---------------------------------------------------------------------------
# wide: Levy-Prokhorov work on larger spaces
# ---------------------------------------------------------------------------

class Wide:
    """One call per instance: Levy-Prokhorov work on a few fixed spaces shared
    by the run, plus one ``stepkernels verify`` invocation per round.

    The verify invocation runs the property suites through ``cli.main``; each
    of its check instances draws a fresh space, so it shares almost no work
    with the rest of the round, and a per-space cache that wins on the fixed
    spaces shows its cost there.  A round is one call of each kind below.
    Nine cheap calls sit below three 5-part cut distances at m = 8 and nine
    dearer calls above them, so the median falls inside that class; the three
    m = 12 batches are the slowest class, so the tail falls inside it.
    """

    name = "wide"
    ROUND = (
        ("lp_distance", 6), ("lp_distance_batch", 6), ("cut_dist_lp", (6, 3)),
        ("lp_distance", 8), ("lp_distance_batch", 8), ("cut_dist_lp", (7, 4)),
        ("lp_distance", 10), ("lp_distance", 12), ("cut_dist_lp", (6, 5)),
        ("cut_dist_lp", (8, 5)), ("cut_dist_lp", (8, 5)), ("cut_dist_lp", (8, 5)),
        ("hausdorff", 4), ("hausdorff", 5), ("hausdorff", 6),
        ("lp_distance_batch", 10), ("lp_distance_estimate", 24), ("verify", None),
        ("lp_distance_batch", 12), ("lp_distance_batch", 12), ("lp_distance_batch", 12),
    )
    round_size = len(ROUND)
    rounds = 20
    batch = 192
    bracket_members = 8
    cloud_cells = 6
    cloud_count = 12
    verify_suites = "measures,cutnorm,delta,overlay,quotients"
    verify_trials = 8

    def setup(self, sk, seed: int) -> None:
        self.sk = sk
        self.seed = seed
        rng = _rng(seed, 3)
        sizes = sorted({arg if isinstance(arg, int) else arg[0]
                        for _, arg in self.ROUND if arg is not None})
        self.spaces = {m: _random_metric_space(sk, rng, m) for m in sizes}
        self.deck = []
        for _ in range(self.rounds):
            for kind, arg in self.ROUND:
                if kind == "lp_distance_batch":
                    m = arg
                    item = (rng.dirichlet(np.ones(m), size=self.batch),
                            rng.dirichlet(np.ones(m), size=self.batch))
                elif kind in ("lp_distance", "lp_distance_estimate"):
                    space = self.spaces[arg]
                    item = (sk.SignedMeasure(space, rng.dirichlet(np.ones(arg))),
                            sk.SignedMeasure(space, rng.dirichlet(np.ones(arg))))
                elif kind == "cut_dist_lp":
                    m, parts = arg
                    space = self.spaces[m]
                    item = (_random_prob_kernel(sk, rng, space, parts),
                            _random_prob_kernel(sk, rng, space, parts))
                elif kind == "verify":
                    item = int(rng.integers(2**31))  # the --seed of the invocation
                else:
                    space = self.spaces[arg]
                    item = (_random_prob_kernel(sk, rng, space, 3),
                            _random_prob_kernel(sk, rng, space, 3),
                            int(rng.integers(2**31)))
                self.deck.append((kind, arg, item))

    def run(self, ops: Ops, index: int) -> None:
        sk = self.sk
        kind, arg, item = self.deck[index % len(self.deck)]
        if kind == "lp_distance_batch":
            ops.call(kind, sk.lp_distance_batch, self.spaces[arg], *item)
        elif kind == "hausdorff":
            u, w, cloud_seed = item
            a = ops.call("quotient_cloud", sk.quotient_cloud, u, 2, mode="sample",
                         cells=self.cloud_cells, count=self.cloud_count, seed=cloud_seed)
            b = ops.call("quotient_cloud", sk.quotient_cloud, w, 2, mode="sample",
                         cells=self.cloud_cells, count=self.cloud_count, seed=cloud_seed + 1)
            ops.call("hausdorff.d1", sk.hausdorff, a, b, metric="d1")
            ops.call("hausdorff.dsquare", sk.hausdorff, a, b, metric="dsquare")
        elif kind == "verify":
            with contextlib.redirect_stdout(io.StringIO()):
                ops.call(kind, sk.cli.main, self._verify_argv(item, self._report_path(index)))
        else:
            ops.call(kind, getattr(sk, kind), *item)

    def _verify_argv(self, seed: int, out: Path) -> list[str]:
        return ["verify", "--suite", self.verify_suites, "--trials", str(self.verify_trials),
                "--seed", str(seed), "--threads", "1", "--out", str(out)]

    def _report_path(self, index: int) -> Path:
        return OUT_DIR / f"verify-{index}.json"

    def _report(self, index: int) -> dict:
        return json.loads(self._report_path(index).read_text(encoding="utf-8"))

    def reference_values(self, index: int, ops: Ops) -> dict:
        out = {}
        for op, r in ops.rows:
            if op == "verify":
                out[op] = {c["name"]: c["instances"] for c in self._report(index)["checks"]}
            elif op == "lp_distance_batch":
                out[op] = [float(x) for x in r[: self.bracket_members]] + [float(r.sum())]
            elif op not in ("quotient_cloud", "lp_distance_estimate"):  # exact tiers only
                out[op] = float(r)
        return out

    def _bracket(self, mu, nu, v) -> bool:
        sk = self.sk
        above = sk.lp_feasible(mu, nu, v + ABS_TOL)
        below = v <= ABS_TOL or not sk.lp_feasible(mu, nu, v - 1e-7)
        return above and below

    def check_one(self, index: int, ops: Ops, chk: Checker) -> None:
        sk = self.sk
        kind, arg, item = self.deck[index % len(self.deck)]
        res = dict(ops.rows)
        if kind == "lp_distance":
            v = res[kind]
            chk.expect(self._bracket(*item, v), index, kind, f"{v!r} not bracketed by lp_feasible")
        elif kind == "lp_distance_batch":
            space = self.spaces[arg]
            mus, nus = item
            v = res[kind]
            tv = np.abs(mus - nus).sum(axis=1)
            chk.expect(v.shape == (self.batch,) and bool(np.all((v >= 0) & (v <= tv + ABS_TOL))),
                       index, kind, "batch value outside [0, TV]")
            for j in range(self.bracket_members):
                mu, nu = sk.SignedMeasure(space, mus[j]), sk.SignedMeasure(space, nus[j])
                chk.expect(self._bracket(mu, nu, float(v[j])), index, kind,
                           f"member {j} value {v[j]!r} not bracketed by lp_feasible")
        elif kind == "cut_dist_lp":
            u, w = item
            v = res[kind]
            # the whole square is one of the rectangles
            whole = sk.lp_distance(sk.aggregate_measure(u), sk.aggregate_measure(w))
            chk.expect(whole - ABS_TOL <= v <= _weighted_tv(u, w) + ABS_TOL, index, kind,
                       f"{v!r} outside [whole-square {whole!r}, TV]")
        elif kind == "lp_distance_estimate":
            est = res[kind]
            mu, nu = item
            chk.expect(not est.exact and 0.0 <= est.lower <= est.upper
                       and abs(est.upper - sk.tv_distance(mu, nu)) <= ABS_TOL,
                       index, kind, f"bad bracket {est!r}")
        elif kind == "verify":
            chk.expect(res[kind] == 0, index, kind, f"exit code {res[kind]}")
            doc = self._report(index)
            chk.expect(doc["failures"] == 0 and all(c["passed"] for c in doc["checks"]),
                       index, kind, f"{doc['failures']} failed checks")
            chk.expect(sum(c["instances"] for c in doc["checks"]) > 0, index, kind,
                       "no check instances")
        else:
            a, b = ops.rows[0][1], ops.rows[1][1]
            for op, metric in (("hausdorff.d1", sk.d1_quotient),
                               ("hausdorff.dsquare", sk.dsquare_quotient)):
                h = res[op]
                lower = max(min(metric(a.quotients[0], q) for q in b.quotients),
                            min(metric(q, b.quotients[0]) for q in a.quotients))
                chk.expect(math.isfinite(h) and h >= lower - ABS_TOL, index, op,
                           f"value {h!r} below the one-member bound {lower!r}")

    def check_all(self, done: list, chk: Checker) -> None:
        """A repeated verify invocation with the same seed writes a byte-identical report."""
        first = next((i for i, _ in done if self.deck[i % len(self.deck)][0] == "verify"), None)
        if first is None:
            return
        again = OUT_DIR / "verify-again.json"
        with contextlib.redirect_stdout(io.StringIO()):
            self.sk.cli.main(self._verify_argv(self.deck[first % len(self.deck)][2], again))
        chk.expect(again.read_bytes() == self._report_path(first).read_bytes(), first,
                   "verify", "a repeated invocation wrote a different report")


WORKLOADS = {w.name: w for w in (Theorem, Unlabeled, Wide)}
