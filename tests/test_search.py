"""The shared search loops: enumeration, flip search, annealing.

The rectangle search is checked against the exact enumeration tiers where
both run.  The pinned values at the end fix seeded outputs of the heuristic
tiers bit for bit, so that a change to a search loop that moves them shows.
"""

import itertools

import numpy as np
import pytest

from stepkernels import (
    CbGraph,
    DecorationSpace,
    Quotient,
    StepKernel,
    TestFamily,
    cut_dist_f,
    cut_dist_lp,
    cut_dist_search,
    delta_2f,
    delta_cut,
    dsquare_quotient,
    dsquare_quotient_search,
    lp_distance_batch,
    overlay_graph,
    uniform_refine,
)
from stepkernels.search import (
    FLIP_STEPS,
    SearchBudget,
    count_assignments,
    flip_search,
    qap_count_max,
    qap_optimize,
    qap_value,
    rectangle_search,
)


def random_prob_kernel(rng, space, parts):
    e = rng.random((parts, parts, space.size)) + 0.05
    e /= e.sum(axis=2, keepdims=True)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


def random_quotient(rng, space, k):
    a = rng.random(k) + 0.1
    a /= a.sum()
    b = rng.random((k, k, space.size)) + 0.05
    b /= b.sum(axis=2, keepdims=True)
    return Quotient(space, a, b)


def block_masses(k: StepKernel) -> np.ndarray:
    lam = k.part_sizes
    return k.entries * np.outer(lam, lam)[:, :, None]


def rectangle_mass(blocks, s, t):
    return np.einsum("p,pqm,q->m", s.astype(float), blocks, t.astype(float))


def filtered_product(n, counts):
    """The rows of ``itertools.product(range(len(counts)), repeat=n)`` with
    these class counts, in its order; prefixes that exceed a count are
    pruned, so n! permutations cost n! rows, not n**n."""
    if n == 0:
        return [()] if not any(counts) else []
    return [(c,) + z for c in range(len(counts)) if counts[c] > 0
            for z in filtered_product(n - 1, counts[:c] + [counts[c] - 1] + counts[c + 1:])]


class TestEnumeration:
    @pytest.mark.parametrize(
        "n, counts",
        [(0, []), (0, [0, 0]), (1, [0, 1]), (4, [4]), (5, [2, 0, 3]), (6, [0, 6, 0]),
         (7, [2, 2, 3]), (8, [3, 0, 5]), (9, [2, 3, 0, 4]), (14, [7, 7]),
         # permutations, in the order of itertools.permutations
         (1, [1]), (4, [1] * 4), (6, [1] * 6), (8, [1] * 8)],
    )
    def test_count_assignments_match_filtered_product(self, n, counts):
        want = filtered_product(n, counts)
        blocks = list(count_assignments(n, counts))
        # (14, [7, 7]) has 3432 rows and (8, [1] * 8) 40320: blocks of 4096
        assert all(b.dtype == np.intp and b.shape[0] <= 4096 for b in blocks)
        assert np.concatenate(blocks).tolist() == [list(z) for z in want]

    def test_count_assignments_blocks_of_4096(self):
        blocks = list(count_assignments(12, [4, 4, 4]))
        assert [b.shape[0] for b in blocks] == [4096] * 8 + [34650 - 8 * 4096]
        rows = np.concatenate(blocks)
        assert (np.sort(rows, axis=1) == np.repeat(np.arange(3), 4)).all()
        # strictly increasing in lexicographic order, hence every row once
        diff = rows[1:] - rows[:-1]
        lead = diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]
        assert (lead > 0).all()

    def test_count_assignments_without_rows(self):
        assert list(count_assignments(3, [1, 1])) == []
        assert list(count_assignments(2, [3, -1])) == []

    def test_exhaustive_qap_on_ties_matches_brute_force(self):
        # 2-part kernels refined to 8 cells: every maximum is tied many times
        space = DecorationSpace.two_point()
        u = StepKernel(space, [0.5, 0.5], [[[0.25, 0.75], [0.5, 0.5]], [[0.5, 0.5], [1.0, 0.0]]])
        w = StepKernel(space, [0.5, 0.5], [[[1.0, 0.0], [0.75, 0.25]], [[0.75, 0.25], [0.5, 0.5]]])
        t = np.einsum("abm,cdm->abcd", uniform_refine(u, 8).entries, uniform_refine(w, 8).entries)
        perms, cells = np.array(list(itertools.permutations(range(8)))), np.arange(8)
        values = t[cells[:, None], cells, perms[:, :, None], perms[:, None, :]].sum(axis=(1, 2))
        res = qap_optimize(t)
        assert res.exact
        assert res.value == pytest.approx(values.max(), abs=1e-12)
        assert qap_value(t, res.certificate) == pytest.approx(values.max(), abs=1e-12)
        assert (values >= values.max() - 1e-12).sum() > 1

    @pytest.mark.parametrize("n, counts", [
        (1, [1]), (6, [3, 3]), (7, [3, 4]), (9, [2, 3, 4]), (8, [0, 5, 3]), (10, [2, 2, 3, 3]),
    ])
    def test_qap_count_max_matches_every_block(self, n, counts):
        t = np.random.default_rng(n).normal(size=(n, n, len(counts), len(counts)))
        best, row = qap_count_max(t, counts)
        want, want_row = -np.inf, None
        for z in filtered_product(n, counts):
            value = qap_value(t, np.array(z))
            if value > want + 1e-12:  # the first row attaining the maximum wins
                want, want_row = value, z
        assert row.dtype == np.intp and row.tolist() == list(want_row)
        assert best == pytest.approx(want, abs=1e-12)
        assert best == pytest.approx(qap_value(t, row), abs=1e-12)
        assert qap_count_max(t, [n + 1] + [0] * (len(counts) - 1)) == (-np.inf, None)

    def test_exhaustive_qap_matches_brute_force(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(5, 5, 5, 5))
        values = {p: qap_value(t, np.array(p)) for p in itertools.permutations(range(5))}
        res = qap_optimize(t)
        assert res.exact
        assert res.value == pytest.approx(max(values.values()), abs=1e-12)
        assert qap_value(t, res.certificate) == pytest.approx(res.value, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_exhaustive_qap_takes_the_first_tied_permutation(self, n):
        # a 2-part integer kernel against an integer graph: sums are exact,
        # and every maximum from n = 3 on is tied
        rng, half = np.random.default_rng(n), np.arange(n) % 2
        u, w = rng.integers(1, 3, (2, 2))[np.ix_(half, half)], rng.integers(0, 3, (n, n))
        t = np.einsum("ab,ij->abij", u, w).astype(float)
        perms = list(itertools.permutations(range(n)))
        values = [qap_value(t, np.array(p)) for p in perms]
        res = qap_optimize(t)
        assert res.exact and res.value == max(values)
        assert res.certificate.tolist() == list(perms[values.index(max(values))])

    def test_qap_count_max_shape_cache_is_read_only(self):
        from stepkernels.search import _halves

        rng = np.random.default_rng(6)
        tables = [rng.normal(size=(6, 6, 2, 2)) for _ in range(2)]
        first = [qap_count_max(t, [3, 3]) for t in tables]
        # the shape-only arrays are shared between calls and cannot be written
        assert not any(a.flags.writeable for a in _halves(6, (3, 3))[:-1])
        again = [qap_count_max(t, [3, 3]) for t in reversed(tables)][::-1]
        for (v, row), (w, row2), t in zip(first, again, tables):
            assert v == w and row.tolist() == row2.tolist()
            assert v == pytest.approx(qap_value(t, row), abs=1e-12)


class TestFlipSearch:
    def test_linear_objective_reaches_optimum(self):
        c = np.array([0.5, -1.0, 2.0, -0.25, 1.0])

        def scan(x):
            value = float(c[x].sum())
            return value, value + np.where(x, -c, c)

        value, x = flip_search(scan, c.size, SearchBudget(restarts=3, seed=2), key=0)
        assert value == pytest.approx(3.5)
        assert x.tolist() == (c > 0).tolist()

    def test_step_cap_evaluates_the_final_vector(self):
        # every flip improves, so the cap stops the walk after FLIP_STEPS flips
        length = FLIP_STEPS + 36
        c = np.arange(1, length + 1) * -1e-3
        calls = []

        def scan(x):
            calls.append(int(x.sum()))
            value = 1.0 + float(c[x].sum())
            return value, value + np.where(x, -c, c)

        value, x = flip_search(scan, length, SearchBudget(restarts=1), key=0)
        assert len(calls) == FLIP_STEPS + 1
        assert int(x.sum()) == length - FLIP_STEPS
        assert value == pytest.approx(1.0 + float(c[x].sum()))

    def test_no_positive_value_gives_no_certificate(self):
        def scan(x):
            return -1.0, np.full(x.size, -2.0)

        assert flip_search(scan, 4, SearchBudget(restarts=2), key=0) == (0.0, None)

    @pytest.mark.parametrize("parts", [3, 4, 5])
    @pytest.mark.parametrize("metric", ["lp", "f"])
    def test_rectangle_search_within_exact_kernels(self, parts, metric):
        rng = np.random.default_rng(100 + parts)
        z = DecorationSpace.discrete(range(3)) if parts == 4 else DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u, w = random_prob_kernel(rng, z, parts), random_prob_kernel(rng, z, parts)
        if metric == "lp":
            def objective(mus, nus):
                return lp_distance_batch(z, np.clip(mus, 0.0, None), np.clip(nus, 0.0, None))
            exact = cut_dist_lp(u, w)
        else:
            def objective(mus, nus):
                return np.abs((mus - nus) @ fam.values.T) @ fam.scale_weights()
            exact = cut_dist_f(u, w, fam)
        bu, bw = block_masses(u), block_masses(w)
        whole = float(objective(bu.sum(axis=(0, 1))[None], bw.sum(axis=(0, 1))[None])[0])
        value, (s, t) = rectangle_search(bu, bw, objective, SearchBudget(restarts=4, seed=3), key=11)
        assert whole - 1e-12 <= value <= exact + 1e-12
        replay = objective(rectangle_mass(bu, s, t)[None], rectangle_mass(bw, s, t)[None])[0]
        assert replay == pytest.approx(value, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_rectangle_search_within_exact_quotients(self, k):
        rng = np.random.default_rng(200 + k)
        z = DecorationSpace.two_point()
        a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
        sa, sb = a.scaled(), b.scaled()

        def objective(mus, nus):
            return lp_distance_batch(z, mus, nus)

        alpha_term = float(np.abs(a.alpha - b.alpha).sum())
        whole = float(objective(sa.sum(axis=(0, 1))[None], sb.sum(axis=(0, 1))[None])[0])
        value, (s, t) = rectangle_search(sa, sb, objective, SearchBudget(restarts=4, seed=4), key=41)
        assert whole - 1e-12 <= value
        assert alpha_term + value <= dsquare_quotient(a, b) + 1e-12
        replay = objective(rectangle_mass(sa, s, t)[None], rectangle_mass(sb, s, t)[None])[0]
        assert replay == pytest.approx(value, rel=1e-12, abs=1e-15)


class TestAnnealing:
    @pytest.mark.parametrize("n", [5, 6, 9])
    def test_qap_annealing_reports_value_at_certificate(self, n):
        # 5 and 6 cells are exhaustive, 9 annealed; both tiers replay exactly
        rng = np.random.default_rng(400 + n)
        t = rng.random((n, n, n, n))
        res = qap_optimize(t, SearchBudget(restarts=2, steps=400, seed=9))
        assert res.exact == (n <= 8)
        assert res.value == qap_value(t, res.certificate)


class TestPinnedOutputs:
    """Fixed-seed outputs of the heuristic tiers, pinned to their exact bits."""

    Z = DecorationSpace.two_point()

    @pytest.mark.parametrize("seed, lp, lp_perm, f, f_perm", [
        (0, 0.057618539149128414, [4, 8, 7, 0, 1, 2, 5, 3, 6],
         0.04321390436184633, [4, 8, 7, 0, 1, 2, 5, 3, 6]),
        (1, 0.08579238263728106, [4, 1, 5, 3, 0, 7, 2, 6, 8],
         0.06434428697796081, [4, 1, 5, 3, 0, 7, 2, 6, 8]),
    ])
    def test_annealed_delta_cut_9_cells(self, seed, lp, lp_perm, f, f_perm):
        rng = np.random.default_rng(60 + seed)
        u, w = random_prob_kernel(rng, self.Z, 9), random_prob_kernel(rng, self.Z, 9)
        budget = SearchBudget(restarts=2, steps=2, seed=seed)
        res = delta_cut(u, w, metric="lp", budget=budget)
        assert (res.value, res.certificate.tolist(), res.exact) == (lp, lp_perm, False)
        res = delta_cut(u, w, metric="f", fam=TestFamily.default(self.Z), budget=budget)
        assert (res.value, res.certificate.tolist(), res.exact) == (f, f_perm, False)

    @pytest.mark.parametrize("seed, lp, f, s, t", [
        (0, 0.05524996623815359, 0.04143747467861522, "10111110101110", "01111110111110"),
        (1, 0.05615579468793877, 0.042116846015954175, "10101110110100", "10001111111111"),
        (2, 0.06130619020435274, 0.04597964265326458, "01111111010111", "10101011101011"),
    ])
    def test_cut_dist_search_14_parts(self, seed, lp, f, s, t):
        rng = np.random.default_rng(200 + seed)
        u, w = random_prob_kernel(rng, self.Z, 14), random_prob_kernel(rng, self.Z, 14)
        budget = SearchBudget(restarts=3, seed=seed)
        want = [[c == "1" for c in s], [c == "1" for c in t]]
        res = cut_dist_search(u, w, metric="lp", budget=budget)
        assert res.to_jsonable() == {"value": lp, "exact": False, "certificate": want}
        res = cut_dist_search(u, w, metric="f", fam=TestFamily.default(self.Z), budget=budget)
        assert res.to_jsonable() == {"value": f, "exact": False, "certificate": want}

    @pytest.mark.parametrize("seed, value", [
        (0, 1.088545995641383),
        (1, 1.2136161983924412),
        (2, 0.7788921094876102),
    ])
    def test_dsquare_quotient_search_13_cells(self, seed, value):
        rng = np.random.default_rng(300 + seed)
        a, b = random_quotient(rng, self.Z, 13), random_quotient(rng, self.Z, 13)
        res = dsquare_quotient_search(a, b, SearchBudget(restarts=3, seed=seed))
        assert (res.value, res.exact) == (value, False)

    @pytest.mark.parametrize("n, perm", [
        (9, [7, 4, 5, 8, 1, 2, 6, 0, 3]),
        (10, [9, 3, 6, 4, 2, 1, 7, 8, 5, 0]),
    ])
    def test_annealed_qap_certificate(self, n, perm):
        rng = np.random.default_rng(400 + n)
        t = rng.random((n, n, n, n))
        res = qap_optimize(t, SearchBudget(restarts=2, steps=400, seed=n))
        assert res.certificate.tolist() == perm


class TestSearchResult:
    Z = DecorationSpace.two_point()

    def test_json_keys(self):
        # the optional fields are written only when set, so each payload
        # keeps the keys it had before the result types were merged
        rng = np.random.default_rng(5)
        fam = TestFamily.default(self.Z)
        u, w = random_prob_kernel(rng, self.Z, 3), random_prob_kernel(rng, self.Z, 3)
        base = {"value", "exact", "certificate"}
        for res in (delta_cut(u, w), delta_cut(u, w, metric="f", fam=fam), delta_2f(u, w, fam)):
            assert res.to_jsonable().keys() == base | {"refinement"}
            assert res.refinement == 3 and res.permutation is res.certificate
        big = random_prob_kernel(rng, self.Z, 13), random_prob_kernel(rng, self.Z, 13)
        graph = CbGraph.from_edges(self.Z, 2, [(0, 1, [0.0, 1.0])])
        for res in (
            cut_dist_search(u, w),
            cut_dist_search(*big, budget=SearchBudget(restarts=1)),
            overlay_graph(u, graph, cells=6),
        ):
            assert res.to_jsonable().keys() == base
