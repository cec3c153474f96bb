"""Cut norms, cut distances, unlabeled deltas: oracle agreement + invariants.

Test-local oracles: full subset-pair enumeration for cut quantities and full
permutation enumeration for the unlabeled distances, written directly from
the definitions without reusing the library's search code paths.
"""

import itertools

import numpy as np
import pytest

from stepkernels import (
    DecorationSpace,
    RealStepKernel,
    SignedMeasure,
    StepKernel,
    TestFamily,
    cut_dist_f,
    cut_dist_lp,
    cut_dist_search,
    cut_norm_real,
    cut_norm_real_search,
    delta_2f,
    delta_cut,
    f_distance,
    f_inner,
    f_l2_norm,
    from_real_graphon,
    lp_distance,
    relabel,
    uniform_refine,
)
from stepkernels import metrics
from stepkernels.search import SearchBudget, qap_count_max


def random_prob_kernel(rng, space, parts):
    e = rng.random((parts, parts, space.size)) + 0.05
    e /= e.sum(axis=2, keepdims=True)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


def cut_norm_oracle(w: RealStepKernel) -> float:
    """Max over every subset pair, both sides enumerated (test-local)."""
    p = w.n_parts
    weighted = w.values * np.outer(w.part_sizes, w.part_sizes)
    best = 0.0
    for s in itertools.product([0, 1], repeat=p):
        for t in itertools.product([0, 1], repeat=p):
            val = abs(sum(
                weighted[i, j] for i in range(p) for j in range(p)
                if s[i] and t[j]
            ))
            best = max(best, val)
    return best


def cut_dist_oracle(u, w, metric, fam=None) -> float:
    """Labeled cut distance by full subset-pair enumeration (test-local)."""
    p = u.n_parts
    lam = u.part_sizes
    best = 0.0
    for s in itertools.product([0, 1], repeat=p):
        for t in itertools.product([0, 1], repeat=p):
            mu = np.zeros(u.space.size)
            nu = np.zeros(u.space.size)
            for i in range(p):
                for j in range(p):
                    if s[i] and t[j]:
                        mu += lam[i] * lam[j] * u.entries[i, j]
                        nu += lam[i] * lam[j] * w.entries[i, j]
            if metric == "lp":
                val = lp_distance(
                    SignedMeasure(u.space, np.clip(mu, 0, None)),
                    SignedMeasure(u.space, np.clip(nu, 0, None)),
                )
            else:
                val = f_distance(
                    SignedMeasure(u.space, mu), SignedMeasure(u.space, nu), fam
                )
            best = max(best, val)
    return best


class TestCutNormReal:
    def test_zero(self):
        assert cut_norm_real(RealStepKernel([1.0], [[0.0]])) == 0.0

    def test_constant(self):
        assert cut_norm_real(RealStepKernel([0.5, 0.5], [[0.7, 0.7], [0.7, 0.7]])) == pytest.approx(0.7)

    def test_checkerboard(self):
        # frozen: brute force over the 16 subset pairs gives 0.25
        w = RealStepKernel([0.5, 0.5], [[1.0, -1.0], [-1.0, 1.0]])
        assert cut_norm_real(w) == pytest.approx(0.25)
        assert cut_norm_oracle(w) == pytest.approx(0.25)

    @pytest.mark.parametrize("parts", [2, 3, 4, 5])
    def test_against_oracle(self, parts):
        rng = np.random.default_rng(parts)
        for _ in range(5):
            w = RealStepKernel(np.full(parts, 1 / parts), rng.random((parts, parts)) - 0.5)
            assert cut_norm_real(w) == pytest.approx(cut_norm_oracle(w), abs=1e-12)

    def test_uneven_parts(self):
        rng = np.random.default_rng(99)
        w = RealStepKernel([0.2, 0.3, 0.5], rng.random((3, 3)) - 0.5)
        assert cut_norm_real(w) == pytest.approx(cut_norm_oracle(w), abs=1e-12)

    # (base parts, cells): a random 26-part kernel, or a uniform refinement
    # of a random base kernel whose exact norm is known
    @pytest.mark.parametrize(
        "base_parts, cells", [(None, 26), (2, 26), (2, 36), (2, 48), (3, 27), (3, 39), (3, 48)]
    )
    def test_search_tier_flags(self, base_parts, cells):
        rng = np.random.default_rng(7)
        if base_parts is None:
            base = None
            w = RealStepKernel(np.full(cells, 1 / cells), rng.random((cells, cells)) - 0.5)
        else:
            base = RealStepKernel(
                np.full(base_parts, 1 / base_parts), rng.random((base_parts, base_parts)) - 0.5
            )
            w = uniform_refine(base, cells)
        with pytest.raises(ValueError, match="capped"):
            cut_norm_real(w)
        res = cut_norm_real_search(w, SearchBudget(restarts=3, steps=50, seed=0))
        if base is not None:
            # equal rows and columns merge back to the base parts: exact
            assert res.exact and res.certificate is None
            assert res.value == pytest.approx(cut_norm_real(base), rel=0, abs=1e-15)
            return
        assert not res.exact and res.value > 0.0
        # the certificate row set replays to the reported value
        col = (w.values * np.outer(w.part_sizes, w.part_sizes))[res.certificate].sum(axis=0)
        assert res.value == max(np.clip(col, 0, None).sum(), np.clip(-col, 0, None).sum())

    def test_merged_parts_keep_the_norm(self):
        # a 30-part kernel with three classes of equal rows and columns, on
        # uneven parts, against its 3-part merge
        rng = np.random.default_rng(12)
        base = rng.random((3, 3)) - 0.5
        owner = rng.permutation(np.arange(30) % 3)
        lam = rng.dirichlet(np.ones(30))
        w = RealStepKernel(lam, base[np.ix_(owner, owner)])
        merged = RealStepKernel(np.bincount(owner, weights=lam), base)
        res = cut_norm_real_search(w)
        assert res.exact
        assert res.value == pytest.approx(cut_norm_real(merged), rel=0, abs=1e-15)
        # changing one value splits off row 0 and column 1: five classes
        v = base[np.ix_(owner, owner)].copy()
        v[0, 1] += 0.25
        assert metrics._merge_equal_parts(RealStepKernel(lam, v)).n_parts == 5
        assert cut_norm_real_search(RealStepKernel(lam, v)).exact


class TestCutDistances:
    def test_identical_kernels(self):
        rng = np.random.default_rng(0)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 3)
        assert cut_dist_lp(u, u) == 0.0
        assert cut_dist_f(u, u, TestFamily.default(z)) == 0.0

    def test_single_part_diracs(self):
        z = DecorationSpace.two_point()
        u = StepKernel(z, [1.0], np.array([[[1.0, 0.0]]]))
        w = StepKernel(z, [1.0], np.array([[[0.0, 1.0]]]))
        assert cut_dist_lp(u, w) == pytest.approx(1.0)

    def test_refined_vs_original(self):
        rng = np.random.default_rng(1)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 2)
        assert cut_dist_lp(u, uniform_refine(u, 6)) == 0.0

    def test_single_part_f_norm(self):
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = StepKernel(z, [1.0], np.array([[[0.7, 0.3]]]))
        w = StepKernel(z, [1.0], np.array([[[0.4, 0.6]]]))
        expected = f_distance(u.entry(0, 0), w.entry(0, 0), fam)
        assert cut_dist_f(u, w, fam) == pytest.approx(expected)

    @pytest.mark.parametrize("metric", ["lp", "f"])
    def test_against_oracle(self, metric):
        rng = np.random.default_rng(42)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        for parts in (2, 3):
            u = random_prob_kernel(rng, z, parts)
            w = random_prob_kernel(rng, z, parts)
            fast = cut_dist_lp(u, w) if metric == "lp" else cut_dist_f(u, w, fam)
            slow = cut_dist_oracle(u, w, metric, fam)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_lp_rejects_signed(self):
        z = DecorationSpace.two_point()
        u = StepKernel(z, [1.0], np.array([[[-0.5, 0.5]]]))
        w = StepKernel(z, [1.0], np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError, match="signed"):
            cut_dist_lp(u, w)

    def test_search_tier_lower_bounds_exact(self):
        rng = np.random.default_rng(5)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 4)
        w = random_prob_kernel(rng, z, 4)
        exact = cut_dist_lp(u, w)
        res = cut_dist_search(u, w, metric="lp")
        assert res.exact and res.value == pytest.approx(exact)

    def test_vanishing_separates(self):
        # zero cut distance forces equal block aggregates, hence equal kernels
        rng = np.random.default_rng(14)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 3)
        bumped = np.array(u.entries)
        bumped[1, 2] = bumped[1, 2][::-1].copy()
        w = StepKernel(z, u.part_sizes, bumped)
        assert cut_dist_f(u, w, fam) > 1e-6
        assert cut_dist_lp(u, w) > 1e-6

    def test_two_point_embedding_labeled_factor(self):
        # with family {1, indicator of point 1} the family cut distance of
        # embedded graphons is exactly half the real cut norm of the gap
        rng = np.random.default_rng(15)
        z = DecorationSpace.two_point()
        fam = TestFamily.two_point(z)
        for _ in range(5):
            w = RealStepKernel([0.25] * 4, rng.random((4, 4)))
            u = RealStepKernel([0.25] * 4, rng.random((4, 4)))
            lhs = cut_dist_f(from_real_graphon(w), from_real_graphon(u), fam)
            rhs = 0.5 * cut_norm_real(w - u)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_family_cut_bound_lemma(self):
        # projected real cut norm <= 2**k * family cut norm, per family index
        rng = np.random.default_rng(10)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        for _ in range(20):
            parts = int(rng.integers(2, 5))
            w = StepKernel(
                z, np.full(parts, 1 / parts),
                rng.random((parts, parts, 3)) - 0.5,
            )
            zero = StepKernel(z, w.part_sizes, np.zeros_like(w.entries))
            fnorm = cut_dist_f(w, zero, fam)
            for k in range(len(fam)):
                projected = cut_norm_real(
                    RealStepKernel(w.part_sizes, w.entries @ fam.function(k))
                )
                assert projected <= 2.0 ** k * fnorm + 1e-9


def delta_oracle(u, w, metric, fam=None):
    """Unlabeled distance by full permutation enumeration (test-local)."""
    n = u.n_parts
    best = np.inf
    for p in itertools.permutations(range(n)):
        perm = np.array(p)
        moved = relabel(w, perm)
        if metric == "lp":
            val = cut_dist_oracle(u, moved, "lp")
        else:
            val = cut_dist_oracle(u, moved, "f", fam)
        best = min(best, val)
    return best


def real_delta_oracle(w: RealStepKernel, u: RealStepKernel) -> float:
    """Real-kernel unlabeled cut distance, fully test-local."""
    n = w.n_parts
    best = np.inf
    for p in itertools.permutations(range(n)):
        moved = RealStepKernel(u.part_sizes, u.values[np.ix_(p, p)])
        best = min(best, cut_norm_oracle(w - moved))
    return best


def relabeled_pairs(rng, space, n):
    """(w, relabeled w) for a random n-cell kernel and for an n-cell
    refinement of a kernel on fewer, uneven parts (cells tied in groups)."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
    sizes = np.diff(np.concatenate([[0], cuts, [n]])) / n
    base = random_prob_kernel(rng, space, sizes.size)
    tied = uniform_refine(StepKernel(space, sizes, base.entries), n)
    for w in (random_prob_kernel(rng, space, n), tied):
        yield w, relabel(w, rng.permutation(n))


class TestDeltaCut:
    def test_relabel_zero_with_inverse_certificate(self):
        rng = np.random.default_rng(2)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        for n in range(2, 9):
            for w, v in relabeled_pairs(rng, z, n):
                for metric in ("lp", "f"):
                    res = delta_cut(w, v, metric=metric, fam=fam)
                    assert res.value == 0.0 and res.exact
                    assert relabel(v, res.certificate).approx_eq(w)
                    if n > 6:
                        continue
                    # the lexicographically first equality relabeling
                    first = next(
                        p for p in itertools.permutations(range(n))
                        if np.array_equal(relabel(v, p).entries, w.entries)
                    )
                    assert res.certificate.tolist() == list(first)

    def test_equality_search_needs_equal_entry_multisets(self, monkeypatch):
        calls = []

        def counting(table, counts):
            calls.append(len(counts))
            return qap_count_max(table, counts)

        monkeypatch.setattr(metrics, "qap_count_max", counting)
        rng = np.random.default_rng(12)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 5)
        w = random_prob_kernel(rng, z, 5)
        assert delta_cut(u, w, metric="lp").value > 0.0
        assert calls == []
        assert delta_cut(u, relabel(u, rng.permutation(5)), metric="lp").value == 0.0
        assert calls == [5]

    def test_relabeled_copy_beyond_cap_is_annealed(self):
        # beyond EXACT_PERM_MAX cells only the identity is tried for equality
        rng = np.random.default_rng(13)
        z = DecorationSpace.two_point()
        w = random_prob_kernel(rng, z, 9)
        pi = np.roll(np.arange(9), 1)
        res = delta_cut(w, relabel(w, pi), metric="lp", budget=SearchBudget(restarts=1, steps=20))
        assert not res.exact
        assert res.value == pytest.approx(
            cut_dist_lp(w, relabel(relabel(w, pi), res.certificate)), abs=1e-12
        )

    def test_constant_kernels(self):
        z = DecorationSpace.two_point()
        mu = SignedMeasure(z, [0.4, 0.6])
        a = StepKernel.constant(mu, [0.5, 0.5])
        res = delta_cut(a, a, metric="lp")
        assert res.value == 0.0 and res.exact

    @pytest.mark.parametrize("metric", ["lp", "f"])
    def test_exhaustive_matches_oracle(self, metric):
        rng = np.random.default_rng(3)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 3)
        w = random_prob_kernel(rng, z, 3)
        res = delta_cut(u, w, metric=metric, fam=fam)
        assert res.exact
        assert res.value == pytest.approx(delta_oracle(u, w, metric, fam), abs=1e-12)
        # the certificate achieves the reported value
        labeled = (
            cut_dist_lp(u, relabel(w, res.certificate))
            if metric == "lp"
            else cut_dist_f(u, relabel(w, res.certificate), fam)
        )
        assert labeled == pytest.approx(res.value, abs=1e-12)

    def test_two_point_embedding_proportionality(self):
        rng = np.random.default_rng(4)
        z = DecorationSpace.two_point()
        fam = TestFamily.two_point(z)
        for _ in range(5):
            w = RealStepKernel([0.25] * 4, rng.random((4, 4)))
            u = RealStepKernel([0.25] * 4, rng.random((4, 4)))
            res = delta_cut(from_real_graphon(w), from_real_graphon(u), metric="f", fam=fam)
            assert res.exact
            assert res.value == pytest.approx(0.5 * real_delta_oracle(w, u), abs=1e-9)

    def test_labeled_dominates_unlabeled(self):
        rng = np.random.default_rng(6)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 4)
        w = random_prob_kernel(rng, z, 4)
        assert cut_dist_lp(u, w) >= delta_cut(u, w, metric="lp").value - 1e-12

    def test_symmetry_exact_tier(self):
        rng = np.random.default_rng(8)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 4)
        w = random_prob_kernel(rng, z, 4)
        assert delta_cut(u, w, metric="lp").value == pytest.approx(
            delta_cut(w, u, metric="lp").value, abs=1e-12
        )

    def test_annealing_tier_flagged_and_bounded(self):
        rng = np.random.default_rng(9)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 10)
        w = random_prob_kernel(rng, z, 10)
        budget = SearchBudget(restarts=2, steps=60, seed=1)
        res = delta_cut(u, w, metric="lp", budget=budget)
        assert not res.exact
        assert res.value >= 0.0
        labeled = cut_dist_lp(u, relabel(w, res.certificate))
        assert res.value == pytest.approx(labeled, abs=1e-12)

    def test_refinement_weak_isomorphism_all_metrics(self):
        rng = np.random.default_rng(10)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        three = random_prob_kernel(rng, z, 3)
        two = random_prob_kernel(rng, z, 2)
        for w, n in ((three, 6), (three, 9), (two, 10), (three, 12)):
            refined = uniform_refine(w, n)
            assert delta_cut(w, refined, metric="lp").value == 0.0
            assert delta_cut(w, refined, metric="f", fam=fam).value == 0.0
            assert delta_2f(w, refined, fam).value == pytest.approx(0.0, abs=1e-9)

    def test_incompatible_refinement(self):
        z = DecorationSpace.two_point()
        a = StepKernel(z, [1 / np.pi, 1 - 1 / np.pi], np.full((2, 2, 2), 0.5))
        b = StepKernel(z, [0.5, 0.5], np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="rational"):
            delta_cut(a, b, metric="lp")


class TestDelta2F:
    def test_identical(self):
        rng = np.random.default_rng(11)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 3)
        res = delta_2f(u, u, fam)
        assert res.value == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("cells", [9, 12])
    def test_equal_grids_past_exact_cap_certified_at_identity(self, monkeypatch, cells):
        def unreachable(*args, **kwargs):
            raise AssertionError("equal grids sent to the permutation search")

        monkeypatch.setattr(metrics, "qap_optimize", unreachable)
        rng = np.random.default_rng(14)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        w = random_prob_kernel(rng, z, 3)
        res = delta_2f(w, uniform_refine(w, cells), fam)
        assert (res.value, res.exact, res.refinement) == (0.0, True, cells)
        assert res.certificate.tolist() == list(range(cells))

    def test_equal_grids_within_exact_cap_keep_the_search(self, monkeypatch):
        calls = []
        search = metrics.qap_optimize
        monkeypatch.setattr(metrics, "qap_optimize", lambda *a: calls.append(1) or search(*a))
        rng = np.random.default_rng(14)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        w = random_prob_kernel(rng, z, 3)
        res = delta_2f(w, uniform_refine(w, 6), fam)
        assert calls == [1] and res.exact and res.value == pytest.approx(0.0, abs=1e-9)

    def test_single_part_no_optimization(self):
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = StepKernel(z, [1.0], np.array([[[0.7, 0.3]]]))
        w = StepKernel(z, [1.0], np.array([[[0.4, 0.6]]]))
        res = delta_2f(u, w, fam)
        diff = u.entries - w.entries
        expected = np.sqrt(sum(
            s * float(diff[0, 0] @ fam.function(k)) ** 2
            for k, s in enumerate(fam.scale_weights())
        ))
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_exhaustive_matches_brute_force(self):
        rng = np.random.default_rng(12)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 4)
        w = random_prob_kernel(rng, z, 4)
        res = delta_2f(u, w, fam)
        assert res.exact

        def norm2f(a, b):
            total = 0.0
            for k, s in enumerate(fam.scale_weights()):
                da = a.entries @ fam.function(k) - b.entries @ fam.function(k)
                total += s * float((da ** 2).mean())
            return np.sqrt(total)

        brute = min(
            norm2f(u, relabel(w, np.array(p)))
            for p in itertools.permutations(range(4))
        )
        assert res.value == pytest.approx(brute, abs=1e-12)

    def test_norm_and_inner_consistency(self):
        rng = np.random.default_rng(13)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 3)
        assert f_l2_norm(u, fam) ** 2 == pytest.approx(f_inner(u, u, fam))
