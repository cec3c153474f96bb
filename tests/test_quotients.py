"""Quotients, quotient clouds, Hausdorff comparison, rebalancing."""

import itertools

import numpy as np
import pytest

from stepkernels import measures, quotients, search
from stepkernels import (
    DecorationSpace,
    OverlapMatrix,
    Quotient,
    QuotientCloud,
    RealStepKernel,
    SignedMeasure,
    StepKernel,
    d1_quotient,
    delta_cut,
    dsquare_quotient,
    from_real_graphon,
    hausdorff,
    lp_distance,
    quotient,
    quotient_cloud,
    rebalance_partition,
    relabel,
)

RUNNING_KERNEL = from_real_graphon(RealStepKernel([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]]))


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


def line_space(rng, m):
    """m points on a line at random gaps."""
    x = np.cumsum(rng.random(m) + 0.1)
    return DecorationSpace(tuple(range(m)), np.abs(x[:, None] - x[None, :]))


def hausdorff_clouds(m, k, na, nb):
    """Clouds of na and nb random k-cell quotients on an m-point line metric."""
    rng = np.random.default_rng([m, k, na, nb])
    z = line_space(rng, m)
    a = QuotientCloud(z, k, tuple(random_quotient(rng, z, k) for _ in range(na)), {})
    b = QuotientCloud(z, k, tuple(random_quotient(rng, z, k) for _ in range(nb)), {})
    return a, b


# (m, k, na, nb, d1, dsquare), computed by the per-pair implementation
HAUSDORFF_PINNED = [
    (2, 2, 1, 1, 0.5524799028661096, 0.40762134040108716),
    (2, 2, 7, 13, 1.0969761736600268, 0.7664477644671188),
    (2, 2, 40, 3, 0.9986373883636454, 0.6444427409188571),
    (2, 3, 1, 1, 1.575498113607214, 1.0818963829613768),
    (2, 3, 7, 13, 1.0766107927906026, 0.7775370061533646),
    (2, 3, 40, 3, 1.8787079576050423, 1.3230289566048314),
    (3, 2, 1, 1, 0.42329139438736263, 0.28761375365220154),
    (3, 2, 7, 13, 0.5255778826775872, 0.3635007000539375),
    (3, 2, 40, 3, 2.0107082130269536, 1.4315840051426267),
    (3, 3, 1, 1, 0.6454359988483407, 0.4090286813992041),
    (3, 3, 7, 13, 0.9521804736998558, 0.6103859290957732),
    (3, 3, 40, 3, 1.6322491421000753, 1.1315445748923136),
    (5, 2, 1, 1, 1.2942229405462946, 0.8847498339798033),
    (5, 2, 7, 13, 0.7290398314756633, 0.44893543374053335),
    (5, 2, 40, 3, 1.3783212605168815, 0.9442816113095589),
    (5, 3, 1, 1, 1.068252589404018, 0.6937372809325983),
    (5, 3, 7, 13, 1.3944529541122277, 0.9052453980967184),
    (5, 3, 40, 3, 1.7459563566124583, 1.2172852377181163),
]


# (k, m, dsquare) of two random quotients
DSQUARE_PINNED = [
    (3, 2, 1.5476505847692448),
    (3, 3, 0.7619626733687301),
    (4, 2, 1.2419850007831066),
    (4, 3, 1.3344678022329595),
    (5, 2, 0.6771970701572883),
    (5, 3, 1.0564056584838362),
    (6, 2, 0.8049479600369449),
    (6, 3, 1.3071141240136879),
]


def quotient_oracle(kernel, rho):
    """One quotient by one three-operand contraction (test-local)."""
    alpha = rho.sum(axis=0)
    scaled = np.einsum("pi,pqm,qj->ijm", rho, kernel.entries, rho, optimize=True)
    mass = np.outer(alpha, alpha)
    beta = scaled / np.where(mass > 1e-12, mass, 1.0)[:, :, None]
    beta[mass <= 1e-12] = 0.0
    return alpha / alpha.sum(), beta


def d1_oracle(a, b):
    """Direct summation from the definition (test-local)."""
    total = float(np.abs(a.alpha - b.alpha).sum())
    for i in range(a.k):
        for j in range(a.k):
            mu = SignedMeasure(a.space, a.alpha[i] * a.alpha[j] * a.beta[i, j])
            nu = SignedMeasure(b.space, b.alpha[i] * b.alpha[j] * b.beta[i, j])
            total += lp_distance(mu, nu)
    return total


def dsquare_oracle(a, b):
    best = 0.0
    for s in itertools.product([0, 1], repeat=a.k):
        for t in itertools.product([0, 1], repeat=a.k):
            mu = np.zeros(a.space.size)
            nu = np.zeros(a.space.size)
            for i in range(a.k):
                for j in range(a.k):
                    if s[i] and t[j]:
                        mu += a.alpha[i] * a.alpha[j] * a.beta[i, j]
                        nu += b.alpha[i] * b.alpha[j] * b.beta[i, j]
            best = max(best, lp_distance(
                SignedMeasure(a.space, np.clip(mu, 0, None)),
                SignedMeasure(a.space, np.clip(nu, 0, None)),
            ))
    return float(np.abs(a.alpha - b.alpha).sum()) + best


class TestQuotientConstruction:
    def test_trivial_partition(self):
        q = quotient(RUNNING_KERNEL, (np.array([0, 0]), 1))
        assert q.alpha[0] == pytest.approx(1.0)
        assert q.beta[0, 0].sum() == pytest.approx(1.0)

    def test_aligned_partition_reproduces_entries(self):
        q = quotient(RUNNING_KERNEL, (np.array([0, 1]), 2))
        assert np.allclose(q.beta, RUNNING_KERNEL.entries)
        assert np.allclose(q.alpha, [0.5, 0.5])

    def test_fractional_overlap_double_sum(self):
        rho = np.array([[0.3, 0.2], [0.1, 0.4]])
        q = quotient(RUNNING_KERNEL, OverlapMatrix(rho))
        direct = np.zeros((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for p in range(2):
                    for r in range(2):
                        direct[i, j] += rho[p, i] * rho[r, j] * RUNNING_KERNEL.entries[p, r]
        assert np.allclose(q.scaled(), direct, atol=1e-12)

    def test_degenerate_cell_zero_measure(self):
        q = quotient(RUNNING_KERNEL, (np.array([0, 0]), 2))
        assert q.degenerate()[1]
        assert np.all(q.beta[1, :] == 0.0)
        assert np.all(q.beta[:, 1] == 0.0)

    def test_probability_source_gives_probability_decorations(self):
        rng = np.random.default_rng(0)
        z = DecorationSpace.discrete(range(3))
        w = random_prob_kernel(rng, z, 4)
        rho = OverlapMatrix(np.outer(w.part_sizes, [0.3, 0.7]))
        q = quotient(w, rho)
        masses = q.beta.sum(axis=2)
        assert np.allclose(masses, 1.0)

    def test_member_alone_matches_member_in_a_batch(self):
        from stepkernels.overlay import _random_transport_vertex

        rng = np.random.default_rng(40)
        z = DecorationSpace.discrete(range(3))
        w = StepKernel(z, np.array([1, 2, 4]) / 7, rng.dirichlet(np.ones(3), size=(3, 3)))
        rho = []
        for _ in range(150):
            a = rng.dirichlet(np.ones(3))
            rho += [np.outer(w.part_sizes, a), _random_transport_vertex(w.part_sizes, a, rng)]
        rho = np.array(rho)
        alpha, beta = quotients._quotient_stack(w, rho)
        for i in (0, 1, 2, 151, 299):
            alone = quotient(w, OverlapMatrix(rho[i]))
            one_row = quotients._quotient_stack(w, rho[i : i + 1])
            want = quotient_oracle(w, rho[i])
            for got in ((alone.alpha, alone.beta), (one_row[0][0], one_row[1][0]), want):
                assert np.array_equal(got[0], alpha[i])
                assert np.array_equal(got[1], beta[i])

    def test_infeasible_overlap_rejected(self):
        with pytest.raises(ValueError, match="row sums"):
            quotient(RUNNING_KERNEL, OverlapMatrix([[0.3, 0.3], [0.1, 0.4]]))


class TestQuotientDistances:
    def test_d1_identity(self):
        rng = np.random.default_rng(1)
        q = random_quotient(rng, DecorationSpace.two_point(), 3)
        assert d1_quotient(q, q) == 0.0

    def test_d1_dirac_swap_single_edge(self):
        z = DecorationSpace.two_point()
        base = np.zeros((2, 2, 2))
        base[:, :, 0] = 1.0
        other = base.copy()
        other[0, 1] = [0.0, 1.0]
        a = Quotient(z, [0.5, 0.5], base)
        b = Quotient(z, [0.5, 0.5], other)
        # one ordered edge with mass 1/4, Diracs at distance 1
        assert d1_quotient(a, b) == pytest.approx(0.25)

    def test_d1_alpha_term_lower_bound(self):
        z = DecorationSpace.two_point()
        beta = np.zeros((2, 2, 2))
        beta[:, :, 0] = 1.0
        a = Quotient(z, [0.5, 0.5], beta)
        b = Quotient(z, [0.3, 0.7], beta)
        assert d1_quotient(a, b) >= 0.4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_d1_against_oracle(self, k):
        rng = np.random.default_rng(10 + k)
        z = DecorationSpace.discrete(range(3))
        a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
        assert d1_quotient(a, b) == pytest.approx(d1_oracle(a, b), abs=1e-12)

    def test_dsquare_identity(self):
        rng = np.random.default_rng(2)
        q = random_quotient(rng, DecorationSpace.two_point(), 3)
        assert dsquare_quotient(q, q) == 0.0

    def test_dsquare_k1_formula(self):
        z = DecorationSpace.two_point()
        a = Quotient(z, [1.0], np.array([[[0.3, 0.7]]]))
        b = Quotient(z, [1.0], np.array([[[0.5, 0.5]]]))
        expected = lp_distance(
            SignedMeasure(z, [0.3, 0.7]), SignedMeasure(z, [0.5, 0.5])
        )
        assert dsquare_quotient(a, b) == pytest.approx(expected)

    @pytest.mark.parametrize("k", [2, 3])
    def test_dsquare_against_oracle(self, k):
        rng = np.random.default_rng(20 + k)
        z = DecorationSpace.two_point()
        a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
        assert dsquare_quotient(a, b) == pytest.approx(dsquare_oracle(a, b), abs=1e-12)

    def test_metric_sandwich(self):
        rng = np.random.default_rng(3)
        z = DecorationSpace.two_point()
        for _ in range(40):
            k = int(rng.integers(1, 6))
            a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
            d1 = d1_quotient(a, b)
            ds = dsquare_quotient(a, b)
            assert d1 / k**2 - 1e-12 <= ds <= k**2 * d1 + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        z = DecorationSpace.two_point()
        for _ in range(20):
            k = int(rng.integers(1, 4))
            a, b, c = (random_quotient(rng, z, k) for _ in range(3))
            assert d1_quotient(a, b) <= d1_quotient(a, c) + d1_quotient(c, b) + 1e-9
            assert dsquare_quotient(a, b) <= (
                dsquare_quotient(a, c) + dsquare_quotient(c, b) + 1e-9
            )

    def test_mismatched_k_rejected(self):
        rng = np.random.default_rng(5)
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="different cell counts"):
            d1_quotient(random_quotient(rng, z, 2), random_quotient(rng, z, 3))


class TestQuotientCloud:
    def test_k1_single_member(self):
        cloud = quotient_cloud(RUNNING_KERNEL, 1, mode="enumerate", cells=4)
        assert len(cloud) == 1

    def test_constant_kernel_collapses(self):
        z = DecorationSpace.two_point()
        mu = SignedMeasure(z, [0.4, 0.6])
        w = StepKernel.constant(mu, [1.0])
        cloud = quotient_cloud(w, 2, mode="enumerate", cells=6)
        alphas = sorted(q.alpha[0] for q in cloud.quotients)
        # one member per distinct mass split
        assert len(cloud) == len(set(np.round(alphas, 9)))

    def test_enumerate_count_and_dedup(self):
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="enumerate", cells=6)
        assert 1 <= len(cloud) <= 64
        key = {tuple(np.round(np.concatenate([q.alpha, q.scaled().ravel()]), 9)) for q in cloud.quotients}
        assert len(key) == len(cloud)

    def test_enumeration_budget(self):
        with pytest.raises(ValueError, match="budget"):
            quotient_cloud(RUNNING_KERNEL, 4, mode="enumerate", cells=12)

    @pytest.mark.parametrize("n, k", [(1, 1), (3, 1), (4, 3), (6, 2), (13, 2)])
    def test_every_assignment_in_product_order(self, n, k):
        # (13, 2) has 8192 rows: two blocks of 4096
        blocks = list(search.every_assignment(n, k))
        assert all(b.shape[0] <= 4096 for b in blocks)
        assert np.concatenate(blocks).tolist() == [list(z) for z in itertools.product(range(k), repeat=n)]

    def test_alpha_filter(self):
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="enumerate", cells=4, alpha=[0.5, 0.5])
        for q in cloud.quotients:
            assert np.allclose(q.alpha, [0.5, 0.5])

    @pytest.mark.parametrize("alpha, match", [
        ([1.0], "shape"),
        ([0.25, 0.25, 0.5], "shape"),
        ([0.5, 0.75], "probability vector"),
        ([-0.25, 1.25], "probability vector"),
    ])
    def test_alpha_filter_must_be_a_probability_vector(self, alpha, match):
        with pytest.raises(ValueError, match=match):
            quotient_cloud(RUNNING_KERNEL, 2, mode="enumerate", cells=4, alpha=alpha)

    @pytest.mark.parametrize("k, alpha", [(2, [1 / 3, 2 / 3]), (3, [0.5, 0.0, 0.5]), (1, [1.0])])
    def test_alpha_filter_keeps_the_full_enumeration_order(self, k, alpha):
        rng = np.random.default_rng(41)
        w = random_prob_kernel(rng, DecorationSpace.two_point(), 3)
        full = quotient_cloud(w, k, mode="enumerate", cells=6)
        part = quotient_cloud(w, k, mode="enumerate", cells=6, alpha=alpha)
        keep = np.abs(full.alpha - alpha).max(axis=1) < 1e-9
        assert len(part) == keep.sum() >= 1
        assert np.array_equal(part.alpha, full.alpha[keep])
        assert np.array_equal(part.beta, full.beta[keep])

    def test_members_are_built_only_when_read(self, monkeypatch):
        made = []
        init = Quotient.__init__

        def counted(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(Quotient, "__init__", counted)
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="sample", cells=8, count=16, seed=3)
        assert made == [] and len(cloud) > 0
        members = cloud.quotients
        assert len(made) == len(members) == len(cloud)

    def test_members_are_built_once(self, monkeypatch):
        made = []
        init = Quotient.__init__

        def counted(self, *args):
            made.append(1)
            init(self, *args)

        monkeypatch.setattr(Quotient, "__init__", counted)
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="sample", cells=8, count=16, seed=3)
        first = cloud.quotients
        assert cloud.quotients is first and len(made) == len(cloud)

    def test_tuple_built_cloud_stacks_its_members(self):
        rng = np.random.default_rng(42)
        z = DecorationSpace.discrete(range(3))
        members = tuple(random_quotient(rng, z, 2) for _ in range(5))
        cloud = QuotientCloud(z, 2, members, {})
        assert cloud.alpha.shape == (5, 2) and cloud.beta.shape == (5, 2, 2, 3)
        assert not cloud.alpha.flags.writeable and not cloud.beta.flags.writeable
        for q, back, scaled in zip(members, cloud.quotients, cloud.scaled()):
            assert np.array_equal(q.alpha, back.alpha) and np.array_equal(q.beta, back.beta)
            assert np.array_equal(q.scaled(), scaled)
        with pytest.raises(ValueError, match="has 2 cells, not 3"):
            QuotientCloud(z, 3, members, {})

    def test_sample_mode_provenance_and_determinism(self):
        a = quotient_cloud(RUNNING_KERNEL, 2, mode="sample", cells=8, count=16, seed=3)
        b = quotient_cloud(RUNNING_KERNEL, 2, mode="sample", cells=8, count=16, seed=3)
        assert a.provenance == b.provenance
        assert len(a) == len(b)
        for qa, qb in zip(a.quotients, b.quotients):
            assert np.allclose(qa.scaled(), qb.scaled())

    def test_alpha_grid_mode(self):
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="alpha_grid", cells=8, count=9)
        alphas = {round(q.alpha[0], 9) for q in cloud.quotients}
        assert {0.0, 0.5, 1.0} <= alphas

    def test_relabel_invariance_of_cloud(self):
        rng = np.random.default_rng(6)
        z = DecorationSpace.two_point()
        w = random_prob_kernel(rng, z, 4)
        moved = relabel(w, rng.permutation(4))
        a = quotient_cloud(w, 2, mode="enumerate", cells=4)
        b = quotient_cloud(moved, 2, mode="enumerate", cells=4)
        assert hausdorff(a, b, metric="d1") == pytest.approx(0.0, abs=1e-12)


class TestHausdorff:
    def test_identical_clouds(self):
        cloud = quotient_cloud(RUNNING_KERNEL, 2, mode="enumerate", cells=4)
        assert hausdorff(cloud, cloud, metric="d1") == 0.0
        assert hausdorff(cloud, cloud, metric="dsquare") == 0.0

    def test_singletons_reduce_to_metric(self):
        rng = np.random.default_rng(7)
        z = DecorationSpace.two_point()
        qa, qb = random_quotient(rng, z, 2), random_quotient(rng, z, 2)
        ca = QuotientCloud(z, 2, (qa,), {})
        cb = QuotientCloud(z, 2, (qb,), {})
        assert hausdorff(ca, cb, "d1") == pytest.approx(d1_quotient(qa, qb))
        assert hausdorff(ca, cb, "dsquare") == pytest.approx(dsquare_quotient(qa, qb))

    def test_nested_clouds_one_sided(self):
        rng = np.random.default_rng(8)
        z = DecorationSpace.two_point()
        members = tuple(random_quotient(rng, z, 2) for _ in range(3))
        small = QuotientCloud(z, 2, members[:1], {})
        big = QuotientCloud(z, 2, members, {})
        expected = max(
            min(d1_quotient(q, small.quotients[0]) for _ in [0])
            for q in big.quotients
        )
        assert hausdorff(small, big, "d1") == pytest.approx(expected)

    def test_empty_cloud_rejected(self):
        z = DecorationSpace.two_point()
        empty = QuotientCloud(z, 2, (), {})
        other = QuotientCloud(z, 2, (random_quotient(np.random.default_rng(0), z, 2),), {})
        with pytest.raises(ValueError, match="non-empty"):
            hausdorff(empty, other)

    def test_matched_clouds_bounded_by_delta(self):
        rng = np.random.default_rng(9)
        z = DecorationSpace.two_point()
        for _ in range(5):
            u = random_prob_kernel(rng, z, 4)
            w = random_prob_kernel(rng, z, 4)
            res = delta_cut(u, w, metric="lp")
            overlaid = relabel(w, res.certificate)
            mu, mw = [], []
            for assignment in itertools.product(range(2), repeat=4):
                zvec = np.array(assignment)
                mu.append(quotient(u, (zvec, 2)))
                mw.append(quotient(overlaid, (zvec, 2)))
            h = hausdorff(
                QuotientCloud(z, 2, tuple(mu), {}),
                QuotientCloud(z, 2, tuple(mw), {}),
                metric="dsquare",
            )
            assert h <= res.value + 1e-9


class TestHausdorffChunks:
    @pytest.mark.parametrize("chunk", [None, 1 << 6])
    @pytest.mark.parametrize("m, k, na, nb, d1, dsquare", HAUSDORFF_PINNED)
    def test_pinned_values(self, monkeypatch, chunk, m, k, na, nb, d1, dsquare):
        # a small chunk budget forces many calls and a partial last chunk
        if chunk is not None:
            monkeypatch.setattr(measures, "LP_CHUNK", chunk)
        a, b = hausdorff_clouds(m, k, na, nb)
        assert (hausdorff(a, b, "d1"), hausdorff(a, b, "dsquare")) == (d1, dsquare)

    @pytest.mark.parametrize("m, k, na, nb", [row[:4] for row in HAUSDORFF_PINNED])
    def test_matches_per_pair_distances(self, m, k, na, nb):
        a, b = hausdorff_clouds(m, k, na, nb)
        for metric, dist in (("d1", d1_quotient), ("dsquare", dsquare_quotient)):
            d = np.array([[dist(p, q) for q in b.quotients] for p in a.quotients])
            want = max(d.min(axis=1).max(), d.min(axis=0).max())
            assert hausdorff(a, b, metric) == pytest.approx(want, abs=1e-12)

    def test_dsquare_memory_guard(self, monkeypatch):
        # four 12-cell members a side need 8 * 4**12 * 2 * 8 bytes > 1 GiB
        rng = np.random.default_rng(12)
        z = DecorationSpace.two_point()
        cloud = QuotientCloud(z, 12, tuple(random_quotient(rng, z, 12) for _ in range(4)), {})

        def unreachable(*args):
            raise AssertionError("aggregates allocated past the memory guard")

        monkeypatch.setattr(quotients, "_pairwise_dsquare", unreachable)
        with pytest.raises(ValueError, match="GiB"):
            hausdorff(cloud, cloud, "dsquare")


class TestDsquareChunks:
    @pytest.mark.parametrize("chunk", [None, 1 << 6])
    @pytest.mark.parametrize("k, m, value", DSQUARE_PINNED)
    def test_pinned_values(self, monkeypatch, chunk, k, m, value):
        # a small chunk budget splits the 2**k row sets over many chunks
        if chunk is not None:
            monkeypatch.setattr(measures, "LP_CHUNK", chunk)

        def unreachable(*args):
            raise AssertionError("dsquare_quotient enumerated rectangle masses")

        monkeypatch.setattr(quotients, "lp_distance_batch", unreachable)
        rng = np.random.default_rng([k, m, 7])
        z = line_space(rng, m)
        a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
        assert dsquare_quotient(a, b) == value


class TestRebalance:
    def test_noop(self):
        o = OverlapMatrix([[0.5, 0.0], [0.0, 0.5]])
        r = rebalance_partition(o, [0.5, 0.5])
        assert np.allclose(r.rho, o.rho)

    def test_forced_transfer(self):
        o = OverlapMatrix([[0.5, 0.0], [0.0, 0.5]])
        r = rebalance_partition(o, [0.25, 0.75])
        assert np.allclose(r.col_sums, [0.25, 0.75])
        assert np.allclose(r.row_sums, o.row_sums)
        # monotone: column 0 only shrank, column 1 only grew
        assert np.all(r.rho[:, 0] <= o.rho[:, 0] + 1e-12)
        assert np.all(r.rho[:, 1] >= o.rho[:, 1] - 1e-12)

    def test_mass_transfer_bound(self):
        rng = np.random.default_rng(10)
        z = DecorationSpace.discrete(range(3))
        for _ in range(20):
            parts = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            w = random_prob_kernel(rng, z, parts)
            assignment = rng.integers(0, k, size=parts)
            o = OverlapMatrix.from_assignment(w.part_sizes, assignment, k)
            target = rng.random(k) + 0.1
            target /= target.sum()
            moved = rebalance_partition(o, target)
            gap = float(np.abs(o.col_sums - target).sum())
            d1 = d1_quotient(quotient(w, o), quotient(w, moved))
            assert d1 <= (1 + 2 * w.sup_tv()) * gap + 1e-9
            assert d1 <= 3 * gap + 1e-9

    def test_rejects_wrong_total(self):
        o = OverlapMatrix([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="total mass"):
            rebalance_partition(o, [0.25, 0.25])


class TestDsquareSearch:
    def test_falls_through_to_exact(self):
        rng = np.random.default_rng(30)
        z = DecorationSpace.two_point()
        a, b = random_quotient(rng, z, 3), random_quotient(rng, z, 3)
        from stepkernels import dsquare_quotient_search

        res = dsquare_quotient_search(a, b)
        assert res.exact
        assert res.value == pytest.approx(dsquare_quotient(a, b))

    def test_large_k_flagged_lower_bound(self):
        rng = np.random.default_rng(31)
        z = DecorationSpace.two_point()
        k = 14
        a, b = random_quotient(rng, z, k), random_quotient(rng, z, k)
        with pytest.raises(ValueError, match="capped"):
            dsquare_quotient(a, b)
        from stepkernels import dsquare_quotient_search
        from stepkernels.search import SearchBudget

        res = dsquare_quotient_search(a, b, SearchBudget(restarts=2, steps=0, seed=0))
        assert not res.exact
        # any rectangle realizes a lower bound; d1 sandwich gives an upper cap
        assert res.value <= k * k * d1_quotient(a, b) + 1e-9
        assert res.value >= float(np.abs(a.alpha - b.alpha).sum())

    def test_certificate_replays_at_13_cells(self):
        rng = np.random.default_rng(32)
        z = DecorationSpace.two_point()
        a, b = random_quotient(rng, z, 13), random_quotient(rng, z, 13)
        from stepkernels import dsquare_quotient_search
        from stepkernels.search import SearchBudget

        res = dsquare_quotient_search(a, b, SearchBudget(restarts=3, seed=1))
        s, t = (x.astype(float) for x in res.certificate)
        mu, nu = (
            SignedMeasure(z, np.einsum("p,pqm,q->m", s, np.maximum(q.scaled(), 0.0), t))
            for q in (a, b)
        )
        gap = float(np.abs(a.alpha - b.alpha).sum())
        assert res.value == gap + lp_distance(mu, nu)
