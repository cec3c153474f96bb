"""Measure layer: frozen examples plus property tests.

The Levy-Prokhorov values are cross-checked against a test-local oracle that
bisects on the definitional feasibility predicate (all 2**m subsets, strict
enlargements), independent of the library's candidate-scan implementation.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepkernels import (
    DecorationSpace,
    SignedMeasure,
    SpaceMismatchError,
    StepKernel,
    TestFamily,
    cut_dist_lp,
    dirac,
    f_norm,
    hahn_jordan,
    integrate,
    lp_distance,
    lp_distance_batch,
    lp_distance_estimate,
    lp_feasible,
    tv_distance,
)
from stepkernels import measures
from stepkernels.measures import LP_EXACT_MAX_POINTS


def random_metric_space(rng, m):
    raw = rng.random((m, m)) + 0.1
    d = raw + raw.T
    np.fill_diagonal(d, 0.0)
    for k in range(m):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    np.fill_diagonal(d, 0.0)
    return DecorationSpace(tuple(range(m)), d)


def lp_oracle(mu, nu, tol=1e-12):
    """Bisection on the definitional feasibility check (test-local)."""
    space = mu.space
    m = space.size
    points = list(range(m))

    def feasible(eps):
        for r in range(m + 1):
            for subset in itertools.combinations(points, r):
                inside = list(subset)
                enlarged = [
                    z for z in points
                    if inside and min(space.dist[z, u] for u in inside) < eps
                ]
                mu_in = sum(mu.weights[z] for z in inside)
                nu_in = sum(nu.weights[z] for z in inside)
                mu_enl = sum(mu.weights[z] for z in enlarged)
                nu_enl = sum(nu.weights[z] for z in enlarged)
                if mu_in > nu_enl + eps + 1e-13 or nu_in > mu_enl + eps + 1e-13:
                    return False
        return True

    lo, hi = 0.0, tv_distance(mu, nu) + 1e-9
    assert feasible(hi)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestSpaces:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            DecorationSpace((0, 1), [[0, 1], [2, 0]])

    def test_rejects_triangle_violation(self):
        d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(ValueError, match="triangle"):
            DecorationSpace((0, 1, 2), d)

    def test_rejects_zero_offdiagonal(self):
        with pytest.raises(ValueError, match="positive"):
            DecorationSpace((0, 1), [[0, 0], [0, 0]])

    def test_discrete_space(self):
        z = DecorationSpace.discrete("abc")
        assert z.size == 3
        assert z.dist[0, 1] == 1.0


class TestIntegrate:
    def test_probability_of_one(self):
        z = DecorationSpace.discrete(range(3))
        assert integrate(dirac(z, 1), np.ones(3)) == 1.0

    def test_signed_mass_cancels(self):
        z = DecorationSpace.two_point()
        assert integrate(SignedMeasure(z, [0.5, -0.5]), [1.0, 1.0]) == 0.0

    def test_dot_product(self):
        # frozen: 0.3 * 0.2 + 0.7 * 0.4 = 0.34 by direct summation
        z = DecorationSpace.two_point()
        val = integrate(SignedMeasure(z, [0.3, 0.7]), [0.2, 0.4])
        assert val == pytest.approx(0.34, abs=1e-12)

    def test_mismatch_raises(self):
        z = DecorationSpace.two_point()
        with pytest.raises(SpaceMismatchError):
            integrate(SignedMeasure(z, [1.0, 0.0]), [1.0, 1.0, 1.0])


class TestHahnJordan:
    def test_nonnegative_identity(self):
        z = DecorationSpace.two_point()
        pos, neg = hahn_jordan(SignedMeasure(z, [1.0, 0.0]))
        assert np.array_equal(pos.weights, [1.0, 0.0])
        assert np.array_equal(neg.weights, [0.0, 0.0])

    def test_sign_split(self):
        z = DecorationSpace.two_point()
        mu = SignedMeasure(z, [0.4, -0.6])
        pos, neg = hahn_jordan(mu)
        assert np.array_equal(pos.weights, [0.4, 0.0])
        assert np.array_equal(neg.weights, [0.0, 0.6])
        assert mu.total_variation() == pytest.approx(1.0)

    def test_zero(self):
        z = DecorationSpace.two_point()
        pos, neg = hahn_jordan(SignedMeasure(z, [0.0, 0.0]))
        assert pos.total_mass() == neg.total_mass() == 0.0

    def test_mutually_singular(self):
        rng = np.random.default_rng(0)
        z = random_metric_space(rng, 5)
        mu = SignedMeasure(z, rng.random(5) - 0.5)
        pos, neg = hahn_jordan(mu)
        assert np.all(pos.weights * neg.weights == 0.0)
        assert np.allclose(pos.weights - neg.weights, mu.weights)


class TestTV:
    def test_identity(self):
        z = DecorationSpace.two_point()
        mu = SignedMeasure(z, [0.3, 0.7])
        assert tv_distance(mu, mu) == 0.0

    def test_disjoint_diracs(self):
        z = DecorationSpace.two_point()
        assert tv_distance(dirac(z, 0), dirac(z, 1)) == 2.0

    def test_coordinatewise(self):
        z = DecorationSpace.two_point()
        d = tv_distance(SignedMeasure(z, [0.3, 0.7]), SignedMeasure(z, [0.5, 0.5]))
        assert d == pytest.approx(0.4)


class TestLPDistance:
    def test_identity(self):
        rng = np.random.default_rng(1)
        z = random_metric_space(rng, 4)
        mu = SignedMeasure(z, rng.random(4))
        assert lp_distance(mu, mu) == 0.0

    def test_unit_diracs(self):
        z = DecorationSpace.two_point(distance=1.0)
        assert lp_distance(dirac(z, 0), dirac(z, 1)) == 1.0

    def test_scaled_diracs_far_apart(self):
        # masses alpha at distance 10*alpha: distance exactly alpha
        for alpha in (1.5, 2.0, 10.0):
            z = DecorationSpace.two_point(distance=10 * alpha)
            d = lp_distance(alpha * dirac(z, 0), alpha * dirac(z, 1))
            assert d == pytest.approx(alpha, abs=1e-12)

    def test_scaled_diracs_at_unit_distance(self):
        for alpha in (1.5, 2.0, 10.0):
            z = DecorationSpace.two_point(distance=1.0)
            d = lp_distance(alpha * dirac(z, 0), alpha * dirac(z, 1))
            assert d == pytest.approx(1.0, abs=1e-12)

    def test_rejects_signed(self):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="nonnegative"):
            lp_distance(SignedMeasure(z, [0.5, -0.5]), dirac(z, 0))

    def test_rejects_mismatched_spaces(self):
        a = DecorationSpace.two_point()
        b = DecorationSpace.two_point(distance=2.0)
        with pytest.raises(SpaceMismatchError):
            lp_distance(dirac(a, 0), dirac(b, 0))

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_against_bisection_oracle(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(8):
            z = random_metric_space(rng, m)
            mu = SignedMeasure(z, rng.random(m))
            nu = SignedMeasure(z, rng.random(m))
            fast = lp_distance(mu, nu)
            slow = lp_oracle(mu, nu)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_feasibility_consistent_with_value(self):
        rng = np.random.default_rng(7)
        z = random_metric_space(rng, 4)
        mu = SignedMeasure(z, rng.random(4))
        nu = SignedMeasure(z, rng.random(4))
        d = lp_distance(mu, nu)
        assert lp_feasible(mu, nu, d + 1e-9)
        if d > 1e-9:
            assert not lp_feasible(mu, nu, d - 1e-6)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        z = random_metric_space(rng, 5)
        mus = rng.random((20, 5))
        nus = rng.random((20, 5))
        batch = lp_distance_batch(z, mus, nus)
        for i in range(20):
            d = lp_distance(SignedMeasure(z, mus[i]), SignedMeasure(z, nus[i]))
            assert batch[i] == pytest.approx(d, abs=1e-14)

    def test_estimate_exact_tier(self):
        z = DecorationSpace.two_point()
        est = lp_distance_estimate(dirac(z, 0), dirac(z, 1))
        assert est.exact and est.lower == est.value == est.upper == 1.0

    def test_estimate_large_space_brackets(self):
        m = 24
        labels = tuple(range(m))
        d = np.ones((m, m)) - np.eye(m)
        z = DecorationSpace(labels, d)
        rng = np.random.default_rng(3)
        mu = SignedMeasure(z, rng.random(m))
        nu = SignedMeasure(z, rng.random(m))
        est = lp_distance_estimate(mu, nu)
        assert not est.exact
        assert 0.0 <= est.lower <= est.value == est.upper
        with pytest.raises(ValueError, match="capped"):
            lp_distance(mu, nu)


class TestLPProperties:
    def test_bounded_by_tv_and_scaling(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            z = random_metric_space(rng, int(rng.integers(2, 7)))
            mu = SignedMeasure(z, rng.random(z.size))
            nu = SignedMeasure(z, rng.random(z.size))
            d = lp_distance(mu, nu)
            assert d <= tv_distance(mu, nu) + 1e-12
            for a in (1.5, 2.0, 10.0):
                ds = lp_distance(a * mu, a * nu)
                assert d - 1e-12 <= ds <= a * d + 1e-9

    def test_quasi_convexity(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            z = random_metric_space(rng, int(rng.integers(2, 6)))
            m1, m2, n1, n2 = (SignedMeasure(z, rng.random(z.size)) for _ in range(4))
            t = float(rng.random())
            mixed = lp_distance(t * m1 + (1 - t) * m2, t * n1 + (1 - t) * n2)
            assert mixed <= max(lp_distance(m1, n1), lp_distance(m2, n2)) + 1e-9

    def test_probability_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            z = random_metric_space(rng, int(rng.integers(2, 6)))
            mu = SignedMeasure(z, rng.random(z.size))
            nu = SignedMeasure(z, rng.random(z.size))
            mu = (1 / mu.total_mass()) * mu
            nu = (1 / nu.total_mass()) * nu
            assert lp_distance(mu, nu) <= 1.0 + 1e-12

    @given(
        w1=st.lists(st.floats(0, 5, allow_nan=False), min_size=3, max_size=3),
        w2=st.lists(st.floats(0, 5, allow_nan=False), min_size=3, max_size=3),
        w3=st.lists(st.floats(0, 5, allow_nan=False), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms_hypothesis(self, w1, w2, w3):
        z = DecorationSpace((0, 1, 2), [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
        a, b, c = SignedMeasure(z, w1), SignedMeasure(z, w2), SignedMeasure(z, w3)
        dab = lp_distance(a, b)
        assert dab == pytest.approx(lp_distance(b, a), abs=1e-12)
        assert lp_distance(a, a) == 0.0
        assert dab <= lp_distance(a, c) + lp_distance(c, b) + 1e-9

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(23)
        z = random_metric_space(rng, 4)
        mu = SignedMeasure(z, rng.random(4))
        nu = SignedMeasure(z, mu.weights + 0.05)
        assert lp_distance(mu, nu) > 0.0


class TestFamilyNorm:
    def test_zero_measure(self):
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        assert f_norm(SignedMeasure(z, [0.0, 0.0]), fam) == 0.0

    def test_probability_with_constant_only_family_is_one(self):
        # a single-point space admits the family {f_0}
        z = DecorationSpace((0,), [[0.0]])
        fam = TestFamily(z, [[1.0]])
        assert f_norm(SignedMeasure(z, [1.0]), fam) == 1.0

    def test_frozen_example(self):
        # 1 + 0.5 * 0.5 = 1.25 evaluated directly
        z = DecorationSpace.two_point()
        fam = TestFamily(z, [[1, 1], [1, 0]])
        assert f_norm(SignedMeasure(z, [0.5, 0.5]), fam) == pytest.approx(1.25)

    def test_bounded_by_twice_tv(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            z = random_metric_space(rng, int(rng.integers(2, 6)))
            fam = TestFamily.default(z)
            mu = SignedMeasure(z, rng.random(z.size) - 0.5)
            assert f_norm(mu, fam) <= 2 * mu.total_variation() + 1e-12

    def test_separating(self):
        rng = np.random.default_rng(31)
        z = random_metric_space(rng, 4)
        fam = TestFamily.default(z)
        mu = SignedMeasure(z, rng.random(4) - 0.3)
        if mu.total_variation() > 1e-9:
            assert f_norm(mu, fam) > 0.0

    def test_rank_invariant_enforced(self):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="rank"):
            TestFamily(z, [[1.0, 1.0], [1.0, 1.0]])

    def test_f0_must_be_one(self):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="constant"):
            TestFamily(z, [[0.5, 1.0], [1.0, 0.0]])

    def test_values_in_unit_interval(self):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="values in"):
            TestFamily(z, [[1.0, 1.0], [2.0, 0.0]])


class TestLPChunk:
    @pytest.mark.parametrize("chunk", [None, 1 << 6])
    @pytest.mark.parametrize("parts, m, value", [
        (8, 2, 0.07770162139975234),
        (5, 8, 0.06204046171427603),
    ])
    def test_cut_dist_lp_pinned(self, monkeypatch, chunk, parts, m, value):
        if chunk is not None:
            monkeypatch.setattr(measures, "LP_CHUNK", chunk)
        rng = np.random.default_rng([parts, m])
        z = random_metric_space(rng, m)
        u, w = (
            StepKernel(z, np.full(parts, 1.0 / parts), e / e.sum(axis=2, keepdims=True))
            for e in (rng.random((parts, parts, m)) + 0.05 for _ in range(2))
        )
        assert cut_dist_lp(u, w) == value


def fold_masses(sets, weights):
    """(S, B) masses of the subsets in the rows of a boolean (S, m) matrix,
    under each row of (B, m) weights, each a left fold in ascending point
    order (test-local)."""
    out = np.zeros((sets.shape[0], weights.shape[0]))
    for x in range(sets.shape[1]):
        out[sets[:, x]] += weights[:, x]
    return out


def scan_all_subsets(space, mus, nus):
    """The Levy-Prokhorov scan over every subset and every threshold
    (test-local): per threshold, the masses of all 2**m enlargements come
    from their own folds over the enlarged sets, and each pair keeps the
    smallest feasible candidate."""
    m = space.size
    masks = measures._subset_masks(m)
    thresholds = space.thresholds()
    mu_sub, nu_sub = fold_masses(masks, mus), fold_masses(masks, nus)
    best = np.full(mus.shape[0], np.inf)
    for r, t in enumerate(thresholds):
        t_next = thresholds[r + 1] if r + 1 < len(thresholds) else np.inf
        reach = masks @ (space.dist <= t + measures.ABS_TOL) > 0
        gaps = np.maximum(mu_sub - fold_masses(reach, nus), nu_sub - fold_masses(reach, mus))
        required = np.maximum(gaps.max(axis=0), 0.0)
        best = np.minimum(best, np.where(required <= t_next, np.maximum(required, t), np.inf))
    return best


def spaces_of_size(rng, m):
    spaces = [DecorationSpace.discrete(range(m))]
    if m == 2:
        spaces.append(DecorationSpace.two_point(distance=0.25))
    if m >= 2:
        spaces.append(random_metric_space(rng, m))
    return spaces


def measure_rows(rng, b, m):
    """Probability, sub-probability, zero and unnormalized rows, in turn."""
    w = rng.random((b, m))
    kind = np.arange(b) % 4
    w[kind == 0] /= w[kind == 0].sum(axis=1, keepdims=True)
    w[kind == 1] *= rng.random((int((kind == 1).sum()), 1)) / w[kind == 1].sum(axis=1, keepdims=True)
    w[kind == 2] = 0.0
    return w


def scan_upward(space, mus, nus):
    """The Levy-Prokhorov threshold search as an upward scan (test-local):
    each pair stops at the first threshold r whose gap over the closed
    subsets is at most t_(r+1), with value max(gap, t_r)."""
    thresholds = space.thresholds()
    mu_sub, nu_sub = measures.subset_sums(mus.T), measures.subset_sums(nus.T)
    out = np.empty(len(mus))
    todo = np.arange(len(mus))
    for r, t in enumerate(thresholds):
        sets, near = space._closed_sets(r)
        gap = np.maximum((mu_sub[sets] - nu_sub[near]).max(axis=0),
                         (nu_sub[sets] - mu_sub[near]).max(axis=0))
        required = np.maximum(gap, 0.0)
        done = required <= (thresholds[r + 1] if r + 1 < len(thresholds) else np.inf)
        out[todo[done]] = np.maximum(required[done], t)
        todo, mu_sub, nu_sub = todo[~done], mu_sub[:, ~done], nu_sub[:, ~done]
        if todo.size == 0:
            break
    return out


def record_probes(monkeypatch):
    """The thresholds r whose closed sets are read, in call order."""
    probes = []
    closed = DecorationSpace._closed_sets
    monkeypatch.setattr(DecorationSpace, "_closed_sets",
                        lambda self, r: probes.append(r) or closed(self, r))
    return probes


class TestLPScan:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_bisection_bit_equal_to_upward_scan(self, m):
        rng = np.random.default_rng([23, m])
        for z in spaces_of_size(rng, m):
            for b in (1, 2, 7, 192):
                mus, nus = measure_rows(rng, b, m), measure_rows(rng, b, m)[::-1]
                tiny = mus.copy()
                tiny[rng.random(tiny.shape) < 0.3] = -1e-17
                # unlike pairs, identical pairs (all done at r = 0), and
                # -1e-17 entries as flipped rectangle rows carry
                for a, c in ((mus, nus), (nus, nus), (tiny, nus)):
                    assert np.array_equal(lp_distance_batch(z, a, c), scan_upward(z, a, c))

    def test_probes_per_pair_logarithmic(self, monkeypatch):
        probes = record_probes(monkeypatch)
        rng = np.random.default_rng(29)
        z = random_metric_space(rng, 12)
        cap = int(np.ceil(np.log2(len(z.thresholds())))) + 1
        for _ in range(20):
            probes.clear()
            lp_distance_batch(z, rng.dirichlet(np.ones(12), size=1), rng.dirichlet(np.ones(12), size=1))
            assert len(probes) <= cap and len(set(probes)) == len(probes)

    def test_two_point_batches_probe_as_a_scan(self, monkeypatch):
        # the m = 2 batches of the criterion-6 experiment: a batch done at
        # r = 0 probes r = 0 only, and any other probes r = 0, then r = 1
        probes = record_probes(monkeypatch)
        z = DecorationSpace.two_point(distance=0.25)
        rng = np.random.default_rng(31)
        for b in (1, 64):
            w = rng.dirichlet(np.ones(2), size=b)
            probes.clear()
            lp_distance_batch(z, w, w)
            assert probes == [0]
            probes.clear()
            lp_distance_batch(z, w, w[::-1] * 0.5)
            assert probes == [0, 1]

    @pytest.mark.parametrize("m", range(1, 11))
    def test_bit_equal_to_all_subsets_scan(self, m):
        rng = np.random.default_rng([5, m])
        for z in spaces_of_size(rng, m):
            for b in (1, 2, 3, 7, 192):
                mus, nus = measure_rows(rng, b, m), measure_rows(rng, b, m)[::-1]
                assert np.array_equal(lp_distance_batch(z, mus, nus), scan_all_subsets(z, mus, nus))

    @pytest.mark.parametrize("m", [3, 6, 9])
    def test_tiny_negative_entries_within_negative_mass(self, m):
        # Flipped rows of a rectangle search can carry -1e-17 rounding.  Only
        # for nonnegative weights does no set beat its closure; with negative
        # entries a non-closed U can beat it by the negative mass the closure
        # adds, so the closed-set scan may fall short of the all-subsets scan
        # by at most the negative mass of the pair.
        rng = np.random.default_rng([7, m])
        z = random_metric_space(rng, m)
        mus, nus = measure_rows(rng, 64, m), measure_rows(rng, 64, m)[::-1]
        mus[rng.random(mus.shape) < 0.3] = -1e-17
        nus[rng.random(nus.shape) < 0.3] = -1e-17
        negative = -(np.minimum(mus, 0.0) + np.minimum(nus, 0.0)).sum(axis=1)
        gap = np.abs(lp_distance_batch(z, mus, nus) - scan_all_subsets(z, mus, nus))
        assert np.all(gap <= negative)

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_blocks_bit_equal_to_whole_batch(self, monkeypatch, m):
        rng = np.random.default_rng([11, m])
        z = random_metric_space(rng, m)
        mus, nus = measure_rows(rng, 192, m), measure_rows(rng, 192, m)[::-1]
        whole = {b: lp_distance_batch(z, mus[:b], nus[:b]) for b in (17, 40, 192)}
        sizes = []
        scan = measures._lp_scan
        monkeypatch.setattr(measures, "_lp_scan", lambda *a: sizes.append(len(a[1])) or scan(*a))
        monkeypatch.setattr(measures, "LP_CHUNK", 1)
        for b, value in whole.items():
            assert np.array_equal(lp_distance_batch(z, mus[:b], nus[:b]), value)
        # blocks of at most 64 * LP_CHUNK subset masses a side, down to one row
        rows = max(1, 64 >> m)
        assert len(sizes) == sum(-(-b // rows) for b in whole) and max(sizes) <= rows

    def test_192_pairs_on_12_points_are_one_block(self, monkeypatch):
        sizes = []
        scan = measures._lp_scan
        monkeypatch.setattr(measures, "_lp_scan", lambda *a: sizes.append(len(a[1])) or scan(*a))
        rng = np.random.default_rng(13)
        z = random_metric_space(rng, 12)
        lp_distance_batch(z, rng.random((192, 12)), rng.random((192, 12)))
        assert sizes == [192]

    @pytest.mark.parametrize("m", range(2, 13))
    def test_rows_bit_equal_to_single_pairs(self, m):
        rng = np.random.default_rng([19, m])
        z = random_metric_space(rng, m)
        for b in (1, 2, 7, 192):
            mus, nus = measure_rows(rng, b, m), measure_rows(rng, b, m)[::-1]
            single = [lp_distance(SignedMeasure(z, x), SignedMeasure(z, y)) for x, y in zip(mus, nus)]
            assert lp_distance_batch(z, mus, nus).tolist() == single

    def test_capped_before_any_table(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("subset masses formed past the point cap")

        monkeypatch.setattr(measures, "subset_sums", unreachable)
        z = DecorationSpace.discrete(range(LP_EXACT_MAX_POINTS + 1))
        w = np.full((1, z.size), 1.0 / z.size)
        with pytest.raises(ValueError, match="capped"):
            lp_distance_batch(z, w, w)


def requirement_per_threshold(space, wa, wb, subset):
    """One subset's requirement, by a loop over every threshold (test-local)."""
    thresholds = space.thresholds()
    best = np.inf
    for r, t in enumerate(thresholds):
        t_next = thresholds[r + 1] if r + 1 < len(thresholds) else np.inf
        reach = (space.dist[:, subset] <= t + measures.ABS_TOL).any(axis=1) if subset.any() \
            else np.zeros(space.size, dtype=bool)
        req = max(wa[subset].sum() - wb[reach].sum(), wb[subset].sum() - wa[reach].sum(), 0.0)
        if req <= t_next:
            best = min(best, max(req, t))
    return best


class TestGreedyBracket:
    @pytest.mark.parametrize("m", range(2, 27))
    def test_requirement_bit_equal_to_threshold_loop(self, m):
        rng = np.random.default_rng([17, m])
        for z in (DecorationSpace.discrete(range(m)), random_metric_space(rng, m)):
            wa, wb = rng.random(m), rng.random(m)
            for i in range(6):
                subset = rng.random(m) < (rng.random() if i else 0.0)
                assert measures._single_subset_requirement(z, wa, wb, subset) \
                    == requirement_per_threshold(z, wa, wb, subset)

    @pytest.mark.parametrize("m, discrete, lower, upper", [
        (21, False, "0x1.f6d9b130dddd2p-2", "0x1.a507c7a5ce0dfp+2"),
        (21, True, "0x1.a515b2ef6cf8cp+1", "0x1.a36874ad01fefp+2"),
        (24, False, "0x1.1fe3284c04368p-1", "0x1.da1cb2ec3da17p+2"),
        (24, True, "0x1.0000000000000p+0", "0x1.be64bf6db832cp+2"),
        (30, False, "0x1.2ab87aea63cd2p-1", "0x1.26e47116b6c0dp+3"),
        (30, True, "0x1.0000000000000p+0", "0x1.46061c5ccdf43p+3"),
    ])
    def test_estimate_pinned(self, m, discrete, lower, upper):
        rng = np.random.default_rng(m)
        z = DecorationSpace.discrete(range(m)) if discrete else random_metric_space(rng, m)
        est = lp_distance_estimate(SignedMeasure(z, rng.random(m)), SignedMeasure(z, rng.random(m)))
        assert not est.exact
        assert (est.lower, est.value, est.upper) == (
            float.fromhex(lower), float.fromhex(upper), float.fromhex(upper)
        )


def closed_sets_by_held_loop(space, r):
    """Closed sets at threshold r by testing every point against every
    enlargement, one pass per point (test-local): x is in the closure of U
    when its own enlargement lies inside U's."""
    m = space.size
    within = space.dist <= space.thresholds()[r] + measures.ABS_TOL
    single = within.astype(np.intp) @ (1 << np.arange(m))
    near = np.zeros(1 << m, dtype=np.intp)
    for x in range(m):
        np.bitwise_or(near[: 1 << x], single[x], out=near[1 << x : 2 << x])
    held = np.zeros_like(near)
    for x in range(m):
        held[(single[x] & ~near) == 0] |= 1 << x
    sets = np.flatnonzero(held == np.arange(near.size))[1:]
    return sets, near[sets]


def euclidean_space(rng, m, decimals=None):
    """m points uniform in the unit square; with ``decimals``, distances are
    rounded (many ties) and then closed under the triangle inequality."""
    pts = rng.random((m, 2))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    if decimals is not None:
        d = np.maximum(np.round(d, decimals), 10.0 ** -decimals)
        np.fill_diagonal(d, 0.0)
        for k in range(m):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return DecorationSpace(tuple(range(m)), d)


class TestClosedSets:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_double_complement_equals_held_loop(self, m):
        rng = np.random.default_rng([37, m])
        spaces = [euclidean_space(rng, m), euclidean_space(rng, m, decimals=1),
                  DecorationSpace.discrete(range(m))]
        if m == 2:
            spaces.append(DecorationSpace.two_point(distance=0.25))
        for z in spaces:
            for r in range(len(z.thresholds())):
                sets, near = z._closed_sets(r)
                want_sets, want_near = closed_sets_by_held_loop(z, r)
                assert sets.dtype == want_sets.dtype and near.dtype == want_near.dtype
                assert np.array_equal(sets, want_sets) and np.array_equal(near, want_near)
