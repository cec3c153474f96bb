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
from stepkernels.measures import LP_EXACT_MAX_POINTS, lp_chunk_rows


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
        assert est.exact and est.lower == est.upper == 1.0

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
        assert 0.0 <= est.lower <= est.upper
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
    def test_chunk_rows_at_least_two(self):
        # one-row calls take a matrix-vector BLAS path with other rounding
        assert all(lp_chunk_rows(m) >= 2 for m in range(LP_EXACT_MAX_POINTS + 1))

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
