"""Kernel layer: constructors, refinement, relabeling, pairing."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from stepkernels import kernels
from stepkernels import (
    CbGraph,
    CbStepKernel,
    DecorationSpace,
    RealStepKernel,
    SignedMeasure,
    StepKernel,
    aggregate_measure,
    apply_function,
    block_integral,
    cb_graph_to_kernel,
    common_refinement,
    from_real_graphon,
    minimal_refinement,
    pair,
    relabel,
    uniform_refine,
)

RUNNING = RealStepKernel([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]])


def random_prob_kernel(rng, space, parts):
    e = rng.random((parts, parts, space.size)) + 0.05
    e /= e.sum(axis=2, keepdims=True)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


class TestStepKernel:
    def test_part_sizes_must_sum_to_one(self):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="sum to 1"):
            StepKernel(z, [0.5, 0.6], np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("sizes", [[np.nan, 1.0], [0.5, np.nan], [np.nan, np.nan]])
    def test_nan_part_size_rejected(self, sizes):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="part sizes"):
            StepKernel(z, sizes, np.full((2, 2, 2), 0.5))

    @pytest.mark.parametrize("sizes", [[np.nan, 1.0], [0.5, np.nan]])
    def test_real_kernel_nan_part_size_rejected(self, sizes):
        with pytest.raises(ValueError, match="part sizes"):
            RealStepKernel(sizes, [[0.2, 0.8], [0.8, 0.2]])

    def test_kind_classification(self):
        z = DecorationSpace.two_point()
        prob = StepKernel(z, [1.0], np.array([[[0.5, 0.5]]]))
        assert prob.kind == "probability"
        sub = StepKernel(z, [1.0], np.array([[[0.2, 0.3]]]))
        assert sub.kind == "subprobability"
        nn = StepKernel(z, [1.0], np.array([[[1.5, 0.5]]]))
        assert nn.kind == "nonnegative"
        sg = StepKernel(z, [1.0], np.array([[[-0.5, 0.5]]]))
        assert sg.kind == "signed"

    def test_sup_tv(self):
        z = DecorationSpace.two_point()
        k = StepKernel(z, [0.5, 0.5], np.array([
            [[0.5, 0.5], [1.0, 1.0]],
            [[0.25, 0.25], [0.5, 0.5]],
        ]).reshape(2, 2, 2))
        assert k.sup_tv() == pytest.approx(2.0)

    def test_immutable(self):
        z = DecorationSpace.two_point()
        k = StepKernel(z, [1.0], np.array([[[0.5, 0.5]]]))
        with pytest.raises(ValueError):
            k.entries[0, 0, 0] = 1.0


class TestFromRealGraphon:
    def test_constant_zero_gives_dirac_at_zero(self):
        w = RealStepKernel([1.0], [[0.0]])
        k = from_real_graphon(w)
        assert np.array_equal(k.entries[0, 0], [1.0, 0.0])

    def test_constant_one_gives_dirac_at_one(self):
        w = RealStepKernel([1.0], [[1.0]])
        k = from_real_graphon(w)
        assert np.array_equal(k.entries[0, 0], [0.0, 1.0])

    def test_running_example_pattern(self):
        k = from_real_graphon(RUNNING)
        assert k.kind == "probability"
        assert np.allclose(k.entries[0, 0], [0.8, 0.2])
        assert np.allclose(k.entries[0, 1], [0.2, 0.8])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            from_real_graphon(RealStepKernel([1.0], [[1.5]]))


class TestApplyFunction:
    def test_constant_function_normalizes(self):
        k = from_real_graphon(RUNNING)
        out = apply_function(k, [1.0, 1.0])
        assert np.allclose(out.values, 1.0)

    def test_recovers_graphon(self):
        k = from_real_graphon(RUNNING)
        out = apply_function(k, [0.0, 1.0])
        assert np.allclose(out.values, RUNNING.values)

    def test_zero_function(self):
        k = from_real_graphon(RUNNING)
        assert np.all(apply_function(k, [0.0, 0.0]).values == 0.0)


class TestBlockIntegral:
    def test_full_rectangle_total_mass(self):
        k = from_real_graphon(RUNNING)
        mu = block_integral(k, [1.0, 1.0], [1.0, 1.0])
        assert mu.total_mass() == pytest.approx(1.0)

    def test_empty_side(self):
        k = from_real_graphon(RUNNING)
        mu = block_integral(k, [0.0, 0.0], [1.0, 1.0])
        assert mu.total_variation() == 0.0

    def test_single_block_hand_computation(self):
        # quarter of block (0, 1): 0.25 * (0.2, 0.8) = (0.05, 0.2)
        k = from_real_graphon(RUNNING)
        mu = block_integral(k, [1.0, 0.0], [0.0, 1.0])
        assert np.allclose(mu.weights, [0.05, 0.2])


class TestAggregate:
    def test_probability_total_mass(self):
        k = from_real_graphon(RUNNING)
        assert aggregate_measure(k).total_mass() == pytest.approx(1.0)

    def test_constant_kernel(self):
        z = DecorationSpace.two_point()
        mu = SignedMeasure(z, [0.3, 0.7])
        k = StepKernel.constant(mu, [0.5, 0.5])
        assert np.allclose(aggregate_measure(k).weights, [0.3, 0.7])

    def test_brute_force_over_blocks(self):
        k = from_real_graphon(RUNNING)
        expected = np.zeros(2)
        for p in range(2):
            for q in range(2):
                expected += 0.25 * np.abs(k.entries[p, q])
        assert np.allclose(aggregate_measure(k).weights, expected)


class TestRefine:
    def test_identity_refinement(self):
        k = from_real_graphon(RUNNING)
        assert uniform_refine(k, 2).approx_eq(k)

    def test_equal_parts_return_the_kernel(self):
        k = from_real_graphon(RUNNING)
        real = RealStepKernel(np.full(3, 1 / 3), np.eye(3))
        assert uniform_refine(k, 2) is k and uniform_refine(real, 3) is real
        assert uniform_refine(real, 6) is not real

    def test_replication(self):
        k = from_real_graphon(RUNNING)
        r = uniform_refine(k, 4)
        assert r.n_parts == 4
        assert np.allclose(r.entries[0, 2], k.entries[0, 1])

    def test_thirds(self):
        z = DecorationSpace.two_point()
        rng = np.random.default_rng(0)
        e = rng.random((2, 2, 2))
        e /= e.sum(axis=2, keepdims=True)
        k = StepKernel(z, [1 / 3, 2 / 3], e)
        r = uniform_refine(k, 3)
        assert np.allclose(r.entries[0, 0], k.entries[0, 0])
        assert np.allclose(r.entries[1, 1], k.entries[1, 1])
        assert np.allclose(r.entries[0, 1], k.entries[0, 1])

    def test_incompatible_size_reports_minimal(self):
        z = DecorationSpace.two_point()
        k = StepKernel(z, [1 / 3, 2 / 3], np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="minimal compatible size is 3"):
            uniform_refine(k, 4)

    def test_minimal_refinement(self):
        assert minimal_refinement([0.5, 0.5]) == 2
        assert minimal_refinement([1 / 3, 1 / 6, 0.5]) == 6
        with pytest.raises(ValueError, match="rational"):
            minimal_refinement([1 / np.pi, 1 - 1 / np.pi], cap=50)

    @pytest.mark.parametrize("sizes, cap", [
        ([0.5, 0.5], 120),
        ([1 / 3, 1 / 6, 0.5], 120),
        ([1 / 101, 100 / 101], 120),
        ([1 / 101, 100 / 101], 50),
        ([1 / np.pi, 1 - 1 / np.pi], 50),
        ([1 / np.pi, 1 - 1 / np.pi], 10_000),
        ([0.25, 0.25, 0.5], 3),
        ([1 / 7] * 7, 120),
    ])
    def test_minimal_refinement_matches_uncached(self, sizes, cap):
        def uncached():
            n = 1
            for lam in np.asarray(sizes, dtype=float):
                frac = Fraction(lam).limit_denominator(cap)
                if abs(float(frac) - lam) > kernels.PART_TOL:
                    raise ValueError(
                        f"part size {lam!r} is not rational with denominator <= {cap}"
                    )
                n = n * frac.denominator // gcd(n, frac.denominator)
            return n

        for _ in range(2):  # a cold and a cached call
            try:
                want = uncached()
            except ValueError as err:
                with pytest.raises(ValueError) as got:
                    minimal_refinement(sizes, cap)
                assert str(got.value) == str(err)
            else:
                assert minimal_refinement(sizes, cap) == want

    def test_denominator_cache_keeps_caps_apart(self):
        # one size, rational under one cap and not under a smaller one,
        # in either order
        assert minimal_refinement([1 / 101, 100 / 101]) == 101
        with pytest.raises(ValueError, match="denominator <= 100"):
            minimal_refinement([1 / 101, 100 / 101], cap=100)
        with pytest.raises(ValueError, match="denominator <= 90"):
            minimal_refinement([1 / 103, 102 / 103], cap=90)
        assert minimal_refinement([1 / 103, 102 / 103], cap=103) == 103

    def test_common_refinement(self):
        z = DecorationSpace.two_point()
        rng = np.random.default_rng(1)
        a = random_prob_kernel(rng, z, 2)
        b = StepKernel(z, [1 / 3, 2 / 3], a.entries)
        ra, rb, n = common_refinement(a, b)
        assert n == 6 and ra.n_parts == rb.n_parts == 6


class TestRelabel:
    def test_identity(self):
        k = from_real_graphon(RUNNING)
        assert relabel(k, [0, 1]).approx_eq(k)

    def test_swap_transposes_blocks(self):
        k = from_real_graphon(RUNNING)
        s = relabel(k, [1, 0])
        assert np.allclose(s.entries[0, 0], k.entries[1, 1])
        assert np.allclose(s.entries[0, 1], k.entries[1, 0])

    def test_group_action(self):
        rng = np.random.default_rng(2)
        z = DecorationSpace.two_point()
        k = random_prob_kernel(rng, z, 4)
        pi = rng.permutation(4)
        back = relabel(relabel(k, pi), np.argsort(pi))
        assert back.approx_eq(k)

    def test_preserves_sup_tv_and_aggregate(self):
        rng = np.random.default_rng(3)
        z = DecorationSpace.discrete(range(3))
        k = random_prob_kernel(rng, z, 4)
        pi = rng.permutation(4)
        s = relabel(k, pi)
        assert s.sup_tv() == pytest.approx(k.sup_tv())
        assert np.allclose(aggregate_measure(s).weights, aggregate_measure(k).weights)

    def test_requires_equal_parts(self):
        z = DecorationSpace.two_point()
        k = StepKernel(z, [1 / 3, 2 / 3], np.full((2, 2, 2), 0.5))
        with pytest.raises(ValueError, match="equal part sizes"):
            relabel(k, [1, 0])


def _blocks(kernel):
    return kernel.values if isinstance(kernel, RealStepKernel) else kernel.entries


def _refine_copy(kernel, n):
    """The blocks of the former per-class uniform_refine_cb/_real on n cells."""
    owner = np.repeat(np.arange(kernel.n_parts), np.rint(kernel.part_sizes * n).astype(int))
    return _blocks(kernel)[np.ix_(owner, owner)]


def _relabel_copy(kernel, perm):
    """The blocks of the former per-class relabel_cb/_real."""
    return _blocks(kernel)[np.ix_(perm, perm)]


UNEVEN = [1 / 2, 1 / 3, 1 / 6]
Z3 = DecorationSpace.discrete(range(3))
KERNEL_CLASSES = {
    StepKernel: lambda rng, lam: StepKernel(Z3, lam, rng.dirichlet(np.ones(3), (len(lam),) * 2)),
    CbStepKernel: lambda rng, lam: CbStepKernel(Z3, lam, rng.random((len(lam), len(lam), 3))),
    RealStepKernel: lambda rng, lam: RealStepKernel(lam, rng.random((len(lam), len(lam)))),
}


class TestEveryKernelClass:
    @pytest.mark.parametrize("cls", list(KERNEL_CLASSES), ids=lambda c: c.__name__)
    def test_refine_then_relabel(self, cls):
        rng = np.random.default_rng(11)
        k = KERNEL_CLASSES[cls](rng, UNEVEN)
        r = uniform_refine(k, 12)
        assert type(r) is cls and r.n_parts == 12
        assert np.array_equal(_blocks(r), _refine_copy(k, 12))
        perm = rng.permutation(12)
        s = relabel(r, perm)
        assert type(s) is cls
        assert np.array_equal(s.part_sizes, r.part_sizes)
        assert np.array_equal(_blocks(s), _relabel_copy(r, perm))
        with pytest.raises(ValueError, match="equal part sizes"):
            relabel(k, [2, 0, 1])

    @pytest.mark.parametrize("first", [StepKernel, CbStepKernel], ids=lambda c: c.__name__)
    def test_common_refinement_with_a_function_valued_kernel(self, first):
        rng = np.random.default_rng(12)
        a = KERNEL_CLASSES[first](rng, UNEVEN)
        b = KERNEL_CLASSES[CbStepKernel](rng, [0.25] * 4)
        ra, rb, n = common_refinement(a, b)
        assert n == 12
        assert type(ra) is first and type(rb) is CbStepKernel
        assert np.array_equal(ra.entries, _refine_copy(a, 12))
        assert np.array_equal(rb.entries, _refine_copy(b, 12))


class TestPair:
    def test_constant_one_function(self):
        k = from_real_graphon(RUNNING)
        cb = CbStepKernel.constant(k.space, [1.0, 1.0], [0.5, 0.5])
        assert np.allclose(pair(k, cb).values, 1.0)

    def test_single_block_dot_product(self):
        z = DecorationSpace.two_point()
        u = StepKernel(z, [1.0], np.array([[[0.3, 0.7]]]))
        cb = CbStepKernel(z, [1.0], np.array([[[1.0, 0.0]]]))
        assert pair(u, cb).values[0, 0] == pytest.approx(0.3)

    def test_linearity_in_components(self):
        # pairing a mixture sum_i f_i w_i equals sum_i w_i * U[f_i]
        rng = np.random.default_rng(4)
        z = DecorationSpace.discrete(range(3))
        u = random_prob_kernel(rng, z, 3)
        fs = [rng.random(3) for _ in range(2)]
        ws = [rng.random((3, 3)) for _ in range(2)]
        entries = sum(np.multiply.outer(w, f) for f, w in zip(fs, ws))
        cb = CbStepKernel(z, u.part_sizes, entries)
        direct = pair(u, cb).values
        expected = sum(w * apply_function(u, f).values for f, w in zip(fs, ws))
        assert np.allclose(direct, expected)

    def test_part_mismatch(self):
        z = DecorationSpace.two_point()
        u = StepKernel(z, [1.0], np.array([[[0.3, 0.7]]]))
        cb = CbStepKernel.constant(z, [1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="part structures"):
            pair(u, cb)


class TestCbGraph:
    def test_single_vertex_no_edge(self):
        z = DecorationSpace.two_point()
        g = CbGraph(z, np.zeros((1, 1, 2)))
        k = cb_graph_to_kernel(g)
        assert k.n_parts == 1 and k.sup_norm() == 0.0

    def test_two_vertex_single_edge(self):
        z = DecorationSpace.two_point()
        g = CbGraph.from_edges(z, 2, [(0, 1, [0.0, 1.0])])
        k = cb_graph_to_kernel(g)
        assert np.array_equal(k.entries[0, 1], [0.0, 1.0])
        assert np.array_equal(k.entries[1, 0], [0.0, 1.0])
        assert np.all(k.entries[0, 0] == 0.0)
        assert g.edges() == [(0, 1), (1, 0)]

    def test_complete_triangle_zero_diagonal(self):
        z = DecorationSpace.two_point()
        f = [0.5, 0.5]
        g = CbGraph.from_edges(z, 3, [(0, 1, f), (0, 2, f), (1, 2, f)])
        k = cb_graph_to_kernel(g)
        for v in range(3):
            assert np.all(k.entries[v, v] == 0.0)
        assert len(g.edges()) == 6

    @pytest.mark.parametrize("alpha", [[np.nan, 1.0], [0.5, np.nan]])
    def test_nan_alpha_rejected(self, alpha):
        z = DecorationSpace.two_point()
        with pytest.raises(ValueError, match="probability vector"):
            CbGraph(z, np.zeros((2, 2, 2)), alpha)

    def test_alpha_default_uniform(self):
        z = DecorationSpace.two_point()
        g = CbGraph.from_edges(z, 4, [(0, 1, [1.0, 1.0])])
        assert np.allclose(g.alpha, 0.25)


class TestKernelArithmetic:
    def test_addition_refines(self):
        z = DecorationSpace.two_point()
        rng = np.random.default_rng(5)
        a = random_prob_kernel(rng, z, 2)
        b = StepKernel(z, [1 / 3, 2 / 3], random_prob_kernel(rng, z, 2).entries)
        s = a + b
        assert s.n_parts == 6
        assert np.allclose(aggregate_measure(s).total_mass(), 2.0)

    def test_scale(self):
        z = DecorationSpace.two_point()
        k = StepKernel(z, [1.0], np.array([[[0.5, 0.5]]]))
        assert k.scale(2.0).sup_tv() == pytest.approx(2.0)
