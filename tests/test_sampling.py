"""Decorated-graph sampling: determinism, conditionals, empirical kernels."""

import numpy as np
import pytest
from scipy import stats

from stepkernels import (
    DecoratedSample,
    DecorationSpace,
    KernelMixture,
    RealStepKernel,
    SignedMeasure,
    StepKernel,
    convergence_run,
    delta_cut,
    empirical_kernel,
    from_real_graphon,
    mixture_delta_n,
    sample_graph,
)
from stepkernels.search import SearchBudget

HALF = from_real_graphon(RealStepKernel([1.0], [[0.5]]))


class TestSampleGraph:
    def test_constant_dirac_deterministic_labels(self):
        z = DecorationSpace.two_point()
        w = StepKernel.constant(SignedMeasure(z, [1.0, 0.0]))
        s = sample_graph(w, 8, seed=0)
        assert np.all(s.labels == 0)

    def test_fair_coin_frequency(self):
        s = sample_graph(HALF, 64, seed=1)
        freq = s.labels.mean()
        sigma = np.sqrt(0.25 / 64**2)
        assert abs(freq - 0.5) <= 3 * sigma

    def test_bit_identical_repeat(self):
        a = sample_graph(HALF, 32, seed=5)
        b = sample_graph(HALF, 32, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = sample_graph(HALF, 32, seed=5)
        b = sample_graph(HALF, 32, seed=6)
        assert not np.array_equal(a.labels, b.labels)

    def test_symmetric_mode(self):
        s = sample_graph(HALF, 16, seed=9, symmetric=True)
        assert np.array_equal(s.labels, s.labels.T)

    def test_symmetric_shares_positions_and_lower_triangle(self):
        sym = sample_graph(HALF, 16, seed=9, symmetric=True)
        directed = sample_graph(HALF, 16, seed=9, symmetric=False)
        assert np.array_equal(sym.positions, directed.positions)
        assert np.array_equal(np.tril(sym.labels), np.tril(directed.labels))

    def test_rejects_non_probability_kernel(self):
        z = DecorationSpace.two_point()
        w = StepKernel(z, [1.0], np.array([[[0.5, 0.2]]]))
        with pytest.raises(ValueError, match="probability"):
            sample_graph(w, 4, seed=0)

    def test_edge_conditionals_match_kernel(self):
        # frequencies at a fixed latent pair approach the kernel conditional
        w = from_real_graphon(RealStepKernel([0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]]))
        trials = 400
        hits = 0
        for t in range(trials):
            s = sample_graph(w, 8, seed=t)
            parts = (s.positions >= 0.5).astype(int)
            p01 = w.entries[parts[0], parts[1], 1]
            hits += int(s.labels[0, 1] == 1) - p01
        rate = hits / trials
        assert abs(rate) <= 4 * np.sqrt(0.25 / trials)

    @pytest.mark.parametrize("bad", [-1, 2, 3])
    def test_labels_must_index_the_space(self, bad):
        # -1 would index the last point from the end; 2 and 3 index no point
        z = DecorationSpace.two_point()
        labels = np.array([[0, bad], [1, 0]])
        with pytest.raises(ValueError, match="index the 2 decoration points"):
            DecoratedSample(z, [0.1, 0.7], labels, seed=0, symmetric=False)

    @pytest.mark.parametrize("points, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_labels_stored_compact(self, points, dtype):
        z = DecorationSpace.discrete(range(points))
        labels = np.array([[0, points - 1], [points - 1, 1]])
        s = DecoratedSample(z, [0.1, 0.7], labels, seed=0, symmetric=True)
        assert s.labels.dtype == dtype and s.labels.tolist() == labels.tolist()
        assert sample_graph(HALF, 5, seed=2).labels.dtype == np.uint8


class TestEmpiricalKernel:
    def test_single_vertex(self):
        s = sample_graph(HALF, 1, seed=0)
        k = empirical_kernel(s)
        assert k.n_parts == 1 and k.kind == "probability"

    def test_constant_label_sample(self):
        z = DecorationSpace.two_point()
        w = StepKernel.constant(SignedMeasure(z, [0.0, 1.0]))
        k = empirical_kernel(sample_graph(w, 4, seed=0))
        assert np.all(k.entries[:, :, 1] == 1.0)

    def test_roundtrip_labels(self):
        s = sample_graph(HALF, 4, seed=3)
        k = empirical_kernel(s)
        assert np.array_equal(np.argmax(k.entries, axis=2), s.labels)

    def test_exchangeability(self):
        # permuted vertex labels give a weakly isomorphic empirical kernel
        rng = np.random.default_rng(0)
        s = sample_graph(HALF, 6, seed=11)
        k = empirical_kernel(s)
        perm = rng.permutation(6)
        from stepkernels import relabel

        res = delta_cut(k, relabel(k, perm), metric="lp")
        assert res.value == 0.0 and res.exact


class TestMixture:
    def test_simplex_validation(self):
        w1 = RealStepKernel([1.0], [[0.7]])
        w2 = RealStepKernel([1.0], [[0.5]])
        with pytest.raises(ValueError, match="exceed 1"):
            KernelMixture([w1, w2])

    def test_deficit_padded_with_rest_class(self):
        mix = KernelMixture([RealStepKernel([1.0], [[0.25]]), RealStepKernel([1.0], [[0.25]])])
        assert mix.n_components == 3
        assert mix.labels[-1] == "rest"
        kernel = mix.to_step_kernel()
        assert kernel.kind == "probability"
        assert kernel.entries[0, 0, 2] == pytest.approx(0.5)

    def test_mixture_and_identified_kernel_share_streams(self):
        mix = KernelMixture([RealStepKernel([1.0], [[0.5]]), RealStepKernel([1.0], [[0.5]])])
        ident = mix.to_step_kernel()
        a = sample_graph(mix, 16, seed=3)
        b = sample_graph(ident, 16, seed=3)
        assert np.array_equal(a.labels, b.labels)

    def test_distributional_equivalence_chi_square(self):
        # label distribution at a fixed edge across independently seeded draws
        w = RealStepKernel([1.0], [[0.3]])
        mix = KernelMixture([w, RealStepKernel([1.0], [[0.7]])])
        ident = mix.to_step_kernel()
        counts_mix = np.zeros(2)
        counts_ident = np.zeros(2)
        for t in range(300):
            counts_mix[sample_graph(mix, 2, seed=2 * t).labels[0, 1]] += 1
            counts_ident[sample_graph(ident, 2, seed=2 * t + 1).labels[0, 1]] += 1
        table = np.array([counts_mix, counts_ident])
        _, p, _, _ = stats.chi2_contingency(table)
        assert p > 1e-4

    def test_mixture_delta_n_constant_shortcut(self):
        mix = KernelMixture([RealStepKernel([1.0], [[0.5]]), RealStepKernel([1.0], [[0.5]])])
        s = sample_graph(mix, 8, seed=5)
        res = mixture_delta_n(mix, s)
        assert res.exact
        assert res.value >= 0.0
        # value is the sum of componentwise cut norms at the identity labeling
        from stepkernels import cut_norm_real, uniform_refine

        total = 0.0
        for i, w in enumerate(mix.weights):
            ref = uniform_refine(w, 8)
            ind = (s.labels == i).astype(float)
            total += cut_norm_real(RealStepKernel(ref.part_sizes, ref.values - ind))
        assert res.value == pytest.approx(total, abs=1e-12)


class TestConvergenceRun:
    def test_constant_dirac_all_zero(self):
        z = DecorationSpace.two_point()
        w = StepKernel.constant(SignedMeasure(z, [1.0, 0.0]))
        rows = convergence_run(w, [2, 4], trials=2, seed=0, metrics=("delta_lp",))
        assert all(r["value"] == 0.0 for r in rows)

    def test_rows_schema_and_determinism(self):
        rows_a = convergence_run(HALF, [2, 4], trials=2, seed=1, metrics=("delta_lp",))
        rows_b = convergence_run(HALF, [2, 4], trials=2, seed=1, metrics=("delta_lp",))
        assert rows_a == rows_b
        assert {tuple(sorted(r)) for r in rows_a} == {("exact", "metric", "n", "trial", "value")}

    def test_requires_ascending_schedule(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_run(HALF, [4, 4], trials=1, seed=0)

    def test_delta_trend_small_run(self):
        rows = convergence_run(HALF, [4, 16], trials=8, seed=2, metrics=("delta_lp",))
        med4 = np.median([r["value"] for r in rows if r["n"] == 4])
        med16 = np.median([r["value"] for r in rows if r["n"] == 16])
        assert med16 < med4

    def test_mixture_delta_n_metric(self):
        mix = KernelMixture([RealStepKernel([1.0], [[0.5]]), RealStepKernel([1.0], [[0.5]])])
        rows = convergence_run(
            mix, [4, 8], trials=4, seed=3, metrics=("delta_n",),
            budget=SearchBudget(restarts=2, steps=50, seed=0),
        )
        med4 = np.median([r["value"] for r in rows if r["n"] == 4])
        med8 = np.median([r["value"] for r in rows if r["n"] == 8])
        assert med8 <= med4
