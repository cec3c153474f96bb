"""Overlay functionals: grid-oracle agreement, algebraic identities, tiers."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import stepkernels
from stepkernels import (
    CbGraph,
    DecorationSpace,
    OverlapMatrix,
    RealStepKernel,
    StepKernel,
    TestFamily,
    cb_graph_to_kernel,
    delta_2f,
    empirical_kernel,
    f_l2_norm,
    f_overlay,
    f_overlay_truncated,
    from_real_graphon,
    overlay_graph,
    overlay_kernel,
    overlay_objective,
    relabel,
    sample_graph,
    uniform_refine,
)
from stepkernels.sampling import _cell_seed
from stepkernels.search import SearchBudget

RUNNING_KERNEL = from_real_graphon(RealStepKernel([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]]))


def edge_graph(space):
    return CbGraph.from_edges(space, 2, [(0, 1, [0.0, 1.0])])


def random_prob_kernel(rng, space, parts):
    e = rng.random((parts, parts, space.size)) + 0.05
    e /= e.sum(axis=2, keepdims=True)
    return StepKernel(space, np.full(parts, 1.0 / parts), e)


def overlay_assignment_oracle(kernel, graph, alpha, cells):
    """Exhaustive enumeration over all grid assignments (test-local)."""
    refined = uniform_refine(kernel, cells)
    k = graph.n_vertices
    counts = np.rint(np.asarray(alpha) * cells).astype(int)
    best = -np.inf
    for z in itertools.product(range(k), repeat=cells):
        if not np.array_equal(np.bincount(np.array(z), minlength=k), counts):
            continue
        total = 0.0
        for a in range(cells):
            for b in range(cells):
                total += float(refined.entries[a, b] @ graph.beta[z[a], z[b]]) / cells**2
        best = max(best, total)
    return best


class TestOverlapMatrix:
    def test_marginals(self):
        o = OverlapMatrix([[0.3, 0.2], [0.1, 0.4]])
        assert np.allclose(o.row_sums, [0.5, 0.5])
        assert np.allclose(o.col_sums, [0.4, 0.6])
        o.check_marginals([0.5, 0.5], [0.4, 0.6])
        with pytest.raises(ValueError, match="column sums"):
            o.check_marginals([0.5, 0.5], [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            OverlapMatrix([[-0.1, 0.6], [0.1, 0.4]])

    def test_product_of_marginals(self):
        o = OverlapMatrix(np.outer([0.5, 0.5], [0.25, 0.75]))
        o.check_marginals([0.5, 0.5], [0.25, 0.75])
        assert np.allclose(o.rho, [[0.125, 0.375], [0.125, 0.375]])

    def test_permutation_of_equal_parts(self):
        o = OverlapMatrix.from_assignment(np.full(3, 1 / 3), [2, 0, 1], 3)
        o.check_marginals(np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert o.rho[0, 2] == pytest.approx(1 / 3) and np.count_nonzero(o.rho) == 3

    def test_rejects_bad_row_sums(self):
        o = OverlapMatrix([[0.3], [0.4]])
        with pytest.raises(ValueError, match="row sums"):
            o.check_marginals([0.5, 0.5], [0.7])

    def test_interaction_matches_the_einsum_contraction(self):
        from stepkernels.overlay import _interaction

        rng = np.random.default_rng(5)
        space = DecorationSpace.two_point()
        kernel = random_prob_kernel(rng, space, 4)
        graph = CbGraph(space, rng.random((3, 3, space.size)))
        want = np.einsum("pqm,ijm->pqij", kernel.entries, graph.beta)
        np.testing.assert_allclose(_interaction(kernel, graph), want, rtol=0, atol=1e-15)


class TestOverlayGraph:
    def test_zero_decorations(self):
        z = RUNNING_KERNEL.space
        g = CbGraph(z, np.zeros((2, 2, 2)))
        assert overlay_graph(RUNNING_KERNEL, g, cells=4).value == 0.0

    def test_k1_no_optimization(self):
        z = RUNNING_KERNEL.space
        g = CbGraph.from_edges(z, 1, [(0, 0, [0.5, 0.5])])
        res = overlay_graph(RUNNING_KERNEL, g, cells=2)
        assert res.value == pytest.approx(0.5)

    def test_running_example_against_assignment_oracle(self):
        # frozen: the 2**8 assignment enumeration gives 0.4
        z = RUNNING_KERNEL.space
        g = edge_graph(z)
        res = overlay_graph(RUNNING_KERNEL, g, cells=8)
        assert res.exact
        assert res.value == pytest.approx(0.4, abs=1e-12)
        oracle = overlay_assignment_oracle(RUNNING_KERNEL, g, g.alpha, 8)
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_random_instances_against_oracle(self):
        rng = np.random.default_rng(21)
        z = DecorationSpace.discrete(range(3))
        for _ in range(4):
            kernel = random_prob_kernel(rng, z, 2)
            f = rng.random(3)
            g = CbGraph.from_edges(z, 2, [(0, 1, f), (1, 1, rng.random(3))], symmetric=True)
            res = overlay_graph(kernel, g, cells=6)
            oracle = overlay_assignment_oracle(kernel, g, g.alpha, 6)
            assert res.exact
            assert res.value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("sizes, k, cells, alpha", [
        ([1 / 3, 1 / 3, 1 / 3], 2, 6, None),
        ([1 / 6, 1 / 3, 1 / 2], 2, 6, None),
        ([1 / 6, 1 / 3, 1 / 2], 3, 6, None),
        ([1 / 3, 1 / 3, 1 / 3], 3, 9, None),
        # odd n: halves of 4 and 5 cells, and of 3 and 4
        ([1 / 3, 1 / 3, 1 / 3], 2, 9, [1 / 3, 2 / 3]),
        ([1 / 7, 2 / 7, 4 / 7], 2, 7, [3 / 7, 4 / 7]),
        ([1 / 6, 1 / 3, 1 / 2], 1, 6, None),
        # a class of count 0
        ([1 / 3, 1 / 3, 1 / 3], 3, 6, [1 / 2, 0.0, 1 / 2]),
        ([1 / 6, 1 / 3, 1 / 2], 2, 6, [0.0, 1.0]),
    ])
    def test_non_dyadic_grid_against_brute_force(self, sizes, k, cells, alpha):
        rng = np.random.default_rng(25 + cells + k)
        z = DecorationSpace.discrete(range(3))
        e = rng.random((3, 3, 3)) + 0.05
        kernel = StepKernel(z, np.array(sizes), e / e.sum(axis=2, keepdims=True))
        g = CbGraph(z, rng.random((k, k, 3)))
        alpha = g.alpha if alpha is None else np.array(alpha)
        res = overlay_graph(kernel, g, alpha=alpha, cells=cells)
        assert res.exact
        oracle = overlay_assignment_oracle(kernel, g, alpha, cells)
        assert res.value == pytest.approx(oracle, abs=1e-12)
        res.certificate.check_marginals(kernel.part_sizes, alpha)
        assert overlay_objective(kernel, g, res.certificate) == pytest.approx(res.value, abs=1e-12)

    def test_ties_go_to_the_first_assignment_in_product_order(self):
        # dyadic entries sum exactly, and a symmetric two-vertex graph gives
        # every assignment the value of its complement
        rng = np.random.default_rng(26)
        z = DecorationSpace.two_point()
        e = rng.integers(0, 9, size=(8, 8, 1)) / 8.0
        kernel = StepKernel(z, np.full(8, 1 / 8), np.concatenate([e, 1.0 - e], axis=2))
        g = CbGraph.from_edges(z, 2, [(0, 1, [0.25, 0.75]), (0, 0, [0.5, 0.0]), (1, 1, [0.5, 0.0])])
        assert np.array_equal(g.beta, g.beta[::-1, ::-1])
        values = {}
        for a in itertools.product(range(2), repeat=8):
            if sum(a) == 4:
                o = OverlapMatrix.from_assignment(kernel.part_sizes, a, 2)
                values[a] = overlay_objective(kernel, g, o)
        best = max(values.values())
        first = next(a for a, v in values.items() if v == best)
        assert values[tuple(1 - np.array(first))] == best
        res = overlay_graph(kernel, g, cells=8)
        assert res.value == best
        want = OverlapMatrix.from_assignment(kernel.part_sizes, first, 2)
        assert np.array_equal(res.certificate.rho, want.rho)

    @pytest.mark.parametrize("trial, value, cells", [
        (0, 0.2890625, "0101011111010000"),
        (1, 0.3203125, "0100001111110001"),
        (2, 0.31640625, "0010011011001011"),
        (3, 0.32421875, "0100100001111110"),
    ])
    def test_pinned_criterion_6_overlays_at_16_cells(self, trial, value, cells):
        # the n = 16 overlay cells of run_theorem_experiment(seed=7), bit for bit
        model = from_real_graphon(RealStepKernel([1.0], [[0.5]]))
        emp = empirical_kernel(sample_graph(model, 16, _cell_seed(7, 16, trial)))
        res = overlay_graph(emp, edge_graph(model.space))
        assert res.exact and res.value == value
        want = OverlapMatrix.from_assignment(emp.part_sizes, [int(c) for c in cells], 2)
        assert np.array_equal(res.certificate.rho, want.rho)

    def test_nonuniform_alpha(self):
        rng = np.random.default_rng(22)
        z = DecorationSpace.two_point()
        kernel = random_prob_kernel(rng, z, 2)
        g = CbGraph.from_edges(z, 2, [(0, 1, [0.2, 0.9])], alpha=[0.25, 0.75])
        res = overlay_graph(kernel, g, cells=4)
        oracle = overlay_assignment_oracle(kernel, g, [0.25, 0.75], 4)
        assert res.exact
        assert res.value == pytest.approx(oracle, abs=1e-12)

    def test_certificate_reproduces_value(self):
        z = RUNNING_KERNEL.space
        g = edge_graph(z)
        res = overlay_graph(RUNNING_KERNEL, g, cells=8)
        res.certificate.check_marginals(RUNNING_KERNEL.part_sizes, g.alpha)
        assert overlay_objective(RUNNING_KERNEL, g, res.certificate) == pytest.approx(
            res.value, abs=1e-12
        )

    @pytest.mark.parametrize("alpha", [[0.75, 0.75], [0.5, 0.25], [1.25, -0.25]])
    def test_alpha_must_be_a_probability_vector(self, alpha):
        g = CbGraph.from_edges(RUNNING_KERNEL.space, 2, [(0, 1, [0.0, 1.0])])
        with pytest.raises(ValueError, match="probability vector"):
            overlay_graph(RUNNING_KERNEL, g, alpha=alpha, cells=4)

    def test_irrational_alpha_falls_back_with_warning(self):
        z = RUNNING_KERNEL.space
        g = edge_graph(z)
        alpha = np.array([1 / np.pi, 1 - 1 / np.pi])
        with pytest.warns(UserWarning, match="ascent"):
            res = overlay_graph(RUNNING_KERNEL, g, alpha=alpha)
        assert not res.exact
        assert res.value >= 0.0

    @pytest.mark.parametrize("k, edges, cells", [
        (2, [(0, 1, [0.0, 1.0])], 8),
        (3, [(0, 1, [0.0, 1.0]), (1, 2, [0.5, 0.5])], 6),
    ])
    def test_ascent_tier_at_most_grid_value_plus_noise(self, k, edges, cells):
        # ascent is a lower-bound tier; on an oracle-solvable instance it
        # must not exceed the exhaustive optimum (three vertices solve LPs)
        rng = np.random.default_rng(23)
        z = DecorationSpace.two_point()
        kernel = random_prob_kernel(rng, z, 2)
        g = CbGraph.from_edges(z, k, edges)
        exact = overlay_graph(kernel, g, cells=cells)
        from stepkernels.overlay import _overlay_graph_ascent

        heur = _overlay_graph_ascent(kernel, g, g.alpha, SearchBudget(seed=3))
        assert not heur.exact
        heur.certificate.check_marginals(kernel.part_sizes, g.alpha)
        assert heur.value <= exact.value + 1e-9


def highs_vertex(gradient, rows, cols):
    """The transportation LP solved by HiGHS directly (test-local reference)."""
    from scipy.optimize import linprog

    p, k = gradient.shape
    a_eq = np.vstack([np.kron(np.eye(p), np.ones(k)), np.kron(np.ones(p), np.eye(k))])
    res = linprog(
        -gradient.ravel(), A_eq=a_eq, b_eq=np.concatenate([rows, cols]), bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.x.reshape(p, k)


class TestTransportVertex:
    @pytest.mark.parametrize("equal_parts", [True, False])
    def test_two_column_vertex_is_optimal(self, equal_parts):
        from stepkernels.overlay import _two_column_vertex

        rng = np.random.default_rng(7)
        for _ in range(200):
            # equal parts on a dyadic grid, as in the empirical kernels of
            # criterion 6; HiGHS rounds other partial masses its own way
            p = 2 ** int(rng.integers(0, 6)) if equal_parts else int(rng.integers(1, 33))
            rows = np.full(p, 1.0 / p) if equal_parts else rng.dirichlet(np.ones(p))
            a = rng.integers(0, p + 1) / p if equal_parts else rng.random()
            cols = np.array([a, 1.0 - a])
            g = rng.normal(size=(p, 2))
            v = _two_column_vertex(g, rows, cols)
            ref = highs_vertex(g, rows, cols)
            assert v.min() >= 0.0
            np.testing.assert_allclose(v.sum(axis=1), rows, atol=1e-12)
            np.testing.assert_allclose(v.sum(axis=0), cols, atol=1e-12)
            np.testing.assert_allclose(v, ref, atol=1e-12)
            if equal_parts:
                assert np.array_equal(v, ref)

    @pytest.mark.parametrize("cols, gain, first", [
        # rows 1 and 2 tie across the split: two optimal vertices
        ([0.5, 0.5], [3.0, 1.0, 1.0, 0.0], [0.25, 0.25, 0.0, 0.0]),
        # the same tie with the tied rows apart: the lower index fills first
        ([0.5, 0.5], [3.0, 1.0, 0.0, 1.0], [0.25, 0.25, 0.0, 0.0]),
        ([0.5, 0.5], [1.0, 3.0, 0.0, 1.0], [0.25, 0.25, 0.0, 0.0]),
        # a partial row tied with a full one
        ([0.375, 0.625], [1.0, 1.0, 0.0, -1.0], [0.25, 0.125, 0.0, 0.0]),
        ([0.375, 0.625], [0.0, 1.0, 1.0, -1.0], [0.0, 0.25, 0.125, 0.0]),
    ])
    def test_tie_at_the_split_takes_the_stable_order(self, cols, gain, first):
        from stepkernels.overlay import _two_column_vertex

        rows = np.full(4, 0.25)
        cols = np.array(cols)
        g = np.column_stack([gain, np.zeros(4)])
        v = _two_column_vertex(g, rows, cols)
        assert v[:, 0].tolist() == first
        assert v.sum(axis=1).tolist() == rows.tolist()
        assert v.sum(axis=0).tolist() == cols.tolist()
        assert (g * v).sum() == pytest.approx((g * highs_vertex(g, rows, cols)).sum(), abs=1e-12)

    def test_ascent_matches_highs_on_a_sampled_graph(self, monkeypatch):
        from stepkernels import empirical_kernel, overlay, sample_graph

        model = from_real_graphon(RealStepKernel([1.0], [[0.5]]))
        g = edge_graph(model.space)
        budget = SearchBudget(restarts=2)
        for seed in (3, 11):
            emp = empirical_kernel(sample_graph(model, 32, seed))
            fast = overlay._overlay_graph_ascent(emp, g, g.alpha, budget)
            with monkeypatch.context() as mp:
                mp.setattr(overlay, "_transport_lp", highs_vertex)
                slow = overlay._overlay_graph_ascent(emp, g, g.alpha, budget)
            assert fast.value == slow.value
            assert np.array_equal(fast.certificate.rho, slow.certificate.rho)

IMPORT_WEIGHT = """
import sys
import stepkernels, stepkernels.cli
from stepkernels import (
    CbGraph, DecorationSpace, RealStepKernel, SearchBudget, StepKernel, empirical_kernel,
    from_real_graphon, overlay, overlay_graph, sample_graph,
)
model = from_real_graphon(RealStepKernel([1.0], [[0.5]]))
graph = CbGraph.from_edges(model.space, 2, [(0, 1, [0.0, 1.0])])
assert not overlay_graph(empirical_kernel(sample_graph(model, 32, 3)), graph).exact
assert "scipy.optimize" not in sys.modules, "a two-vertex overlay imported scipy.optimize"
z = DecorationSpace.two_point()
kernel = StepKernel(z, [0.5, 0.5], [[[0.5, 0.5], [0.2, 0.8]], [[0.2, 0.8], [0.9, 0.1]]])
graph = CbGraph.from_edges(z, 3, [(0, 1, [0.0, 1.0]), (1, 2, [0.5, 0.5])])
overlay._overlay_graph_ascent(kernel, graph, graph.alpha, SearchBudget(restarts=1))
assert "scipy.optimize" in sys.modules, "a three-vertex ascent solved no LP"
assert callable(overlay.linprog)  # the name perfbench counts LP solves by
"""


def test_scipy_optimize_is_imported_only_for_an_lp():
    # importing scipy.optimize adds about 50 MB of resident memory
    src = os.path.dirname(os.path.dirname(stepkernels.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", IMPORT_WEIGHT],
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


class TestOverlayKernel:
    def test_constant_function_kernel(self):
        from stepkernels import CbStepKernel

        z = RUNNING_KERNEL.space
        cb = CbStepKernel.constant(z, [1.0, 1.0], [0.5, 0.5])
        res = overlay_kernel(RUNNING_KERNEL, cb)
        assert res.exact and res.value == pytest.approx(1.0)

    def test_graph_kernel_identity(self):
        z = RUNNING_KERNEL.space
        g = edge_graph(z)
        via_graph = overlay_graph(RUNNING_KERNEL, g, cells=8)
        via_kernel = overlay_kernel(RUNNING_KERNEL, cb_graph_to_kernel(g), cells=8)
        assert via_kernel.exact
        assert via_graph.value == pytest.approx(via_kernel.value, abs=1e-9)

    def test_constant_measure_kernel_invariant(self):
        from stepkernels import CbStepKernel, SignedMeasure

        z = DecorationSpace.two_point()
        u = StepKernel.constant(SignedMeasure(z, [0.3, 0.7]), [0.5, 0.5])
        rng = np.random.default_rng(1)
        cb = CbStepKernel(z, [0.5, 0.5], rng.random((2, 2, 2)))
        res = overlay_kernel(u, cb)
        assert res.exact
        expected = float(np.einsum("abm,abm->", u.entries, cb.entries)) / 4.0
        assert res.value == pytest.approx(expected)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(2)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 4)
        g = edge_graph(z)
        cb = cb_graph_to_kernel(g)
        base = overlay_kernel(u, cb, cells=4)
        moved = overlay_kernel(relabel(u, rng.permutation(4)), cb, cells=4)
        assert base.value == pytest.approx(moved.value, abs=1e-12)


class TestSubadditivityHomogeneity:
    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 2)
        g = edge_graph(z)
        base = overlay_graph(u, g, cells=8).value
        for lam in (0.5, 2.0, 7.5):
            scaled = overlay_graph(u.scale(lam), g, cells=8).value
            assert scaled == pytest.approx(lam * base, abs=1e-9)

    def test_subadditive_first_argument(self):
        rng = np.random.default_rng(4)
        z = DecorationSpace.two_point()
        g = edge_graph(z)
        for _ in range(10):
            u = StepKernel(z, [0.5, 0.5], rng.random((2, 2, 2)) - 0.5)
            v = StepKernel(z, [0.5, 0.5], rng.random((2, 2, 2)) - 0.5)
            both = overlay_graph(u + v, g, cells=8).value
            split = overlay_graph(u, g, cells=8).value + overlay_graph(v, g, cells=8).value
            assert both <= split + 1e-9

    def test_subadditive_second_argument(self):
        from stepkernels import CbStepKernel

        rng = np.random.default_rng(5)
        z = DecorationSpace.two_point()
        u = random_prob_kernel(rng, z, 2)
        w = CbStepKernel(z, [0.5, 0.5], rng.random((2, 2, 2)) - 0.5)
        q = CbStepKernel(z, [0.5, 0.5], rng.random((2, 2, 2)) - 0.5)
        both = overlay_kernel(u, w + q, cells=6).value
        split = overlay_kernel(u, w, cells=6).value + overlay_kernel(u, q, cells=6).value
        assert both <= split + 1e-9


class TestFamilyOverlay:
    def test_constant_probability_pair(self):
        from stepkernels import SignedMeasure

        z = DecorationSpace((0,), [[0.0]])
        fam = TestFamily(z, [[1.0]])
        u = StepKernel.constant(SignedMeasure(z, [1.0]))
        res = f_overlay(u, u, fam)
        assert res.exact and res.value == pytest.approx(1.0)

    def test_exhaustive_matches_brute_force(self):
        rng = np.random.default_rng(6)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 4)
        w = random_prob_kernel(rng, z, 4)
        res = f_overlay(u, w, fam)
        assert res.exact

        def inner(a, b):
            total = 0.0
            for k, s in enumerate(fam.scale_weights()):
                fa = a.entries @ fam.function(k)
                fb = b.entries @ fam.function(k)
                total += s * float((fa * fb).mean())
            return total

        brute = max(
            inner(u, relabel(w, np.array(p)))
            for p in itertools.permutations(range(4))
        )
        assert res.value == pytest.approx(brute, abs=1e-12)

    def test_cosine_identity(self):
        rng = np.random.default_rng(7)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        for _ in range(5):
            u = random_prob_kernel(rng, z, 3)
            w = random_prob_kernel(rng, z, 3)
            co = f_overlay(u, w, fam).value
            d2 = delta_2f(u, w, fam).value
            expected = 0.5 * (f_l2_norm(u, fam) ** 2 + f_l2_norm(w, fam) ** 2 - d2 ** 2)
            assert co == pytest.approx(expected, abs=1e-9)

    def test_mixture_identity_with_overlay_kernel(self):
        # pairing against sum_k f_k 2^-k W[f_k] reproduces the family overlay
        from stepkernels import CbStepKernel, apply_function

        rng = np.random.default_rng(8)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 2)
        w = random_prob_kernel(rng, z, 2)
        entries = np.zeros((2, 2, 2))
        for k, s in enumerate(fam.scale_weights()):
            wk = apply_function(w, fam.function(k)).values
            entries += s * np.multiply.outer(wk, fam.function(k))
        mixture = CbStepKernel(z, w.part_sizes, entries)
        via_pairing = overlay_kernel(u, mixture, cells=4)
        via_family = f_overlay(u, w, fam, cells=4)
        assert via_pairing.value == pytest.approx(via_family.value, abs=1e-9)


class TestTruncation:
    def test_probability_bound_is_one_over_n(self):
        rng = np.random.default_rng(9)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 2)
        w = random_prob_kernel(rng, z, 2)
        full = f_overlay(u, w, fam).value
        for n_terms in (1, 2, 4):
            res, bound = f_overlay_truncated(u, w, fam, n_terms)
            assert bound == pytest.approx(1.0 / n_terms)
            assert abs(full - res.value) <= bound + 1e-12

    def test_large_n_exact_with_bound_reported(self):
        rng = np.random.default_rng(10)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 2)
        w = random_prob_kernel(rng, z, 2)
        full = f_overlay(u, w, fam).value
        res, bound = f_overlay_truncated(u, w, fam, 10)
        assert res.value == pytest.approx(full, abs=1e-12)
        assert bound == pytest.approx(0.1)

    def test_untruncated_constant_kernel_is_the_overlay(self):
        # both sum per function, then over the weights, so the bits agree
        from stepkernels import SignedMeasure

        rng = np.random.default_rng(12)
        z = DecorationSpace.two_point()
        fam = TestFamily.default(z)
        for _ in range(100):
            u = random_prob_kernel(rng, z, int(rng.integers(1, 7)))
            w = StepKernel.constant(SignedMeasure(z, rng.dirichlet(np.ones(2))))
            res, _ = f_overlay_truncated(u, w, fam, len(fam))
            assert res.exact and res.value == f_overlay(u, w, fam).value

    def test_nested_enclosures(self):
        rng = np.random.default_rng(11)
        z = DecorationSpace.discrete(range(3))
        fam = TestFamily.default(z)
        u = random_prob_kernel(rng, z, 3)
        w = random_prob_kernel(rng, z, 3)
        full = f_overlay(u, w, fam).value
        for n_terms in (1, 3):
            res, bound = f_overlay_truncated(u, w, fam, n_terms)
            assert res.value - bound - 1e-12 <= full <= res.value + bound + 1e-12
