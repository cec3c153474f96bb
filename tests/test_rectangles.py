"""The exact rectangle kernel and the distances built on it.

``rectangle_max`` enumerates the 2**P row sets and takes the best column
set in closed form.  Every exact rectangle supremum (``cut_dist_lp``,
``cut_dist_f``, ``dsquare_quotient``, ``cut_norm_real`` and the exhaustive
``delta_cut``) is checked here against a test-local oracle that enumerates
all 4**P subset pairs (S, T) and evaluates the distance between the two
S x T masses directly.  Families larger than the part count take the
column-set form of ``cut_dist_f`` instead of its sign vectors.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepkernels import measures, metrics
from stepkernels import (
    DecorationSpace,
    Quotient,
    RealStepKernel,
    StepKernel,
    TestFamily,
    cut_dist_f,
    cut_dist_lp,
    cut_norm_real,
    delta_cut,
    dsquare_quotient,
    lp_distance_batch,
    relabel,
    uniform_refine,
)
from stepkernels.search import count_assignments, lp_rectangle_max, ordered_matmul, rectangle_max


def random_space(rng, m):
    """The discrete space or m random points in the plane."""
    if rng.random() < 0.5:
        return DecorationSpace.discrete(range(m))
    x = rng.random((m, 2))
    return DecorationSpace(range(m), np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2)))


def random_kernel(rng, space, lam, sub=False):
    """Probability entries, or sub-probability ones when ``sub``."""
    e = rng.dirichlet(np.ones(space.size), size=(lam.size, lam.size))
    if sub:
        e = e * rng.random((lam.size, lam.size, 1))
    return StepKernel(space, lam, e)


def block_masses(kernel):
    lam = kernel.part_sizes
    return kernel.entries * np.outer(lam, lam)[:, :, None]


def rectangle_masses(blocks):
    """(4**P, m) masses of every rectangle S x T of a (P, P, m) block array."""
    p, _, m = blocks.shape
    rows = np.array(list(itertools.product([0.0, 1.0], repeat=p)))
    return np.einsum("sp,pqm,tq->stm", rows, blocks, rows, optimize=True).reshape(-1, m)


def lp_oracle(space, blocks_a, blocks_b):
    mus = np.clip(rectangle_masses(blocks_a), 0.0, None)
    nus = np.clip(rectangle_masses(blocks_b), 0.0, None)
    return float(lp_distance_batch(space, mus, nus).max())


def f_oracle(fam, blocks_a, blocks_b):
    diff = rectangle_masses(blocks_a) - rectangle_masses(blocks_b)
    return float((np.abs(diff @ fam.values.T) @ fam.scale_weights()).max())


def random_case(seed):
    """Two kernels on P <= 6 uneven parts over m <= 4 points, and a family."""
    rng = np.random.default_rng([seed, 17])
    p, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    z = random_space(rng, m)
    lam = rng.dirichlet(np.ones(p))
    u = random_kernel(rng, z, lam, sub=seed % 3 == 0)
    w = random_kernel(rng, z, lam)
    return u, w, TestFamily.default(z)


def random_quotients(seed):
    rng = np.random.default_rng([seed, 19])
    k, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    z = random_space(rng, m)
    a, b = (
        Quotient(z, rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m), size=(k, k)))
        for _ in range(2)
    )
    return a, b


def uniform_pair(seed, cells, m):
    rng = np.random.default_rng([seed, cells, m])
    z = DecorationSpace.two_point() if m == 2 else DecorationSpace.discrete(range(m))
    lam = np.full(cells, 1.0 / cells)
    return random_kernel(rng, z, lam), random_kernel(rng, z, lam), TestFamily.default(z)


def tied_pair(seed, m):
    """A 6-cell refinement of a 3-part kernel against a random 6-cell
    kernel: relabelings that differ by swapping the two cells of one part
    tie, up to rounding."""
    rng = np.random.default_rng([seed, 6, m, 3])
    z = DecorationSpace.two_point() if m == 2 else DecorationSpace.discrete(range(m))
    u = uniform_refine(random_kernel(rng, z, np.full(3, 1 / 3)), 6)
    return u, random_kernel(rng, z, np.full(6, 1 / 6)), TestFamily.default(z)


def race_parts(u, w, metric, fam):
    """Block masses, the distance of the race and the margin arguments, as
    ``metrics._delta_exhaustive`` forms them."""
    wu, ww = block_masses(u), block_masses(w)
    if metric == "f":
        weight = np.abs(fam.values).T @ fam.scale_weights()
        return wu, ww, lambda a, b: metrics._f_rectangles(fam, a - b), len(fam), weight
    return wu, ww, lambda a, b: lp_rectangle_max(u.space, a, b), 1, np.ones(u.space.size)


class TestRectangleMax:
    @pytest.mark.parametrize("seed", range(6))
    def test_against_subset_pairs(self, seed):
        rng = np.random.default_rng(seed)
        c, p, f = int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(1, 4))
        blocks = rng.normal(size=(c, p, p, f))
        want = np.zeros((c, f))
        for s in itertools.product([0, 1], repeat=p):
            for t in itertools.product([0, 1], repeat=p):
                rect = np.ix_(np.flatnonzero(s), np.flatnonzero(t))
                want = np.maximum(want, blocks[:, rect[0], rect[1], :].sum(axis=(1, 2)))
        np.testing.assert_allclose(rectangle_max(blocks), want, rtol=0, atol=1e-12)

    def test_nonpositive_blocks_give_zero(self):
        blocks = -np.random.default_rng(3).random((2, 4, 4, 3))
        assert np.array_equal(rectangle_max(blocks), np.zeros((2, 3)))

    @pytest.mark.parametrize("chunk", [1, 1 << 6, 1 << 20])
    def test_members_do_not_depend_on_stack_or_chunk(self, monkeypatch, chunk):
        blocks = np.random.default_rng(5).normal(size=(9, 7, 7, 5))
        alone = np.concatenate([rectangle_max(b[None]) for b in blocks])
        monkeypatch.setattr(measures, "LP_CHUNK", chunk)
        assert np.array_equal(rectangle_max(blocks), alone)


class TestOrderedMatmul:
    def test_entries_do_not_depend_on_the_stack(self):
        rng = np.random.default_rng(8)
        a, b = rng.normal(size=(6, 5, 7)), rng.normal(size=(7, 3))
        whole = ordered_matmul(a, b)
        np.testing.assert_allclose(whole, a @ b, rtol=0, atol=1e-14)
        assert all(np.array_equal(ordered_matmul(a[i : i + 1, j : j + 2], b[:, 1:]),
                                  whole[i : i + 1, j : j + 2, 1:])
                   for i in range(6) for j in range(4))


class TestClosedSets:
    @pytest.mark.parametrize("seed", range(4))
    def test_against_definition(self, seed):
        rng = np.random.default_rng([seed, 23])
        z = random_space(rng, int(rng.integers(1, 7)))
        m = z.size
        for r, t in enumerate(z.thresholds()):
            near = [sum(1 << y for y in range(m)
                        if any(s >> x & 1 and z.dist[x, y] <= t + measures.ABS_TOL
                               for x in range(m)))
                    for s in range(1 << m)]
            closed = [s for s in range(1, 1 << m)
                      if all(s >> x & 1 or near[1 << x] & ~near[s] for x in range(m))]
            sets, enlarged = z._closed_sets(r)
            assert sets.tolist() == closed
            assert enlarged.tolist() == [near[s] for s in closed]


class TestAgainstSubsetPairs:
    """The 2**P row-set forms against the 4**P subset-pair oracle."""

    @pytest.mark.parametrize("seed", range(12))
    def test_cut_dist_lp(self, seed):
        u, w, _ = random_case(seed)
        want = lp_oracle(u.space, block_masses(u), block_masses(w))
        assert cut_dist_lp(u, w) == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_cut_dist_f(self, seed):
        u, w, fam = random_case(seed)
        want = f_oracle(fam, block_masses(u), block_masses(w))
        assert cut_dist_f(u, w, fam) == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_dsquare_quotient(self, seed):
        a, b = random_quotients(seed)
        want = float(np.abs(a.alpha - b.alpha).sum()) + lp_oracle(a.space, a.scaled(), b.scaled())
        assert dsquare_quotient(a, b) == pytest.approx(want, rel=0, abs=1e-15)


class TestLargeFamilies:
    """Families of more functions than parts enumerate column sets."""

    @pytest.mark.parametrize("p, m", [(2, 5), (3, 7), (4, 9), (3, 20)])
    def test_against_subset_pairs(self, p, m):
        rng = np.random.default_rng([p, m])
        z = DecorationSpace.discrete(range(m))
        lam = rng.dirichlet(np.ones(p))
        u, w = random_kernel(rng, z, lam, sub=True), random_kernel(rng, z, lam)
        fam = TestFamily.default(z)
        want = f_oracle(fam, block_masses(u), block_masses(w))
        assert cut_dist_f(u, w, fam) == pytest.approx(want, rel=0, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_sign_vectors_and_column_sets_agree(self, monkeypatch, seed):
        u, w, fam = random_case(seed + 200)
        values = []
        for form in (True, False):
            monkeypatch.setattr(metrics, "_sign_vectors", lambda k, p: form)
            values.append(cut_dist_f(u, w, fam))
        assert values[0] == pytest.approx(values[1], rel=0, abs=1e-15)

    def test_exhaustive_delta_with_a_large_family(self):
        rng = np.random.default_rng(31)
        z = DecorationSpace.discrete(range(7))
        lam = np.full(5, 0.2)
        u, w, fam = random_kernel(rng, z, lam), random_kernel(rng, z, lam), TestFamily.default(z)
        bu = block_masses(u)
        want = min(f_oracle(fam, bu, block_masses(relabel(w, np.array(p))))
                   for p in itertools.permutations(range(5)))
        res = delta_cut(u, w, metric="f", fam=fam)
        assert res.exact and res.value == pytest.approx(want, rel=0, abs=1e-15)
        assert res.value == cut_dist_f(u, relabel(w, res.certificate), fam)

    def test_twenty_functions_at_twelve_parts_in_seconds(self):
        # 2**20 sign vectors would take minutes; the 4**12 column sets take
        # about a second
        rng = np.random.default_rng(4)
        z = DecorationSpace.discrete(range(19))
        lam = rng.dirichlet(np.ones(12))
        u, w = random_kernel(rng, z, lam), random_kernel(rng, z, lam)
        start = time.perf_counter()
        value = cut_dist_f(u, w, TestFamily.default(z))
        assert time.perf_counter() - start < 30
        assert 0 < value < 2


class TestCutNormRealPinned:
    # values of the 2**P enumeration by matrix products, which the kernel
    # reproduces bit for bit: the kernels of TestCutNormReal (2-5 equal
    # parts, five each, and three uneven parts) and one kernel at 9, 12
    # and 16 uneven parts
    PINNED = [
        0.15239822861269495, 0.1892380748250821, 0.0888174227831513,
        0.07562042446215916, 0.16262519370082548, 0.1513843816863996,
        0.08592002995802905, 0.12148910471416269, 0.13017890119469663,
        0.13334546975866668, 0.17110992108278433, 0.10862154830765883,
        0.08587475562061922, 0.14587240222733988, 0.09029656658918425,
        0.05372846708267729, 0.07791691697673786, 0.09730207517880281,
        0.11675302341807466, 0.07963767748816558, 0.05425331064779058,
        0.07922425476152656, 0.10567139523531695, 0.0706494321044519,
    ]

    @staticmethod
    def kernels():
        for parts in (2, 3, 4, 5):
            rng = np.random.default_rng(parts)
            for _ in range(5):
                yield RealStepKernel(np.full(parts, 1 / parts), rng.random((parts, parts)) - 0.5)
        rng = np.random.default_rng(99)
        yield RealStepKernel([0.2, 0.3, 0.5], rng.random((3, 3)) - 0.5)
        for parts in (9, 12, 16):
            rng = np.random.default_rng([parts, 5])
            yield RealStepKernel(rng.dirichlet(np.ones(parts)), rng.random((parts, parts)) - 0.5)

    @pytest.mark.parametrize("chunk", [None, 1 << 6])
    def test_bit_equal(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(measures, "LP_CHUNK", chunk)
        assert [cut_norm_real(w) for w in self.kernels()] == self.PINNED


class TestExhaustiveDelta:
    @pytest.mark.parametrize(
        "seed, cells, m",
        [(0, 5, 2), (1, 5, 3), (2, 6, 2), (3, 6, 3), ("tied", 6, 2), ("tied", 6, 3)],
    )
    def test_minimum_over_relabelings(self, seed, cells, m):
        u, w, fam = tied_pair(4, m) if seed == "tied" else uniform_pair(seed, cells, m)
        bu = block_masses(u)
        perms = [np.array(p) for p in itertools.permutations(range(cells))]
        for metric, oracle, labeled in (
            ("lp", lambda b: lp_oracle(u.space, bu, b), lambda v: cut_dist_lp(u, v)),
            ("f", lambda b: f_oracle(fam, bu, b), lambda v: cut_dist_f(u, v, fam)),
        ):
            res = delta_cut(u, w, metric=metric, fam=fam)
            want = min(oracle(block_masses(relabel(w, p))) for p in perms)
            assert res.exact and res.value == pytest.approx(want, rel=0, abs=1e-15)
            # the smallest labeled distance, bit for bit, at the first
            # permutation attaining it
            values = [labeled(relabel(w, p)) for p in perms]
            assert res.value == min(values)
            assert res.certificate.tolist() == perms[values.index(min(values))].tolist()

    @given(
        seed=st.integers(0, 2**16),
        cells=st.integers(4, 7),
        m=st.sampled_from([2, 3]),
        metric=st.sampled_from(["lp", "f"]),
        refined=st.booleans(),
    )
    @settings(max_examples=24, deadline=None)
    def test_bound_below_value_plus_margin(self, seed, cells, m, metric, refined):
        u, w, fam = uniform_pair(seed, cells, m)
        base = [d for d in (2, 3) if cells % d == 0 and d < cells]
        if refined and base:
            rng = np.random.default_rng(seed)
            u = uniform_refine(random_kernel(rng, u.space, np.full(base[0], 1 / base[0])), cells)
        wu, ww, dist, terms, weight = race_parts(u, w, metric, fam)
        perms = np.concatenate(list(count_assignments(cells, (1,) * cells)))
        bounds = metrics._pair_bounds(wu, ww, perms, dist, 1 << 14)
        values = np.concatenate([
            dist(wu[None], ww[p[:, :, None], p[:, None, :]]) for p in np.array_split(perms, 24)
        ])
        margin = metrics._race_margin(wu, ww, terms, weight)
        assert 0 < margin < 1e-11
        assert (bounds <= values + margin).all()

    def test_six_cells_evaluate_few_relabelings(self, monkeypatch):
        u, w, fam = uniform_pair(5, 6, 3)
        evaluated = []

        def counted(fn):
            def wrapper(*args):
                stacks = [a for a in args if isinstance(a, np.ndarray) and a.ndim == 4]
                if stacks[-1].shape[1] == 6:  # a stack of relabelings, not of quotients
                    evaluated[-1] += len(stacks[-1])
                return fn(*args)
            return wrapper

        monkeypatch.setattr(metrics, "lp_rectangle_max", counted(metrics.lp_rectangle_max))
        monkeypatch.setattr(metrics, "_f_rectangles", counted(metrics._f_rectangles))
        for metric in ("lp", "f"):
            evaluated.append(0)
            assert delta_cut(u, w, metric=metric, fam=fam).exact
        assert 0 < max(evaluated) < 100


class TestChunkInvariance:
    """A small chunk budget forces several row-set chunks; no bit moves."""

    def values(self):
        out = []
        for seed in range(4):
            u, w, fam = random_case(seed + 100)
            a, b = random_quotients(seed + 100)
            out += [cut_dist_lp(u, w), cut_dist_f(u, w, fam), dsquare_quotient(a, b)]
        for cells, m in ((6, 2), (6, 3)):
            u, w, fam = uniform_pair(7, cells, m)
            for res in (delta_cut(u, w, metric="lp"), delta_cut(u, w, metric="f", fam=fam)):
                out += [res.value, res.certificate.tolist()]
        return out

    def test_small_chunks_bit_identical(self, monkeypatch):
        want = self.values()
        monkeypatch.setattr(measures, "LP_CHUNK", 1 << 6)
        assert self.values() == want

    def test_masses_per_chunk_bit_identical(self, monkeypatch):
        # one closed set per chunk, each forming its own subset masses
        cases = [random_case(seed) for seed in range(300, 306)]
        quotients = [random_quotients(seed) for seed in range(300, 304)]
        want = [cut_dist_lp(u, w) for u, w, _ in cases] + [dsquare_quotient(a, b) for a, b in quotients]
        monkeypatch.setattr(measures, "LP_CHUNK", 1)
        got = [cut_dist_lp(u, w) for u, w, _ in cases] + [dsquare_quotient(a, b) for a, b in quotients]
        assert got == want
