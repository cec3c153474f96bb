"""The verify suites' own oracles against their per-instance forms."""

import itertools

import numpy as np
import pytest

from stepkernels import (
    DecorationSpace,
    QuotientCloud,
    RealStepKernel,
    cut_norm_real,
    quotient,
    relabel,
    verify,
)


def per_permutation_oracle(w, u):
    """The real-kernel unlabeled cut distance, one relabeled kernel and one
    cut norm per permutation (test-local)."""
    best = np.inf
    for p in itertools.permutations(range(w.n_parts)):
        best = min(best, cut_norm_real(w - relabel(u, np.array(p, dtype=np.intp))))
    return float(best)


class TestRealOracle:
    @pytest.mark.parametrize("parts", range(2, 6))
    def test_stack_bit_equal_to_per_permutation(self, parts):
        rng = np.random.default_rng([41, parts])
        for _ in range(20):
            w, u = verify.random_real_graphon(rng, parts), verify.random_real_graphon(rng, parts)
            assert verify.delta_real_oracle(w, u) == per_permutation_oracle(w, u)

    def test_relabeled_kernel_at_zero(self):
        rng = np.random.default_rng(43)
        w = verify.random_real_graphon(rng, 4)
        assert verify.delta_real_oracle(w, relabel(w, [2, 0, 3, 1])) == 0.0

    @pytest.mark.parametrize("sizes", [[0.25, 0.75], [0.5, 0.25, 0.25]])
    def test_rejects_unequal_parts(self, sizes):
        rng = np.random.default_rng(47)
        u = RealStepKernel(sizes, rng.random((len(sizes), len(sizes))))
        for w in (u, verify.random_real_graphon(rng, 2)):
            with pytest.raises(ValueError, match="equal parts"):
                verify.delta_real_oracle(w, u)


class TestMatchedCloud:
    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 1), (4, 2), (3, 3)])
    def test_stack_equals_per_quotient_members(self, n, k):
        rng = np.random.default_rng([53, n, k])
        for space in (DecorationSpace.two_point(), DecorationSpace.discrete(range(3))):
            kernel = verify.random_prob_kernel(rng, space, n)
            members = [quotient(kernel, (np.array(z, dtype=np.intp), k))
                       for z in itertools.product(range(k), repeat=n)]
            want = QuotientCloud(space, k, tuple(members), {"mode": "matched"})
            got = verify._matched_cloud(kernel, k)
            assert got.k == want.k and got.provenance == want.provenance
            assert np.array_equal(got.alpha, want.alpha) and got.alpha.shape == want.alpha.shape
            assert np.array_equal(got.beta, want.beta) and got.beta.shape == want.beta.shape
