"""JSON schema round-trips and diagnostics."""

import hashlib

import numpy as np
import pytest

from stepkernels import (
    DecorationSpace,
    RealStepKernel,
    StepKernel,
    from_real_graphon,
    quotient_cloud,
)
from stepkernels import jsonio

RUNNING = from_real_graphon(RealStepKernel([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]]))


def three_part_kernel():
    rng = np.random.default_rng(5)
    e = rng.dirichlet(np.ones(3), size=(3, 3))
    return StepKernel(DecorationSpace.discrete(range(3)), np.array([1, 2, 3]) / 6, e)


# (cloud, members, sha256 of its canonical JSON), pinned from the
# one-quotient-per-member implementation
CLOUD_DOCS = [
    (lambda: quotient_cloud(RUNNING, 2, mode="enumerate", cells=4), 6,
     "9df6128c3631b35cb43bc6fe95ed2f2a2e8a1d22047addeb3a388f3e2f6b1c5d"),
    (lambda: quotient_cloud(three_part_kernel(), 2, mode="sample", cells=6, count=8, seed=3),
     20, "15dcffe73c3f2ae42444d5ddc4bf5bc6ec23f700e27bee3da413c2b0c519a837"),
    (lambda: quotient_cloud(three_part_kernel(), 3, mode="alpha_grid", cells=6, count=9, seed=1),
     8, "412fbee471bcb468feb2495b54cc185d20a23a266f781627c91fca535be7d7dc"),
    (lambda: quotient_cloud(three_part_kernel(), 2, mode="enumerate", cells=6, alpha=[1 / 3, 2 / 3]),
     5, "dea1d69a8380ba7c9de19653cc2eb0865ba34976637036ef09c0251ffc12c087"),
]


class TestRoundTrips:
    def test_space(self):
        doc = jsonio.space_to_json(RUNNING.space)
        back = jsonio.space_from_json(doc)
        assert back.same_as(RUNNING.space)

    def test_measure(self):
        doc = {"space": jsonio.space_to_json(RUNNING.space), "weights": [0.3, 0.7]}
        mu = jsonio.measure_from_json(doc)
        assert np.allclose(mu.weights, [0.3, 0.7])

    def test_measure_by_registry_id(self):
        registry = {"two": jsonio.space_to_json(RUNNING.space)}
        mu = jsonio.measure_from_json({"space": "two", "weights": [1.0, 0.0]}, registry)
        assert mu.space.same_as(RUNNING.space)

    def test_family(self):
        doc = {"space": jsonio.space_to_json(RUNNING.space), "functions": [[1, 1], [0, 1]]}
        fam = jsonio.family_from_json(doc)
        assert len(fam) == 2

    def test_kernel(self):
        back = jsonio.kernel_from_json(jsonio.kernel_to_json(RUNNING))
        assert back.approx_eq(RUNNING)

    def test_graph(self):
        from stepkernels import CbGraph

        g = CbGraph.from_edges(RUNNING.space, 3, [(0, 1, [0.5, 1.0])], alpha=[0.2, 0.3, 0.5])
        back = jsonio.cb_graph_from_json(jsonio.cb_graph_to_json(g))
        assert np.allclose(back.beta, g.beta)
        assert np.allclose(back.alpha, g.alpha)

    def test_cloud(self):
        cloud = quotient_cloud(RUNNING, 2, mode="enumerate", cells=4)
        back = jsonio.cloud_from_json(jsonio.cloud_to_json(cloud))
        assert len(back) == len(cloud)
        assert back.provenance == cloud.provenance

    @pytest.mark.parametrize("build, members, digest", CLOUD_DOCS)
    def test_cloud_documents_pinned(self, build, members, digest):
        cloud = build()
        doc = jsonio.cloud_to_json(cloud)
        text = jsonio.canonical_dumps(doc)
        assert len(cloud) == members
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert doc["quotients"] == [q.to_jsonable() for q in cloud.quotients]
        back = jsonio.cloud_from_json(doc)
        assert jsonio.canonical_dumps(jsonio.cloud_to_json(back)) == text


class TestDiagnostics:
    def test_missing_key_names_path(self):
        with pytest.raises(jsonio.SchemaError, match="kernel: missing required key 'space'"):
            jsonio.kernel_from_json({"part_sizes": [1.0]})

    def test_bad_weights_shape(self):
        doc = {"space": jsonio.space_to_json(RUNNING.space), "weights": [1.0]}
        with pytest.raises(jsonio.SchemaError, match="weights"):
            jsonio.measure_from_json(doc)

    def test_cloud_member_with_wrong_cell_count(self):
        doc = jsonio.cloud_to_json(quotient_cloud(RUNNING, 2, mode="enumerate", cells=4))
        doc["k"] = 3
        with pytest.raises(jsonio.SchemaError, match="cloud: cloud member has 2 cells"):
            jsonio.cloud_from_json(doc)

    def test_bad_graph_entry(self):
        doc = {
            "space": jsonio.space_to_json(RUNNING.space),
            "k": 2,
            "beta": [[0, 5, [0.0, 1.0]]],
        }
        with pytest.raises(jsonio.SchemaError, match="out of range"):
            jsonio.cb_graph_from_json(doc)

    def test_canonical_output_sorted_and_stable(self):
        a = jsonio.canonical_dumps({"b": 1, "a": np.float64(2.5)})
        b = jsonio.canonical_dumps({"a": 2.5, "b": 1})
        assert a == b
        assert a.index('"a"') < a.index('"b"')
