"""CLI surface: schemas, subcommands, determinism, diagnostics."""

import json

import numpy as np
import pytest

from stepkernels import RealStepKernel, from_real_graphon, uniform_refine
from stepkernels import jsonio
from stepkernels.cli import main

RUNNING = from_real_graphon(RealStepKernel([0.5, 0.5], [[0.2, 0.8], [0.8, 0.2]]))


@pytest.fixture
def workdir(tmp_path):
    jsonio.write_canonical(tmp_path / "kernel.json", jsonio.kernel_to_json(RUNNING))
    jsonio.write_canonical(
        tmp_path / "refined.json", jsonio.kernel_to_json(uniform_refine(RUNNING, 4))
    )
    fam = {"space": jsonio.space_to_json(RUNNING.space), "functions": [[1, 1], [0, 1]]}
    jsonio.write_canonical(tmp_path / "family.json", fam)
    graph = {
        "space": jsonio.space_to_json(RUNNING.space),
        "k": 2,
        "beta": [[0, 1, [0.0, 1.0]], [1, 0, [0.0, 1.0]]],
    }
    jsonio.write_canonical(tmp_path / "graph.json", graph)
    return tmp_path


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestDist:
    def test_delta_lp_weakly_isomorphic(self, workdir):
        out = workdir / "out.json"
        code = main([
            "dist", str(workdir / "kernel.json"), str(workdir / "refined.json"),
            "--metric", "delta-lp", "--out", str(out),
        ])
        assert code == 0
        doc = read(out)
        assert doc["value"] == 0.0 and doc["exact"] is True
        assert "provenance" in doc and len(doc["provenance"]["inputs"]) == 2

    @pytest.mark.parametrize("metric", ["delta-f", "delta2f", "cutf"])
    def test_delta_f_needs_family(self, workdir, capsys, metric):
        code = main([
            "dist", str(workdir / "kernel.json"), str(workdir / "refined.json"),
            "--metric", metric,
        ])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_delta_f_with_family(self, workdir):
        out = workdir / "out.json"
        code = main([
            "dist", str(workdir / "kernel.json"), str(workdir / "refined.json"),
            "--metric", "delta-f", "--family", str(workdir / "family.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert read(out)["value"] == 0.0

    def test_cut_metric(self, workdir):
        out = workdir / "out.json"
        code = main([
            "dist", str(workdir / "kernel.json"), str(workdir / "kernel.json"),
            "--metric", "cutlp", "--out", str(out),
        ])
        assert code == 0
        doc = read(out)
        assert doc["value"] == 0.0 and doc["exact"] is True


class TestCutnorm:
    def test_real_kernel(self, workdir):
        jsonio.write_canonical(
            workdir / "real.json",
            {"part_sizes": [0.5, 0.5], "values": [[1.0, -1.0], [-1.0, 1.0]]},
        )
        out = workdir / "out.json"
        assert main(["cutnorm", str(workdir / "real.json"), "--out", str(out)]) == 0
        doc = read(out)
        assert doc["value"] == pytest.approx(0.25) and doc["exact"] is True


class TestOverlay:
    def test_graph_mode_matches_expected_fixture(self, workdir):
        from importlib.resources import files

        expected = json.loads(
            (files("stepkernels") / "fixtures" / "running_overlay_expected.json").read_text()
        )
        out = workdir / "out.json"
        code = main([
            "overlay", str(workdir / "kernel.json"), str(workdir / "graph.json"),
            "--mode", "graph", "--cells", str(expected["cells"]), "--out", str(out),
        ])
        assert code == 0
        doc = read(out)
        assert doc["exact"] is True
        assert doc["value"] == pytest.approx(expected["value"], abs=1e-12)

    def test_kernel_mode_identity(self, workdir):
        out1, out2 = workdir / "o1.json", workdir / "o2.json"
        main(["overlay", str(workdir / "kernel.json"), str(workdir / "graph.json"),
              "--mode", "graph", "--cells", "8", "--out", str(out1)])
        main(["overlay", str(workdir / "kernel.json"), str(workdir / "graph.json"),
              "--mode", "kernel", "--cells", "8", "--out", str(out2)])
        assert read(out1)["value"] == pytest.approx(read(out2)["value"], abs=1e-9)

    def test_f_mode_truncated_reports_enclosure(self, workdir):
        out = workdir / "out.json"
        code = main([
            "overlay", str(workdir / "kernel.json"), str(workdir / "refined.json"),
            "--mode", "f", "--family", str(workdir / "family.json"),
            "--truncate", "2", "--out", str(out),
        ])
        assert code == 0
        doc = read(out)
        assert doc["enclosure_half_width"] == pytest.approx(0.5)

    def test_f_mode_needs_family(self, workdir, capsys):
        code = main([
            "overlay", str(workdir / "kernel.json"), str(workdir / "refined.json"), "--mode", "f",
        ])
        assert code == 2
        assert "error: --family is required" in capsys.readouterr().err


class TestQuotientHausdorff:
    def test_cloud_roundtrip_and_self_distance(self, workdir):
        c1 = workdir / "c1.json"
        code = main([
            "quotient", str(workdir / "kernel.json"), "--k", "2",
            "--mode", "enumerate", "--cells", "4", "--out", str(c1),
        ])
        assert code == 0
        doc = read(c1)
        assert doc["k"] == 2 and len(doc["quotients"]) >= 1
        out = workdir / "h.json"
        assert main(["hausdorff", str(c1), str(c1), "--metric", "dsquare", "--out", str(out)]) == 0
        assert read(out)["value"] == 0.0

    def test_cloud_alpha_filter(self, workdir):
        c1 = workdir / "c1.json"
        main([
            "quotient", str(workdir / "kernel.json"), "--k", "2",
            "--mode", "enumerate", "--cells", "4", "--alpha", "[0.5, 0.5]",
            "--out", str(c1),
        ])
        for q in read(c1)["quotients"]:
            assert q["alpha"] == [0.5, 0.5]


class TestSample:
    def test_sample_and_empirical(self, workdir):
        out = workdir / "s.json"
        emp = workdir / "emp.json"
        code = main([
            "sample", str(workdir / "kernel.json"), "--n", "6", "--seed", "4",
            "--out", str(out), "--empirical-out", str(emp),
        ])
        assert code == 0
        doc = read(out)
        assert len(doc["positions"]) == 6
        kernel = jsonio.kernel_from_json(read(emp))
        assert kernel.kind == "probability" and kernel.n_parts == 6

    def test_symmetric_flag(self, workdir):
        out = workdir / "s.json"
        main(["sample", str(workdir / "kernel.json"), "--n", "5", "--seed", "4",
              "--symmetric", "--out", str(out)])
        labels = np.array(read(out)["labels"])
        assert np.array_equal(labels, labels.T)


class TestExperiment:
    def test_experiment_csv(self, workdir):
        config = {
            "kernel": jsonio.kernel_to_json(RUNNING),
            "n_schedule": [2, 4],
            "trials": 2,
            "metrics": ["delta_lp"],
        }
        jsonio.write_canonical(workdir / "config.json", config)
        out = workdir / "report.csv"
        code = main(["experiment", "--config", str(workdir / "config.json"),
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        raw = out.read_bytes()
        assert raw.count(b"\r\n") == 5  # RFC 4180 line endings
        text = raw.decode("utf-8")
        assert text.splitlines()[0] == "n,trial,metric,value,exact"
        assert len(text.strip().splitlines()) == 5

    def test_experiment_deterministic(self, workdir):
        config = {
            "kernel": jsonio.kernel_to_json(RUNNING),
            "n_schedule": [2, 4],
            "trials": 2,
            "metrics": ["delta_lp"],
        }
        jsonio.write_canonical(workdir / "config.json", config)
        a, b = workdir / "a.csv", workdir / "b.csv"
        main(["experiment", "--config", str(workdir / "config.json"), "--seed", "3", "--out", str(a)])
        main(["experiment", "--config", str(workdir / "config.json"), "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_none_suite_empty_report(self, workdir):
        out = workdir / "v.json"
        code = main(["verify", "--suite", "none", "--out", str(out)])
        assert code == 0
        assert read(out)["checks"] == []

    def test_measures_suite_passes(self, workdir):
        out = workdir / "v.json"
        code = main(["verify", "--suite", "measures", "--trials", "15",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        doc = read(out)
        assert doc["failures"] == 0
        assert all(c["passed"] for c in doc["checks"])

    def test_byte_identical_reports(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        main(["verify", "--suite", "cutnorm", "--trials", "10", "--seed", "8", "--out", str(a)])
        main(["verify", "--suite", "cutnorm", "--trials", "10", "--seed", "8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threads_do_not_change_result(self, workdir):
        a, b = workdir / "a.json", workdir / "b.json"
        main(["verify", "--suite", "measures,cutnorm", "--trials", "10",
              "--seed", "8", "--out", str(a)])
        main(["verify", "--suite", "measures,cutnorm", "--trials", "10",
              "--seed", "8", "--threads", "4", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestDiagnostics:
    def test_malformed_json_points_at_file(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["dist", str(bad), str(workdir / "kernel.json"), "--metric", "delta-lp"])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_schema_error_names_missing_key(self, workdir, capsys):
        incomplete = workdir / "inc.json"
        jsonio.write_canonical(incomplete, {"space": jsonio.space_to_json(RUNNING.space)})
        code = main(["dist", str(incomplete), str(workdir / "kernel.json"), "--metric", "delta-lp"])
        assert code == 2
        assert "part_sizes" in capsys.readouterr().err

    def test_space_registry(self, workdir):
        registry = {"spaces": {"two": jsonio.space_to_json(RUNNING.space)}}
        jsonio.write_canonical(workdir / "spaces.json", registry)
        doc = jsonio.kernel_to_json(RUNNING)
        doc["space"] = "two"
        jsonio.write_canonical(workdir / "byref.json", doc)
        out = workdir / "out.json"
        code = main([
            "dist", str(workdir / "byref.json"), str(workdir / "kernel.json"),
            "--metric", "delta-lp", "--spaces", str(workdir / "spaces.json"),
            "--out", str(out),
        ])
        assert code == 0
        assert read(out)["value"] == 0.0

    def test_unknown_space_id(self, workdir, capsys):
        doc = jsonio.kernel_to_json(RUNNING)
        doc["space"] = "mystery"
        jsonio.write_canonical(workdir / "byref.json", doc)
        code = main(["dist", str(workdir / "byref.json"), str(workdir / "kernel.json"),
                     "--metric", "delta-lp"])
        assert code == 2
        assert "mystery" in capsys.readouterr().err


class TestFixtures:
    def test_list_and_print(self, workdir, capsys):
        assert main(["fixtures"]) == 0
        names = capsys.readouterr().out.split()
        assert "running_kernel.json" in names
        out = workdir / "rk.json"
        assert main(["fixtures", "running_kernel.json", "--out", str(out)]) == 0
        kernel = jsonio.kernel_from_json(read(out))
        assert kernel.kind == "probability"

    def test_unknown_fixture(self, capsys):
        assert main(["fixtures", "nope.json"]) == 2
        assert "unknown fixture" in capsys.readouterr().err
