"""Benchmark smoke test: a few instances of each workload in ``perfbench/``,
run and checked as ``perfbench/run.py`` runs and checks them, at the seed
whose outputs ``perfbench/reference/`` stores."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run():
    # perfbench/ is a directory of scripts that import each other by name
    sys.path.insert(0, str(PERFBENCH))
    import run
    import workloads

    workloads.OUT_DIR.mkdir(exist_ok=True)
    yield run
    sys.path.remove(str(PERFBENCH))


# instances run per workload: two trials of theorem, one full round (None) of the others
@pytest.mark.parametrize("name, instances", [("theorem", 2), ("unlabeled", None), ("wide", None)])
def test_workload_round_runs_and_passes_its_checks(run, name, instances):
    _, workload, _ = run._set_up(name, run.DEFAULT_SEED)
    done = [run.run_one(workload, index) for index in range(instances or workload.round_size)]
    errors = [inst.error for inst in done if inst.error is not None]
    assert not errors, errors[0]
    chk = run.check_outputs(workload, done)
    assert not chk.failed, sorted(chk.failed.items())[:3]
