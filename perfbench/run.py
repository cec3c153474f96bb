"""Benchmark of the stepkernels toolkit: one closed-loop client per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 30 --trace 0

The client waits for each instance before it issues the next, for
``--seconds`` of wall time, then checks every output outside the timed region.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
installs the outside-in span recorder (``tracer.py``) and reports per-layer
metrics instead.  ``--workload all`` runs every workload, each in its own
process.  The last line of standard output is one JSON object; the lines
before it repeat every metric by name and unit, with the machine block.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
WORKLOAD_NAMES = ("theorem", "unlabeled", "wide")
DEFAULT_SEED = 0
SETUP_PROBES = 2  # child processes that repeat import plus input generation
OVERHEAD_SHARE = 0.2  # of --seconds, spent replaying instances traced and untraced
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    """Import stepkernels from this checkout's src/, never from elsewhere."""
    if not (SRC / "stepkernels" / "__init__.py").is_file():
        _fail(f"no package source at {SRC / 'stepkernels'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import stepkernels
    import stepkernels.cli  # loads verify and jsonio as well

    origin = Path(stepkernels.__file__).resolve()
    if SRC not in origin.parents:
        _fail(f"stepkernels imported from {origin}, not from {SRC}")
    return stepkernels


def _set_up(workload_name: str, seed: int):
    """Import the package and build the workload inputs; return both and the time."""
    t0 = time.perf_counter()
    sk = _import_package()
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    workload.setup(sk, seed)
    return sk, workload, time.perf_counter() - t0


def _probe_setup(workload_name: str, seed: int) -> list[float]:
    """Repeat the set-up in fresh processes; each prints its own seconds."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# machine block
# ---------------------------------------------------------------------------

def _blas_threads() -> str:
    """OpenBLAS thread count as numpy's bundled library reports it."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_block() -> dict:
    import numpy as np
    import scipy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "stepkernels").glob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "conditions": "shared machine; no cache drops, no CPU pinning; "
                      "OpenBLAS limited to one thread by the benchmark",
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    index: int
    ops: object  # workloads.Ops
    start: float
    end: float
    error: str | None

    @property
    def latency(self) -> float:
        return self.end - self.start


def run_one(workload, index: int) -> Instance:
    from workloads import Ops

    ops = Ops()
    error = None
    t0 = time.perf_counter()
    try:
        workload.run(ops, index)
    except Exception:  # a failed operation is counted, and the loop goes on
        error = traceback.format_exc()
    t1 = time.perf_counter()
    if error is not None:
        print(f"instance {index} raised:\n{error}", file=sys.stderr)
    return Instance(index, ops, t0, t1, error)


def closed_loop(workload, seconds: float) -> tuple[list[Instance], float]:
    """Issue instance after instance until ``seconds`` of wall time have passed."""
    done = []
    t0 = time.perf_counter()
    deadline = t0 + seconds
    index = 0
    while True:
        done.append(run_one(workload, index))
        index += 1
        now = time.perf_counter()
        if now >= deadline:
            return done, now - t0


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def check_outputs(workload, done: list[Instance]):
    """Run the workload's output checks; a check that raises counts as failed."""
    from workloads import Checker

    chk = Checker()
    ok = [(inst.index, inst.ops) for inst in done if inst.error is None]
    stored = load_reference(workload) if workload.seed == DEFAULT_SEED else {}
    for index, ops in ok:
        try:
            if str(index) in stored:
                compare_reference(workload, index, ops, stored[str(index)], chk)
            workload.check_one(index, ops, chk)
        except Exception:
            chk.expect(False, index, "check", traceback.format_exc())
    if hasattr(workload, "check_all"):
        try:
            workload.check_all(ok, chk)
        except Exception:
            chk.expect(False, -1, "check_all", traceback.format_exc())
    return chk


def load_reference(workload) -> dict:
    path = REFERENCE_DIR / f"{workload.name}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["instances"]


def compare_reference(workload, index, ops, want: dict, chk) -> None:
    """Exact-tier values against those stored for the default seed."""
    got = json.loads(json.dumps(workload.reference_values(index, ops)))
    for key, value in want.items():
        chk.expect(_close(got.get(key), value), index, key,
                   f"reference {value!r}, got {got.get(key)!r}")


def _close(a, b) -> bool:
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(b, (int, float)) and isinstance(a, (int, float)):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))
    return a == b


def count_ops(done: list[Instance], chk) -> tuple[int, int, int]:
    """Attempted, failed and inexact operations.

    An instance that raised counts the raising call as attempted and failed;
    each (instance, operation) with a failed check counts once.
    """
    raised = sum(1 for inst in done if inst.error is not None)
    attempted = sum(len(inst.ops.rows) for inst in done) + raised
    inexact = sum(inst.ops.inexact() for inst in done)
    return attempted, raised + len(chk.failed), inexact


def correct_flags(done: list[Instance], chk) -> list[bool]:
    bad = {index for index, _ in chk.failed}
    return [inst.error is None and inst.index not in bad for inst in done]


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"{name} = {m['value']:.6g} {m['unit']}{'  ' + note if note else ''}")


def round_rates(done: list[Instance], ok: list[bool], size: int) -> list[float]:
    """Correct instances per second of each complete round of ``size`` instances."""
    return [sum(ok[r:r + size]) / (done[r + size - 1].end - done[r].start)
            for r in range(0, len(done) - size + 1, size)]


def end_to_end(workload, done, wall, setup_samples, rss_mb, chk) -> tuple[dict, dict]:
    latencies_ms = [inst.latency * 1e3 for inst in done]
    attempted, failed, inexact = count_ops(done, chk)
    ok = correct_flags(done, chk)
    correct = sum(ok)
    rates = round_rates(done, ok, workload.round_size) or [correct / wall]
    pct, tail = tail_percentile(latencies_ms)
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "instances_per_s": metric(statistics.median(rates), "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies_ms), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "exact_share": metric((attempted - inexact) / attempted, "share"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_samples),
        "instances_per_s": f"median over {len(rates)} rounds of {workload.round_size}; "
                           f"{correct} correct instances in {wall:.3f} s overall "
                           f"({correct / wall:.4g}/s)",
        "latency_p50_ms": f"n={len(done)}",
        "latency_tail_ms": f"p{pct:.1f}, n={len(done)}, 10 instances beyond it",
        "exact_share": f"{attempted - inexact} of {attempted} operations exact "
                       f"(inexact_share {inexact / attempted:.4f})",
    }
    return metrics, notes


# per-layer metric names: (span name, stat); counts and seconds are per instance
LAYER_STATS = (
    ("measures.lp_distance_batch", ("calls", "pairs", "subset_evals", "self_s", "distinct_spaces")),
    ("measures.lp_distance_estimate", ("calls", "self_s")),
    ("overlay.linprog", ("calls", "total_s")),
    ("overlay.overlay_graph", ("calls", "self_s", "inexact")),
    ("quotients.quotient", ("calls", "self_s")),
    ("quotients.quotient_cloud", ("calls", "self_s", "members")),
    ("quotients.hausdorff", ("calls", "self_s", "member_pairs")),
    ("search.anneal_permutation", ("calls", "self_s", "energy_evals", "energy_s")),
    ("search.qap_optimize", ("calls", "self_s", "inexact")),
    ("metrics.delta_cut", ("calls", "self_s", "inexact")),
    ("metrics.cut_dist_lp", ("calls", "self_s")),
    ("metrics.cut_dist_f", ("calls", "self_s")),
    ("metrics.cut_dist_search", ("calls", "self_s")),
    ("metrics.delta_2f", ("calls", "self_s")),
    ("kernels.common_refinement", ("calls", "self_s")),
    ("kernels.uniform_refine", ("calls", "self_s")),
    ("kernels.relabel", ("calls", "self_s")),
    ("sampling.sample_graph", ("calls", "self_s")),
    ("sampling.empirical_kernel", ("calls", "self_s")),
    ("verify.check", ("calls", "self_s", "instances")),
    ("cli.main", ("total_s",)),
    ("jsonio.canonical_dumps", ("self_s",)),
)


def per_layer(rec, summary, n_instances, wall, overhead, delta_excess) -> tuple[dict, dict]:
    from tracer import LAYERS

    per = 1.0 / n_instances
    metrics = {}
    for span, stats in LAYER_STATS:
        for stat in stats:
            if stat in ("calls", "self_s", "total_s"):
                value = summary[stat].get(span, 0)
            elif stat == "distinct_spaces":
                value = len(rec.spaces)
            else:
                value = rec.counts.get(f"{span}.{stat}", 0.0)
            unit = "s/inst" if stat.endswith("_s") else "count/inst"
            metrics[f"{span}.{stat}"] = metric(value * per, unit)

    for layer in LAYERS:
        own = sum(v for k, v in summary["self_s"].items() if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = metric(own * per, "s/inst")
    metrics["trace.root_coverage"] = metric(summary["root_s"] / wall, "share")
    metrics["trace.overhead"] = metric(overhead, "share")
    metrics["trace.spans"] = metric(len(rec.spans) * per, "count/inst")
    metrics["delta_excess"] = metric(delta_excess, "dist")
    notes = {
        "trace.root_coverage": f"root spans cover {summary['root_s']:.3f} s of {wall:.3f} s",
        "trace.spans": f"{len(rec.spans)} spans over {n_instances} instances, "
                       f"{rec.binding_count()} patched bindings",
    }
    return metrics, notes


def measure_overhead(workload, rec, done: list[Instance], budget_s: float) -> tuple[float, int]:
    """Replay the last instances in pairs, traced and untraced in alternating order.

    Returns traced time over untraced time minus one, and the pair count.
    """
    traced = untraced = 0.0
    pairs = 0
    t_end = time.perf_counter() + budget_s
    for j, inst in enumerate(reversed(done)):
        if time.perf_counter() >= t_end:
            break
        for mode in ((True, False) if j % 2 == 0 else (False, True)):
            if mode:
                with rec.installed():
                    traced += run_one(workload, inst.index).latency
            else:
                untraced += run_one(workload, inst.index).latency
        pairs += 1
    return (traced / untraced - 1.0 if untraced > 0 else float("nan")), pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", type=int, default=0, metavar="N",
                        help="store exact-tier values of the first N instances "
                             "for the default seed")
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads: the client is a single closed
    # loop, and on a shared 2-CPU machine a second OpenBLAS thread spin-waits
    # whenever the other CPU is busy, which made runs up to three times slower.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _, _, seconds = _set_up(args.workload, args.seed)
        print(repr(seconds))
        return 0

    sk, workload, own_setup = _set_up(args.workload, args.seed)
    from workloads import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    if args.write_reference:
        return write_reference(workload, args)

    setup_samples = [own_setup] + _probe_setup(args.workload, args.seed)
    print("machine:", json.dumps(machine_block(), sort_keys=True))

    if args.trace:
        from tracer import Recorder

        rec = Recorder(sk)
        with rec.installed():
            done, wall = closed_loop(workload, args.seconds)
        summary = rec.summarize()
        rec.dump(OUT_DIR / f"spans-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "wall_s": wall})
        # a fresh recorder, so that the replayed spans stay out of the summary
        overhead, pairs = measure_overhead(
            workload, Recorder(sk), done, OVERHEAD_SHARE * args.seconds)
    else:
        done, wall = closed_loop(workload, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    chk = check_outputs(workload, done)
    for (index, op), message in sorted(chk.failed.items()):
        print(f"check failed: instance {index} {op}: {message}", file=sys.stderr)
    attempted, failed, _ = count_ops(done, chk)
    excess = workload.planted_excess([(i.index, i.ops) for i in done if i.error is None]) \
        if hasattr(workload, "planted_excess") else []
    delta_excess = statistics.fmean(excess) if excess else 0.0

    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}: "
          f"{len(done)} instances, {attempted} operations, {failed} failed")
    print(f"failed_ratio = {failed / attempted:.6g} share")
    if excess and not args.trace:
        print(f"delta_excess = {delta_excess:.6g} dist  mean over {len(excess)} planted annealed pairs")
    if args.trace:
        metrics, notes = per_layer(rec, summary, len(done), wall, overhead, delta_excess)
        notes["trace.overhead"] = f"traced over untraced time, {pairs} replayed pairs"
    else:
        metrics, notes = end_to_end(workload, done, wall, setup_samples, rss_mb, chk)
    print_metrics(metrics, notes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; per-workload lines, then one JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            _fail(f"workload {name} printed nothing (exit {proc.returncode})")
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def write_reference(workload, args) -> int:
    if args.seed != DEFAULT_SEED:
        _fail(f"references are stored for the default seed {DEFAULT_SEED} only")
    instances = {}
    for index in range(args.write_reference):
        inst = run_one(workload, index)
        if inst.error is not None:
            _fail(f"instance {index} raised; no reference written")
        problems = workload.brute_force(index, inst.ops) if hasattr(workload, "brute_force") else []
        if problems:
            _fail(f"instance {index}: " + "; ".join(problems))
        instances[str(index)] = workload.reference_values(index, inst.ops)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    doc = {"workload": workload.name, "seed": DEFAULT_SEED, "machine": machine_block(),
           "instances": instances}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(instances)} instances to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
