"""Command-line interface: distances, overlays, quotients, sampling, verify.

All randomness is controlled by ``--seed``; identical commands with the same
seed produce byte-identical artifacts.  Every heuristic-tier number carries
``"exact": false``.  Output JSON is UTF-8 with sorted keys; CSV is RFC 4180.
No network access and no environment configuration besides NO_COLOR (colour
is never emitted anyway).
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, jsonio
from .kernels import cb_graph_to_kernel
from .metrics import cut_norm_real_search, delta_2f, delta_cut
from .overlay import f_overlay, f_overlay_truncated, overlay_graph, overlay_kernel
from .quotients import hausdorff, quotient_cloud
from .sampling import convergence_run, empirical_kernel, sample_graph
from .search import SearchBudget
from .verify import report_lines, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(
        restarts=args.budget_restarts,
        steps=args.budget_steps,
        seed=args.seed,
    )


def _provenance(args, command: str, inputs: list[str]) -> dict:
    return {
        "version": __version__,
        "command": command,
        "seed": args.seed,
        "inputs": {str(p): jsonio.file_sha256(p) for p in inputs},
    }


def _emit(args, doc) -> None:
    text = jsonio.canonical_dumps(doc)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _registry(args) -> dict | None:
    if getattr(args, "spaces", None):
        return jsonio.load_document(args.spaces).get("spaces", {})
    return None


def _load_kernel(path, registry):
    return jsonio.kernel_from_json(jsonio.load_document(path), registry, where=str(path))


def _load_family(path, registry):
    return jsonio.family_from_json(jsonio.load_document(path), registry, where=str(path))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_dist(args) -> int:
    registry = _registry(args)
    a = _load_kernel(args.first, registry)
    b = _load_kernel(args.second, registry)
    fam = _load_family(args.family, registry) if args.family else None
    if args.metric in ("cutf", "delta-f", "delta2f") and fam is None:
        print("error: --family is required for family-based metrics", file=sys.stderr)
        return EXIT_USAGE
    budget = _budget_from_args(args)
    if args.metric in ("delta-lp", "delta-f"):
        res = delta_cut(
            a, b, metric="lp" if args.metric == "delta-lp" else "f",
            fam=fam, budget=budget, cells=args.cells,
        )
        payload = res.to_jsonable()
    elif args.metric == "delta2f":
        res = delta_2f(a, b, fam, budget=budget, cells=args.cells)
        payload = res.to_jsonable()
    else:
        from .metrics import cut_dist_search

        res = cut_dist_search(
            a, b, metric="lp" if args.metric == "cutlp" else "f", fam=fam, budget=budget
        )
        payload = res.to_jsonable()
    payload["provenance"] = _provenance(args, "dist", [args.first, args.second] + ([args.family] if args.family else []))
    _emit(args, payload)
    return EXIT_OK


def cmd_cutnorm(args) -> int:
    doc = jsonio.load_document(args.kernel)
    w = jsonio.real_kernel_from_json(doc, where=str(args.kernel))
    payload = cut_norm_real_search(w, _budget_from_args(args)).to_jsonable()
    payload["provenance"] = _provenance(args, "cutnorm", [args.kernel])
    _emit(args, payload)
    return EXIT_OK


def cmd_overlay(args) -> int:
    if args.mode == "f" and not args.family:
        print("error: --family is required for --mode f", file=sys.stderr)
        return EXIT_USAGE
    registry = _registry(args)
    kernel = _load_kernel(args.kernel, registry)
    budget = _budget_from_args(args)
    inputs = [args.kernel, args.other]
    alpha = np.array(json.loads(args.alpha)) if args.alpha else None
    if args.mode == "graph":
        graph = jsonio.cb_graph_from_json(jsonio.load_document(args.other), registry, where=str(args.other))
        res = overlay_graph(kernel, graph, budget=budget, alpha=alpha, cells=args.cells)
        payload = res.to_jsonable()
    elif args.mode == "kernel":
        graph = jsonio.cb_graph_from_json(jsonio.load_document(args.other), registry, where=str(args.other))
        res = overlay_kernel(kernel, cb_graph_to_kernel(graph), budget=budget, cells=args.cells)
        payload = res.to_jsonable()
    else:
        other = _load_kernel(args.other, registry)
        fam = _load_family(args.family, registry)
        inputs.append(args.family)
        if args.truncate:
            res, bound = f_overlay_truncated(kernel, other, fam, args.truncate, budget=budget)
            payload = res.to_jsonable()
            payload["enclosure_half_width"] = bound
        else:
            res = f_overlay(kernel, other, fam, budget=budget, cells=args.cells)
            payload = res.to_jsonable()
    payload["provenance"] = _provenance(args, "overlay", inputs)
    _emit(args, payload)
    return EXIT_OK


def cmd_quotient(args) -> int:
    registry = _registry(args)
    kernel = _load_kernel(args.kernel, registry)
    alpha = np.array(json.loads(args.alpha)) if args.alpha else None
    cloud = quotient_cloud(
        kernel,
        args.k,
        mode=args.mode,
        cells=args.cells,
        count=args.count,
        seed=args.seed,
        alpha=alpha,
    )
    payload = jsonio.cloud_to_json(cloud)
    payload["provenance_cli"] = _provenance(args, "quotient", [args.kernel])
    _emit(args, payload)
    return EXIT_OK


def cmd_hausdorff(args) -> int:
    registry = _registry(args)
    a = jsonio.cloud_from_json(jsonio.load_document(args.first), registry, where=str(args.first))
    b = jsonio.cloud_from_json(jsonio.load_document(args.second), registry, where=str(args.second))
    value = hausdorff(a, b, metric=args.metric)
    payload = {
        "value": value,
        "exact": True,
        "metric": args.metric,
        "provenance": _provenance(args, "hausdorff", [args.first, args.second]),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_sample(args) -> int:
    registry = _registry(args)
    kernel = _load_kernel(args.kernel, registry)
    sample = sample_graph(kernel, args.n, seed=args.seed, symmetric=args.symmetric)
    payload = {
        "n": sample.n,
        "positions": sample.positions.tolist(),
        "labels": sample.labels.tolist(),
        "symmetric": sample.symmetric,
        "seed": sample.seed,
        "space": jsonio.space_to_json(sample.space),
        "provenance": _provenance(args, "sample", [args.kernel]),
    }
    if args.empirical_out:
        emp = empirical_kernel(sample)
        jsonio.write_canonical(args.empirical_out, jsonio.kernel_to_json(emp))
    _emit(args, payload)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = jsonio.load_document(args.config)
    registry = config.get("spaces")
    kernel = jsonio.kernel_from_json(config["kernel"], registry, where="config.kernel")
    graph = None
    if "graph" in config:
        graph = jsonio.cb_graph_from_json(config["graph"], registry, where="config.graph")
    fam = None
    if "family" in config:
        fam = jsonio.family_from_json(config["family"], registry, where="config.family")
    partner = None
    if "partner" in config:
        partner = jsonio.kernel_from_json(config["partner"], registry, where="config.partner")
    budget = SearchBudget(
        restarts=config.get("restarts", args.budget_restarts),
        steps=config.get("steps", args.budget_steps),
        seed=args.seed,
    )
    rows = convergence_run(
        kernel,
        config["n_schedule"],
        trials=config["trials"],
        seed=args.seed,
        metrics=tuple(config.get("metrics", ["delta_lp"])),
        fam=fam,
        graph=graph,
        partner=partner,
        quotient_k=config.get("quotient_k", 2),
        cloud_count=config.get("cloud_count", 40),
        symmetric=config.get("symmetric", False),
        budget=budget,
    )
    out = args.out or "experiment.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["n", "trial", "metric", "value", "exact"], lineterminator="\r\n"
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    budget = _budget_from_args(args)
    reports = []
    if args.threads > 1 and len(suites) > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            futures = [pool.submit(run_suite, s, args.seed, args.trials, budget) for s in suites]
            for fut in futures:  # preserve suite order for determinism
                reports.extend(fut.result())
    else:
        for s in suites:
            reports.extend(run_suite(s, args.seed, args.trials, budget))
    for line in report_lines(reports):
        print(line)
    failures = [r for r in reports if not r.passed]
    payload = {
        "version": __version__,
        "seed": args.seed,
        "trials": args.trials,
        "suites": suites,
        "checks": [r.to_jsonable() for r in reports],
        "failures": len(failures),
    }
    if args.out:
        Path(args.out).write_text(jsonio.canonical_dumps(payload), encoding="utf-8")
    if failures:
        for r in failures:
            if r.reproducer is not None:
                print("reproducer:", json.dumps(r.reproducer, sort_keys=True), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_fixtures(args) -> int:
    root = importlib.resources.files("stepkernels") / "fixtures"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    if args.name:
        if args.name not in names:
            print(f"error: unknown fixture {args.name!r}; available: {names}", file=sys.stderr)
            return EXIT_USAGE
        text = (root / args.name).read_text(encoding="utf-8")
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    else:
        for name in names:
            print(name)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepkernels",
        description="Distances, overlay functionals and quotient sets for "
        "measure-valued step kernels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget-restarts", type=int, default=6)
        p.add_argument("--budget-steps", type=int, default=2000)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--spaces", type=str, default=None,
                       help="JSON file with a {'spaces': {id: space}} registry")

    p = sub.add_parser("dist", help="distance between two step kernels")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--metric", required=True,
                   choices=["cutlp", "cutf", "delta-lp", "delta-f", "delta2f"])
    p.add_argument("--family", type=str, default=None)
    p.add_argument("--cells", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("cutnorm", help="real cut norm of a real step kernel")
    p.add_argument("kernel")
    common(p)
    p.set_defaults(func=cmd_cutnorm)

    p = sub.add_parser("overlay", help="overlay functional")
    p.add_argument("kernel")
    p.add_argument("other", help="decorated graph (graph/kernel mode) or step kernel (f mode)")
    p.add_argument("--mode", required=True, choices=["graph", "kernel", "f"])
    p.add_argument("--family", type=str, default=None)
    p.add_argument("--alpha", type=str, default=None, help="JSON list of cell masses")
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--truncate", type=int, default=None)
    common(p)
    p.set_defaults(func=cmd_overlay)

    p = sub.add_parser("quotient", help="emit a quotient cloud")
    p.add_argument("kernel")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="enumerate", choices=["enumerate", "sample", "alpha_grid"])
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--count", type=int, default=64)
    p.add_argument("--alpha", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two clouds")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--metric", default="dsquare", choices=["d1", "dsquare"])
    common(p)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("sample", help="sample a decorated graph")
    p.add_argument("kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--empirical-out", type=str, default=None)
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("experiment", help="convergence experiment from a JSON config")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run registered property suites")
    p.add_argument("--suite", default="all",
                   help="comma list of suites, or 'all'/'none' "
                        "(measures, cutnorm, delta, overlay, quotients, theorem)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--threads", type=int, default=1,
                   help="run suites in this many threads; the report is unchanged")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fixtures", help="list or print shipped fixture files")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except jsonio.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
