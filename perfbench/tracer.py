"""Outside-in span recorder for the stepkernels modules.

The recorder replaces every binding of each public module-level function of
the package with a timing wrapper: the defining module, every module that
imported the name (``from .measures import lp_distance_batch`` copies the
function into ``metrics`` and ``quotients``) and the package namespace.  The
package itself is not edited.  Spans are kept in memory as
``(name_id, start, end, parent)`` tuples and written out at the end; self time
is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "measures",
    "kernels",
    "metrics",
    "search",
    "overlay",
    "quotients",
    "sampling",
    "verify",
    "cli",
    "jsonio",
)


class Recorder:
    """Span and counter store, plus the patch table that feeds it."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names: list[str] = []
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.spaces: dict[int, object] = {}  # held, so that ids stay distinct
        self._stack: list[int] = []
        self._patches = self._build_patches()

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    # -- counters attached to particular functions ------------------------------

    def _hooks(self, name: str):
        """(before, after) callbacks that count the work of one function."""
        counts = self.counts
        if name == "measures.lp_distance_batch":
            def before(args, kwargs):
                space = args[0] if args else kwargs["space"]
                mus = args[1] if len(args) > 1 else kwargs["mus"]
                counts[name + ".pairs"] += len(mus)
                # every pair scans every subset at every distance threshold
                counts[name + ".subset_evals"] += (
                    len(mus) * (1 << space.size) * len(space.thresholds()))
                self.spaces.setdefault(id(space), space)
                return args, kwargs
            return before, None
        if name == "search.anneal_permutation":
            def before(args, kwargs):
                if len(args) > 1:
                    args = (args[0], self._counted_energy(args[1])) + tuple(args[2:])
                else:
                    kwargs = dict(kwargs, energy_fn=self._counted_energy(kwargs["energy_fn"]))
                return args, kwargs
            return before, None
        if name in ("overlay.overlay_graph", "search.qap_optimize", "metrics.delta_cut"):
            def after(result, args, kwargs):
                counts[name + ".inexact"] += 0 if result.exact else 1
            return None, after
        if name == "quotients.quotient_cloud":
            def after(result, args, kwargs):
                counts[name + ".members"] += len(result)
            return None, after
        if name == "quotients.hausdorff":
            def after(result, args, kwargs):
                a = args[0] if args else kwargs["a"]
                b = args[1] if len(args) > 1 else kwargs["b"]
                counts[name + ".member_pairs"] += len(a) * len(b)
            return None, after
        if name == "verify.check":
            def after(result, args, kwargs):
                counts[name + ".instances"] += result.instances
            return None, after
        return None, None

    def _counted_energy(self, fn):
        key = "search.anneal_permutation"
        counts = self.counts

        def energy(perm):
            t0 = time.perf_counter()
            try:
                return fn(perm)
            finally:
                counts[key + ".energy_evals"] += 1
                counts[key + ".energy_s"] += time.perf_counter() - t0

        return energy

    # -- patch table ---------------------------------------------------------------

    def _build_patches(self):
        """(namespace, attribute, original, wrapper) for every binding of every
        public function, plus scipy's ``linprog`` as bound in ``overlay``."""
        wrappers = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                # every check_* function of verify is one span name
                name = "verify.check" if short == "verify" and attr.startswith("check_") \
                    else f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, *self._hooks(name)))
        lp = self.package.overlay.linprog
        wrappers[id(lp)] = (lp, self._wrap("overlay.linprog", lp))
        bindings = []
        for ns in [self.package] + self.modules:
            for attr, obj in vars(ns).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    bindings.append((ns, attr) + entry)
        return bindings

    @contextmanager
    def installed(self):
        """Swap every binding to its wrapper for the duration of the block."""
        for ns, attr, _, wrapped in self._patches:
            setattr(ns, attr, wrapped)
        try:
            yield self
        finally:
            for ns, attr, orig, _ in self._patches:
                setattr(ns, attr, orig)

    def binding_count(self) -> int:
        return len(self._patches)

    # -- summaries -------------------------------------------------------------------

    def summarize(self) -> dict:
        """Per span name: calls, total and self seconds; plus root span seconds."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        root_s = 0.0
        for i, (nid, t0, t1, parent) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            if parent < 0:
                root_s += t1 - t0
        return {"calls": calls, "total_s": total, "self_s": own, "root_s": root_s}

    def dump(self, path, meta: dict) -> None:
        """Write spans as compact rows: [name_id, start, end, parent]."""
        doc = {
            "meta": meta,
            "names": self.names,
            "counts": dict(self.counts),
            "spans": [[n, round(a, 7), round(b, 7), p] for n, a, b, p in self.spans],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
