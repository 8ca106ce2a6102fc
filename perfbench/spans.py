"""Span tracer for the traced benchmark run.

Modules of graphnodal import each other's functions by name, so a function
is wrapped at every lookup site: each graphnodal module namespace that
binds it (for example both graphnodal.nodal.connected_components and
graphnodal.experiments.connected_components), and the closure cells in
which cli keeps its experiment runners.  numpy.linalg.eigh, which
spectral looks up at call time, is wrapped as "spectral.eigh".  Spans
(op, id, name, parent, start, end) are kept in memory on per-thread stacks;
trials that run on the experiment thread pool get the pool call's span as
parent.

Only layer entry points and the functions the per-layer metrics name are
wrapped.  The bounds internals are not: one constants op makes about 164k
calls each of feasibility, tail_constants and c_constant, and spans there
would swamp what they measure.

A trial's busy time is its wall time on its pool thread, waits for the
interpreter lock included, so a parallel efficiency near 1 says the pool
kept its threads occupied, not that they computed in parallel.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

import numpy

LAYERS = ("graph_core", "spectral", "nodal", "bounds", "experiments", "cli")

TRACED = {
    "graph_core": ("sample_gnp", "sample_regular", "adjacency_matrix", "laplacian_matrix",
                   "read_graph", "write_graph", "connected_components"),
    "spectral": ("eigendecompose", "write_spectrum_csv"),
    "nodal": ("nodal_summary", "weak_nodal_domains", "strong_nodal_domains",
              "write_domains_csv", "summary_dict"),
    "bounds": ("exceptional_bound_k", "kp_formula"),
    "experiments": ("run_fig1", "run_fig2", "run_gnp_scan", "write_report_csv",
                    "write_report_json", "_run_trials"),
    "cli": ("main",),
}


class Tracer:
    """Per op: bump op, install(), run the op, uninstall(); spans accumulate."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int | None, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.patched: list[tuple[object, str, object]] = []

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.op, sid, name, parent, start, end))

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_csv_writer(self, name, fn):
        @functools.wraps(fn)
        def traced(spectrum, stream):
            before = stream.tell()
            self._call(name, fn, (spectrum, stream), {})
            self.counts[name + ".bytes"] += stream.tell() - before
        return traced

    def _wrap_run_trials(self, name, fn):
        # busy time is the sum of trial spans; capacity is the pool call's
        # wall time times its thread count
        @functools.wraps(fn)
        def traced(worker, count, threads):
            def pooled():
                parent = self._local.stack[-1]
                def trial(i):
                    return self._call("experiments.trial", worker, (i,), {}, parent)
                return fn(trial, count, threads)
            start = time.perf_counter()
            try:
                return self._call(name, pooled, (), {})
            finally:
                self.counts["experiments.capacity_s"] += (time.perf_counter() - start) * threads
        return traced

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("graphnodal")
        namespaces = [package] + [importlib.import_module(f"graphnodal.{m}") for m in LAYERS]
        special = {"_run_trials": self._wrap_run_trials,
                   "write_spectrum_csv": self._wrap_csv_writer}
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"graphnodal.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrap = special.get(fname, self._wrap)
                wrappers[id(original)] = (original, wrap(f"{layer}.{fname}", original))
        # cli binds each experiment runner in a closure made by
        # _experiment_runner, so those closure cells are lookup sites too
        cli = importlib.import_module("graphnodal.cli")
        cells = [cell for command in cli._COMMANDS.values()
                 for cell in command["run"].__closure__ or ()]
        sites = [(ns, attr) for ns in namespaces for attr in list(vars(ns))]
        sites += [(cell, "cell_contents") for cell in cells]
        for ns, attr in sites:
            value = getattr(ns, attr)
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                self.patched.append((ns, attr, value))
                setattr(ns, attr, hit[1])
        original_eigh = numpy.linalg.eigh
        self.patched.append((numpy.linalg, "eigh", original_eigh))
        numpy.linalg.eigh = self._wrap("spectral.eigh", original_eigh)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self.patched):
            setattr(ns, attr, original)
        self.patched.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for _, sid, _, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for _, sid, _, _, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"s": summed duration, "self_s": summed self time, "calls": count}."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for _, sid, name, _, start, end in spans:
        t = totals[name]
        t["s"] += end - start
        t["self_s"] += own[sid]
        t["calls"] += 1
    return dict(totals)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op means of the per-layer metrics over `ops` traced ops."""
    totals = span_totals(tracer.spans)

    def total(pattern: str, key: str) -> float:
        # a trailing "*" sums every span whose name starts with the rest
        if pattern.endswith("*"):
            return sum(t[key] for name, t in totals.items() if name.startswith(pattern[:-1]))
        return totals[pattern][key] if pattern in totals else 0

    metrics = {f"{name}.s": total(name, "s") for name in (
        "graph_core.sample_gnp", "graph_core.sample_regular", "graph_core.adjacency_matrix",
        "graph_core.laplacian_matrix", "graph_core.read_graph", "graph_core.write_graph",
        "graph_core.connected_components", "spectral.eigendecompose", "spectral.eigh",
        "spectral.write_spectrum_csv", "bounds.exceptional_bound_k")}
    metrics.update({f"{name}.calls": total(name, "calls") for name in (
        "graph_core.sample_gnp", "graph_core.connected_components", "nodal.nodal_summary",
        "nodal.weak_nodal_domains", "nodal.strong_nodal_domains",
        "bounds.exceptional_bound_k")})
    metrics.update({f"{name}.self_s": total(name, "self_s") for name in (
        "nodal.nodal_summary", "nodal.weak_nodal_domains", "nodal.strong_nodal_domains",
        "spectral.eigendecompose", "cli.main")})
    metrics["experiments.run.s"] = total("experiments.run_*", "s")
    metrics["experiments.run.self_s"] = total("experiments.run_*", "self_s")
    metrics["experiments.write_report.s"] = total("experiments.write_report_*", "s")
    metrics["experiments.busy_s"] = total("experiments.trial", "s")
    for name in ("spectral.write_spectrum_csv.bytes", "cli.output_bytes"):
        metrics[name] = tracer.counts[name]
    per_op = {k: v / ops for k, v in metrics.items()}
    capacity = tracer.counts["experiments.capacity_s"]
    per_op["experiments.parallel_efficiency"] = (
        metrics["experiments.busy_s"] / capacity if capacity else 0.0)
    return per_op
