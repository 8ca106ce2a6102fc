"""Seeded Monte-Carlo experiments over random graph spectra.

Every experiment draws trial t of experiment "name" from the substream
(master seed, name, t), so results never depend on execution order, adding
trials never perturbs earlier ones, and reruns are reproducible bit for bit.
Each run_* states its arguments, one trial and a summary of the trials;
_experiment does the rest for all of them: the resolved config (the
runner's own arguments), a check of the arguments runners share (vertex
counts, trial and thread counts, tau, p) before the first trial, the trial
fan-out, per value of a swept list argument where there is one, and the
report.  Each runner computes what needs no sample, and refuses what it
cannot use, before it calls _experiment.  Every refusal is a
ParameterError.  Reports carry no timings, which would differ from run to
run.

Trials may run on a thread pool; aggregation folds the trial results in
trial order, so the report is identical for every thread count.  The pool
earns its place: a trial spends much of its time in eigh and other numpy
calls that release the interpreter lock, so two threads overlap.  With BLAS
pinned to one thread on a 2-vCPU Xeon, --threads 2 against --threads 1 took
0.061-0.104 s against 0.083-0.131 s for `exp-fig2 --n-list 100,300 --trials
16` (16 runs each; Lanczos' small calls hold the lock more often than
eigh), and, five runs each, 0.10-0.11 s against 0.13-0.15 s for `exp-gnp
--n 200 --trials 6` and 0.26-0.30 s against 0.34-0.38 s for `exp-fig1
--d-list 3,4 --n 300 --trials 2`.

Report serialization: CSV uses one pinned header per experiment (see the
run_* docstrings), JSON carries the resolved config, the aggregate rows,
extras, and the raw per-trial records.  All floats are written with 10
significant digits.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Any, Callable, Iterable, Sequence

import numpy as np

from ._text import BLOCK_CELLS, int_text, rounded, write_csv, write_json
from .bounds import tail_constants
from .graph_core import (
    MAX_VERTICES,
    Graph,
    ParameterError,
    _check_edge_probability,
    _check_vertex_count,
    adjacency_matrix,
    check_regular,
    laplacian_matrix,
    sample_gnp,
    sample_regular,
    sample_sym_xp_matrix,
    sample_xp_matrix,
    substream,
)
from .nodal import (
    NodalCensus,
    _zero_tolerance,
    nodal_census,
    weak_nodal_domains,
)
from .spectral import Spectrum, certified_top_vector, eigendecompose, operator_norm

__all__ = [
    "ExperimentReport",
    "run_courant_report",
    "run_fig1",
    "run_fig2",
    "run_gnp_scan",
    "run_inner_product_check",
    "run_linf_scan",
    "run_neighborhood_fact",
    "run_tail_mc",
    "write_report_csv",
    "write_report_json",
]

# run_fig2 reads its top Laplacian eigenvector off certified_top_vector from
# this many vertices up, and off eigendecompose below.  Lanczos makes many
# small numpy calls that hold the interpreter lock, where eigh makes one
# long call that releases it, so the cut follows the thread pool.  Measured
# on run_fig2 at p=1/2 (32 trials a run, alternating runs, BLAS pinned to
# one thread, 2-vCPU Xeon, OpenBLAS 0.3.31; medians of 12 runs, in two
# batches), the certified trial took, on two threads, 1.24x the eigh
# trial's time at n=60, 1.5x at 80, 0.96-1.33x at 100, 1.25x at 120, 1.01x
# at 130, 0.93-0.98x at 150, 0.83x at 170 and 0.76-0.77x at 200; on one
# thread 1.25x at n=60, 0.89x at 80 and 100 and 0.65x at 150.  Runs of
# exp-fig2 --n-list 100,300 --trials 16 on two threads took 1.08-1.12x
# their bare eigh time with the cut at 100 and 1.00-1.02x with it here
# (medians of 20 and of 30 runs).
LANCZOS_MIN_N = 150


@dataclass
class ExperimentReport:
    """One experiment's resolved config, aggregate rows, extras, and raw
    records.  rows is a list of tuples, or an array of nonnegative
    integers below 10^12 with one row per report row."""

    config: dict[str, Any]
    columns: tuple[str, ...]
    rows: list[tuple] | np.ndarray
    extras: dict[str, Any]
    raw: list | None


def _run_trials(worker: Callable[[int], Any], count: int, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(count)))
    return [worker(i) for i in range(count)]


def _experiment(
    name: str,
    args: dict[str, Any],
    columns: tuple[str, ...],
    trial: Callable[..., Any],
    summarize: Callable[..., tuple[list[tuple], dict[str, Any], list | None]],
    sweep: str | None = None,
    count: str = "trials",
) -> ExperimentReport:
    """Resolve a runner's config, fan its trials out and report them.

    args is the runner's locals(), taken before it binds any name but its
    normalized arguments: the config is {"experiment": name} plus every
    argument but threads, tuples as lists.  Before the first trial it
    refuses, with a ParameterError, what the layers below would refuse
    where present: args["n"], args["k"] or an args["n_list"] entry as a
    vertex count, args["tau"] as a zero tolerance and args["p"] as an edge
    probability; and args[count] or args["threads"] below 1.
    args[count] trials run on args["threads"] threads.  Without a sweep,
    trial(t) runs for every trial t and summarize(results) returns the
    report's rows, extras and raw records (or None).  With sweep naming a
    sequence argument such as "n_list", trial(x, t) runs at each of its
    values x and summarize(x, results) returns the rows, extras and
    per-trial records at x: the rows are concatenated, each extra is
    reported as {str(x): value}, and each record gains x, under the
    argument's name less "_list", and its trial.
    """
    config = {"experiment": name}
    config.update(
        (key, list(value) if isinstance(value, tuple) else value)
        for key, value in args.items() if key != "threads"
    )
    # the layers below refuse a vertex count, tau or p only inside a trial
    # (an n_list entry after the sweep's earlier trials, run_tail_mc's k
    # after asking numpy for a k-by-k array, p once the trials have started),
    # and a count or thread number below 1 not at all
    for key in ("n", "k"):
        if key in args:
            _check_vertex_count(args[key])
    for n in args.get("n_list", ()):
        _check_vertex_count(n)
    for key in (count, "threads"):
        if args[key] < 1:
            raise ParameterError(f"{key} must be >= 1, got {args[key]}")
    if "tau" in args:
        _zero_tolerance(np.zeros(0), args["tau"])
    if "p" in args:
        _check_edge_probability(args["p"])
    trials, threads = args[count], args["threads"]
    if sweep is None:
        return ExperimentReport(config, columns, *summarize(_run_trials(trial, trials, threads)))
    axis = sweep.removesuffix("_list")
    rows, extras, raw = [], {}, []
    for x in args[sweep]:
        results = _run_trials(functools.partial(trial, x), trials, threads)
        x_rows, x_extras, records = summarize(x, results)
        rows += x_rows
        for key, value in x_extras.items():
            extras.setdefault(key, {})[str(x)] = value
        raw += [{axis: x, "trial": t, **record} for t, record in enumerate(records)]
    return ExperimentReport(config, columns, rows, extras, raw)


def _adjacency_spectrum(g: Graph) -> Spectrum:
    return eigendecompose(adjacency_matrix(g), "descending")


def _adjacency_census(g: Graph, tau: float | None) -> NodalCensus:
    """The nodal census of every adjacency eigenvector of g."""
    return nodal_census(g, _adjacency_spectrum(g).eigenvectors, tau)


def _histogram(counts: Iterable[int]) -> dict[str, int]:
    """How often each count occurs, keyed by the count as a string, in count order."""
    tally = Counter(map(int, counts))
    return {str(c): tally[c] for c in sorted(tally)}


def write_report_csv(report: ExperimentReport, stream: IO[str]) -> None:
    """The header, then the rows; an integer array's by the array
    formatter, in blocks of about BLOCK_CELLS cells."""
    rows = report.rows
    if not isinstance(rows, np.ndarray):
        write_csv([report.columns, *rows], stream)
        return
    write_csv([report.columns], stream)
    height = max(1, BLOCK_CELLS // rows.shape[1])
    seps = np.full((height, rows.shape[1]), ord(","), dtype=np.uint8)
    seps[:, -1] = ord("\n")
    for i in range(0, rows.shape[0], height):
        block = rows[i:i + height]
        stream.write(int_text(block, seps[:block.shape[0]]))


def write_report_json(report: ExperimentReport, stream: IO[str]) -> None:
    rows = report.rows
    payload = {"config": report.config, "columns": report.columns,
               "rows": rows.tolist() if isinstance(rows, np.ndarray) else rows,
               "extras": report.extras}
    if report.raw is not None:
        payload["raw"] = report.raw
    write_json(rounded(payload), stream)


def run_fig1(
    d_list: Sequence[int] = (3,),
    n: int = 300,
    trials: int = 20,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Nodal-domain counts across the adjacency spectrum of random d-regular graphs.

    CSV rows "d,index,mean_domains,std_domains" give the mean and sample std
    over trials of the weak domain count of eigenvector #index (1-based,
    descending eigenvalues).  Strong-count aggregates and per-trial counts go
    to extras / raw; disconnected samples are flagged and reported but kept
    in the averages.
    """
    d_list = tuple(int(d) for d in d_list)
    args = dict(locals())
    for d in d_list:  # every d, before the first trial of any
        check_regular(n, d)

    def trial(d: int, t: int) -> NodalCensus:
        return _adjacency_census(sample_regular(n, d, substream(seed, f"fig1-d{d}", t)), tau)

    def by_index(counts: list[np.ndarray]) -> np.ndarray:
        # index i's trials as row i of a C-contiguous array: a reduction
        # along axis 1 sums each row in the order it sums the row alone
        return np.ascontiguousarray(np.array(counts, dtype=np.float64).T)

    def summarize(d: int, censuses: list[NodalCensus]):
        weak = by_index([c.weak_count for c in censuses])
        strong = by_index([c.strong_count for c in censuses])
        mean = weak.mean(axis=1).tolist()
        std = weak.std(axis=1, ddof=1).tolist() if len(censuses) > 1 else [0.0] * n
        extras = {
            "disconnected_trials": [t for t, c in enumerate(censuses) if not c.connected],
            "strong_mean_by_index": strong.mean(axis=1).tolist(),
        }
        records = [
            {"connected": c.connected, "weak": c.weak_count.tolist(),
             "strong": c.strong_count.tolist()}
            for c in censuses
        ]
        rows = [(d, i + 1, m, s) for i, (m, s) in enumerate(zip(mean, std))]
        return rows, extras, records

    return _experiment("fig1", args, ("d", "index", "mean_domains", "std_domains"),
                       trial, summarize, sweep="d_list")


def run_fig2(
    n_list: Sequence[int] = (100,),
    trials: int = 500,
    p: float = 0.5,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Fraction of samples whose top Laplacian eigenvector has 3 weak domains.

    The top eigenvector is the one for the largest Laplacian eigenvalue.
    From LANCZOS_MIN_N vertices up a trial takes it from
    certified_top_vector, whose every sign under tau is proved to be the
    exact eigenvector's, so that the count is a property of the exact
    eigenvector; where the proof fails, and below the cut, it takes
    eigendecompose's (ascending ordering, last index), as rounded output
    that passed its residual checks.  CSV rows "n,trials,frac_three_domains";
    raw records carry each trial's weak count.
    """
    n_list = tuple(int(n) for n in n_list)
    args = dict(locals())

    def trial(n: int, t: int) -> int:
        g = sample_gnp(n, p, substream(seed, f"fig2-n{n}", t))
        lap = laplacian_matrix(g)
        top = certified_top_vector(lap, tau) if n >= LANCZOS_MIN_N else None
        if top is None:
            top = eigendecompose(lap, "ascending").vector(n - 1)
        return weak_nodal_domains(g, top, tau).count

    def summarize(n: int, counts: list[int]):
        extras = {"count_histogram": _histogram(counts)}
        records = [{"weak_count": c} for c in counts]
        return [(n, trials, counts.count(3) / trials)], extras, records

    return _experiment("fig2", args, ("n", "trials", "frac_three_domains"),
                       trial, summarize, sweep="n_list")


def run_gnp_scan(
    n: int = 100,
    p: float = 0.5,
    trials: int = 20,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Full per-eigenvector nodal census of G(n,p) adjacency spectra.

    CSV rows "trial,index,weak,strong,P,N,E,Z,EcapZ", one per (trial,
    eigenvector index): weak/strong domain counts and the sizes of the
    largest nonnegative part, largest nonpositive part, the exceptional set,
    the zero set, and their overlap.  Index is 1-based descending; trials are
    0-based.  Extras aggregate the non-first maxima and a weak-count
    histogram.
    """
    args = dict(locals())

    def trial(t: int) -> NodalCensus:
        return _adjacency_census(sample_gnp(n, p, substream(seed, "gnp-scan", t)), tau)

    def summarize(censuses: list[NodalCensus]):
        rows = np.empty((trials, n, 9), dtype=np.int64)
        rows[:, :, 0] = np.arange(trials)[:, np.newaxis]
        rows[:, :, 1] = np.arange(1, n + 1)
        rows[:, :, 2:] = [c.table() for c in censuses]
        weak, strong, _, _, e, _, e_cap_z = rows[:, 1:, 2:].reshape(-1, 7).T
        extras = {
            "disconnected_trials": [t for t, c in enumerate(censuses) if not c.connected],
            "weak_count_histogram_nonfirst": _histogram(weak),
            "max_weak_nonfirst": int(weak.max(initial=0)),
            "max_strong_nonfirst": int(strong.max(initial=0)),
            "max_E_nonfirst": int(e.max(initial=0)),
            "max_EcapZ_nonfirst": int(e_cap_z.max(initial=0)),
            "total_zero_vertices": int(rows[:, :, 7].sum()),
        }
        return rows.reshape(-1, 9), extras, None

    return _experiment("gnp-scan", args,
                       ("trial", "index", "weak", "strong", "P", "N", "E", "Z", "EcapZ"),
                       trial, summarize)


def run_tail_mc(
    p: float = 0.5,
    k: int = 200,
    samples: int = 200,
    xi_list: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    delta: float = 1.0,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Empirical exceedance of the three operator-norm tail bounds.

    CSV rows "model,size,xi,bound,empirical".  Models: "sym" (symmetric
    centered Bernoulli, threshold (2 sqrt(p(1-p)) + xi) sqrt(k), bound
    4 exp(-xi^2 k / 8)); "gnp" (non-top adjacency eigenvalues of G(k,p),
    same threshold with n = k, bound exp(-xi^2 n / 32)); "rect" (an
    m x k rectangular sample with m = (1+delta) k, threshold
    a1 sqrt(p(1-p)) sqrt(m), bound exp(-a2 m), no xi).  Extras carry the
    median norm ratios used as a location sanity check.  The config also
    carries m.
    """
    xi_list = tuple(float(x) for x in xi_list)
    if k < 2:
        raise ParameterError(f"k must be >= 2, got {k}")
    if not all(xi > 0.0 for xi in xi_list):
        raise ParameterError(f"xi_list entries must be > 0, got {xi_list}")
    if not all(math.isfinite(xi * xi) for xi in xi_list):
        raise ParameterError(f"xi_list entries must have a finite square, got {xi_list}")
    m = (1.0 + delta) * k  # the rectangular sample's rows, before rounding
    # a k above MAX_VERTICES is _experiment's to refuse, as a vertex count;
    # min keeps its m finite, and changes no m that passes
    if k <= MAX_VERTICES and not m < MAX_VERTICES + 0.5:
        raise ParameterError(f"m = round((1+delta) k) must be at most {MAX_VERTICES}, "
                             f"got delta={delta}, k={k}")
    m = int(round(min(m, MAX_VERTICES)))
    args = dict(locals())
    # every threshold and bound, before the first sample
    sigma2 = 2.0 * ((p * (1.0 - p)) ** 0.5)
    xi_rows = [
        (model, xi, (sigma2 + xi) * np.sqrt(k),
         min(scale * float(np.exp(-(xi**2) * k / decay)), 1.0))
        for model, scale, decay in (("sym", 4.0, 8.0), ("gnp", 1.0, 32.0)) for xi in xi_list
    ]
    _, a1, a2 = tail_constants(p, delta)
    rect_threshold = a1 * ((p * (1.0 - p)) ** 0.5) * np.sqrt(m)
    rect_bound = min(float(np.exp(-a2 * m)), 1.0)

    def trial(i: int) -> tuple[float, float, float]:
        a = sample_sym_xp_matrix(k, p, substream(seed, "tails-sym", i))
        sym_norm = float(np.abs(np.linalg.eigvalsh(a)).max())
        g = sample_gnp(k, p, substream(seed, "tails-gnp", i))
        w = np.linalg.eigvalsh(adjacency_matrix(g))
        gnp_nontop = float(max(abs(w[0]), abs(w[-2])))
        q = sample_xp_matrix(m, k, p, substream(seed, "tails-rect", i))
        rect_norm = operator_norm(q)
        return sym_norm, gnp_nontop, rect_norm

    def summarize(results: list[tuple[float, float, float]]):
        sym_norms, gnp_vals, rect_norms = np.array(results).reshape(-1, 3).T
        norms = {"sym": sym_norms, "gnp": gnp_vals}
        rows = [(model, k, xi, bound, float((norms[model] >= threshold).mean()))
                for model, xi, threshold, bound in xi_rows]
        rows.append(("rect", m, None, rect_bound, float((rect_norms >= rect_threshold).mean())))
        extras = {
            "median_sym_ratio": float(np.median(sym_norms)) / float(np.sqrt(k)),
            "median_gnp_ratio": float(np.median(gnp_vals)) / float(np.sqrt(k)),
            "median_rect_ratio": float(np.median(rect_norms)) / float(np.sqrt(m)),
            "rect_threshold": float(rect_threshold),
        }
        return rows, extras, None

    return _experiment("tails", args, ("model", "size", "xi", "bound", "empirical"),
                       trial, summarize, count="samples")


def run_inner_product_check(
    n: int = 200,
    p: float = 0.5,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Max |<f, 1>| over non-first adjacency eigenvectors, per trial.

    CSV rows "trial,max_inner_product"; extras carry the global max and
    median.  The ones vector is unnormalized.
    """
    args = dict(locals())

    def trial(t: int) -> float:
        vectors = _adjacency_spectrum(sample_gnp(n, p, substream(seed, "inner", t))).eigenvectors
        return float(np.abs(vectors[:, 1:].sum(axis=0)).max()) if n > 1 else 0.0

    def summarize(values: list[float]):
        extras = {"global_max": float(max(values)), "median": float(np.median(np.asarray(values)))}
        return list(enumerate(values)), extras, None

    return _experiment("inner", args, ("trial", "max_inner_product"), trial, summarize)


def run_linf_scan(
    n_list: Sequence[int] = (50, 100, 200, 400),
    p: float = 0.5,
    trials: int = 20,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Sup norms of all adjacency eigenvectors across graph sizes.

    CSV rows "n,median_linf,max_linf,zero_coordinates": the median and max of
    ||f||_inf over all trials and eigenvector indices at each n, plus the
    total count of coordinates with |f(v)| <= tau (default tau is the
    per-vector floating-point tolerance).  Raw records keep each trial's
    per-eigenvector sup norms.
    """
    n_list = tuple(int(n) for n in n_list)
    args = dict(locals())

    def trial(n: int, t: int) -> tuple[list[float], int]:
        g = sample_gnp(n, p, substream(seed, f"linf-n{n}", t))
        vectors = _adjacency_spectrum(g).eigenvectors
        abs_vecs = np.abs(vectors)
        zeros = int((abs_vecs <= _zero_tolerance(vectors, tau)).sum())
        return abs_vecs.max(axis=0).tolist(), zeros

    def summarize(n: int, results: list[tuple[list[float], int]]):
        all_linfs = np.concatenate([np.asarray(linfs) for linfs, _ in results])
        zero_total = sum(zeros for _, zeros in results)
        records = [{"linf": linfs, "zero_coordinates": zeros} for linfs, zeros in results]
        return [(n, float(np.median(all_linfs)), float(all_linfs.max()), zero_total)], {}, records

    return _experiment("linf", args, ("n", "median_linf", "max_linf", "zero_coordinates"),
                       trial, summarize, sweep="n_list")


def run_neighborhood_fact(
    n: int = 500,
    p: float = 0.5,
    k_list: Sequence[int] = (1, 2, 3),
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Neighborhood union/intersection fractions for random k-tuples.

    Each trial samples a fresh graph and one uniform k-tuple of distinct
    vertices per k.  CSV rows "k,mean_union,expected_union,max_union_dev,
    mean_intersection,expected_intersection,max_intersection_dev" compare
    |union of neighborhoods|/n with 1-(1-p)^k and |intersection|/n with p^k.
    """
    k_list = tuple(int(k) for k in k_list)
    if any(k < 1 or k >= n for k in k_list):
        raise ParameterError(f"tuple sizes must satisfy 1 <= k < n, got {k_list}")
    args = dict(locals())

    def trial(t: int) -> list[tuple[float, float]]:
        adj = adjacency_matrix(sample_gnp(n, p, substream(seed, "fact", t))) > 0
        gen = substream(seed, "fact-tuples", t).generator()
        out = []
        for k in k_list:
            rows = adj[gen.choice(n, size=k, replace=False)]
            union, inter = rows.any(axis=0), rows.all(axis=0)
            out.append((float(union.sum()) / n, float(inter.sum()) / n))
        return out

    def summarize(results: list[list[tuple[float, float]]]):
        rows: list[tuple] = []
        for j, k in enumerate(k_list):
            unions = np.array([res[j][0] for res in results])
            inters = np.array([res[j][1] for res in results])
            exp_union = 1.0 - (1.0 - p) ** k
            exp_inter = p**k
            rows.append((
                k,
                float(unions.mean()), exp_union, float(np.abs(unions - exp_union).max()),
                float(inters.mean()), exp_inter, float(np.abs(inters - exp_inter).max()),
            ))
        return rows, {}, None

    columns = (
        "k", "mean_union", "expected_union", "max_union_dev",
        "mean_intersection", "expected_intersection", "max_intersection_dev",
    )
    return _experiment("fact", args, columns, trial, summarize)


def run_courant_report(
    source: str = "gnp",
    n: int = 100,
    p: float = 0.5,
    d: int = 4,
    trials: int = 20,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """How often the weak count of eigenvector #k exceeds k (reported, not asserted).

    Adjacency spectrum, descending.  CSV rows "index,freq_exceeding,
    freq_exceeding_connected" cover every index 1..n; the second frequency
    restricts to trials whose sample was connected.  The config carries p
    for source "gnp" and d for "regular".
    """
    if source not in ("gnp", "regular"):
        raise ParameterError(f"source must be 'gnp' or 'regular', got {source!r}")
    if source == "regular":
        check_regular(n, d)
    args = dict(locals())
    del args["d" if source == "gnp" else "p"]

    def trial(t: int) -> NodalCensus:
        stream = substream(seed, f"courant-{source}", t)
        g = sample_gnp(n, p, stream) if source == "gnp" else sample_regular(n, d, stream)
        return _adjacency_census(g, tau)

    def summarize(censuses: list[NodalCensus]):
        exceed = np.array([c.weak_count for c in censuses]) > np.arange(1, n + 1)
        connected = np.array([c.connected for c in censuses], dtype=bool)
        freq = exceed.sum(axis=0) / trials
        # 0.0 at every index when no sample was connected
        freq_conn = exceed[connected].sum(axis=0) / max(int(connected.sum()), 1)
        rows = list(zip(range(1, n + 1), freq.tolist(), freq_conn.tolist()))
        extras = {"disconnected_trials": np.flatnonzero(~connected).tolist()}
        return rows, extras, None

    return _experiment("courant", args, ("index", "freq_exceeding", "freq_exceeding_connected"),
                       trial, summarize)
