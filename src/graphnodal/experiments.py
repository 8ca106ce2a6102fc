"""Seeded Monte-Carlo experiments over random graph spectra.

Every experiment draws trial t of experiment "name" from the substream
(master seed, name, t), so results never depend on execution order, adding
trials never perturbs earlier ones, and reruns are reproducible bit for bit.
Trials may run on a thread pool; aggregation folds the trial results in
trial order, so the report is identical for every thread count.  Reports
carry no timings, which would differ from run to run.

Report serialization: CSV uses one pinned header per experiment (see the
run_* docstrings), JSON carries the resolved config, the aggregate rows,
extras, and the raw per-trial records.  All floats are written with 10
significant digits.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Any, Callable, Sequence

import numpy as np

from .bounds import tail_constants
from .graph_core import (
    adjacency_matrix,
    laplacian_matrix,
    sample_gnp,
    sample_regular,
    sample_sym_xp_matrix,
    sample_xp_matrix,
    substream,
)
from .nodal import DEFAULT_TAU_SCALE, SignedFunction, nodal_census, weak_nodal_domains
from .spectral import eigendecompose, operator_norm

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


@dataclass
class ExperimentReport:
    """One experiment's resolved config, aggregate rows, extras, and raw records."""

    config: dict[str, Any]
    columns: tuple[str, ...]
    rows: list[tuple]
    extras: dict[str, Any]
    raw: list | None


def _run_trials(worker: Callable[[int], Any], count: int, threads: int) -> list:
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(count)))
    return [worker(i) for i in range(count)]


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


def _fmt(value: Any, digits: int = 10) -> str:
    """One CSV cell: None empty, bools lower case, floats to `digits` significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def write_report_csv(report: ExperimentReport, stream: IO[str]) -> None:
    stream.write(",".join(report.columns) + "\n")
    for row in report.rows:
        stream.write(",".join(_fmt(v) for v in row) + "\n")


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.10g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report_json(report: ExperimentReport, stream: IO[str]) -> None:
    payload = {
        "config": _round_floats(report.config),
        "columns": list(report.columns),
        "rows": _round_floats(report.rows),
        "extras": _round_floats(report.extras),
    }
    if report.raw is not None:
        payload["raw"] = _round_floats(report.raw)
    json.dump(payload, stream, indent=1, sort_keys=True)
    stream.write("\n")


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
    config = {
        "experiment": "fig1", "d_list": list(d_list), "n": n,
        "trials": trials, "seed": seed, "tau": tau,
    }
    rows: list[tuple] = []
    extras: dict[str, Any] = {"disconnected_trials": {}, "strong_mean_by_index": {}}
    raw: list[dict] = []
    for d in d_list:
        def worker(t: int, d: int = d):
            g = sample_regular(n, d, substream(seed, f"fig1-d{d}", t))
            spectrum = eigendecompose(adjacency_matrix(g), "descending")
            census = nodal_census(g, spectrum.eigenvectors, tau)
            return census.weak_count.tolist(), census.strong_count.tolist(), census.connected

        results = _run_trials(worker, trials, threads)
        weak_mat = np.array([res[0] for res in results], dtype=np.int64)
        strong_mat = np.array([res[1] for res in results], dtype=np.int64)
        disconnected = [t for t, res in enumerate(results) if not res[2]]
        for i in range(n):
            mean, std = _mean_std(weak_mat[:, i])
            rows.append((d, i + 1, mean, std))
        extras["disconnected_trials"][str(d)] = disconnected
        extras["strong_mean_by_index"][str(d)] = [
            float(strong_mat[:, i].mean()) for i in range(n)
        ]
        for t, res in enumerate(results):
            raw.append({
                "d": d, "trial": t, "connected": res[2],
                "weak": list(map(int, res[0])), "strong": list(map(int, res[1])),
            })
    return ExperimentReport(
        config=config,
        columns=("d", "index", "mean_domains", "std_domains"),
        rows=rows, extras=extras, raw=raw,
    )


def run_fig2(
    n_list: Sequence[int] = (100,),
    trials: int = 500,
    p: float = 0.5,
    seed: int = 0,
    tau: float | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Fraction of samples whose top Laplacian eigenvector has 3 weak domains.

    The top eigenvector is the one for the largest Laplacian eigenvalue
    (ascending ordering, last index).  CSV rows "n,trials,frac_three_domains";
    raw records carry each trial's weak count.
    """
    n_list = tuple(int(n) for n in n_list)
    config = {
        "experiment": "fig2", "n_list": list(n_list), "p": p,
        "trials": trials, "seed": seed, "tau": tau,
    }
    rows: list[tuple] = []
    extras: dict[str, Any] = {"count_histogram": {}}
    raw: list[dict] = []
    for n in n_list:
        def worker(t: int, n: int = n):
            g = sample_gnp(n, p, substream(seed, f"fig2-n{n}", t))
            spectrum = eigendecompose(laplacian_matrix(g), "ascending")
            f = SignedFunction.from_values(spectrum.vector(n - 1), tau)
            return weak_nodal_domains(g, f).count

        counts = _run_trials(worker, trials, threads)
        frac = sum(1 for c in counts if c == 3) / trials
        rows.append((n, trials, frac))
        hist: dict[str, int] = {}
        for c in counts:
            hist[str(c)] = hist.get(str(c), 0) + 1
        extras["count_histogram"][str(n)] = dict(sorted(hist.items(), key=lambda kv: int(kv[0])))
        raw.extend({"n": n, "trial": t, "weak_count": int(c)} for t, c in enumerate(counts))
    return ExperimentReport(
        config=config,
        columns=("n", "trials", "frac_three_domains"),
        rows=rows, extras=extras, raw=raw,
    )


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
    config = {
        "experiment": "gnp-scan", "n": n, "p": p,
        "trials": trials, "seed": seed, "tau": tau,
    }

    def worker(t: int):
        g = sample_gnp(n, p, substream(seed, "gnp-scan", t))
        spectrum = eigendecompose(adjacency_matrix(g), "descending")
        census = nodal_census(g, spectrum.eigenvectors, tau)
        return census.rows(), census.connected

    results = _run_trials(worker, trials, threads)
    rows: list[tuple] = []
    hist: dict[str, int] = {}
    max_weak = max_strong = max_e = max_ecapz = total_zero = 0
    for t, (cells, _) in enumerate(results):
        for i, cell in enumerate(cells):
            rows.append((t, i + 1) + cell)
            total_zero += cell[5]
            if i > 0:
                hist[str(cell[0])] = hist.get(str(cell[0]), 0) + 1
                max_weak = max(max_weak, cell[0])
                max_strong = max(max_strong, cell[1])
                max_e = max(max_e, cell[4])
                max_ecapz = max(max_ecapz, cell[6])
    extras = {
        "disconnected_trials": [t for t, (_, conn) in enumerate(results) if not conn],
        "weak_count_histogram_nonfirst": dict(sorted(hist.items(), key=lambda kv: int(kv[0]))),
        "max_weak_nonfirst": max_weak,
        "max_strong_nonfirst": max_strong,
        "max_E_nonfirst": max_e,
        "max_EcapZ_nonfirst": max_ecapz,
        "total_zero_vertices": total_zero,
    }
    return ExperimentReport(
        config=config,
        columns=("trial", "index", "weak", "strong", "P", "N", "E", "Z", "EcapZ"),
        rows=rows, extras=extras, raw=None,
    )


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
    median norm ratios used as a location sanity check.
    """
    xi_list = tuple(float(x) for x in xi_list)
    m = int(round((1.0 + delta) * k))
    config = {
        "experiment": "tails", "p": p, "k": k, "m": m, "delta": delta,
        "samples": samples, "xi_list": list(xi_list), "seed": seed,
    }
    sigma2 = 2.0 * ((p * (1.0 - p)) ** 0.5)

    def worker(i: int):
        a = sample_sym_xp_matrix(k, p, substream(seed, "tails-sym", i))
        sym_norm = float(np.abs(np.linalg.eigvalsh(a)).max())
        g = sample_gnp(k, p, substream(seed, "tails-gnp", i))
        w = np.linalg.eigvalsh(adjacency_matrix(g))
        gnp_nontop = float(max(abs(w[0]), abs(w[-2]))) if k > 1 else 0.0
        q = sample_xp_matrix(m, k, p, substream(seed, "tails-rect", i))
        rect_norm = operator_norm(q)
        return sym_norm, gnp_nontop, rect_norm

    results = _run_trials(worker, samples, threads)
    sym_norms = np.array([res[0] for res in results])
    gnp_vals = np.array([res[1] for res in results])
    rect_norms = np.array([res[2] for res in results])

    rows: list[tuple] = []
    for xi in xi_list:
        threshold = (sigma2 + xi) * np.sqrt(k)
        bound = 4.0 * float(np.exp(-(xi**2) * k / 8.0))
        rows.append(("sym", k, xi, min(bound, 1.0), float((sym_norms >= threshold).mean())))
    for xi in xi_list:
        threshold = (sigma2 + xi) * np.sqrt(k)
        bound = float(np.exp(-(xi**2) * k / 32.0))
        rows.append(("gnp", k, xi, min(bound, 1.0), float((gnp_vals >= threshold).mean())))
    _, a1, a2 = tail_constants(p, delta)
    rect_threshold = a1 * ((p * (1.0 - p)) ** 0.5) * np.sqrt(m)
    rows.append(("rect", m, None, min(float(np.exp(-a2 * m)), 1.0),
                 float((rect_norms >= rect_threshold).mean())))

    extras = {
        "median_sym_ratio": float(np.median(sym_norms)) / float(np.sqrt(k)),
        "median_gnp_ratio": float(np.median(gnp_vals)) / float(np.sqrt(k)),
        "median_rect_ratio": float(np.median(rect_norms)) / float(np.sqrt(m)),
        "rect_threshold": float(rect_threshold),
    }
    return ExperimentReport(
        config=config,
        columns=("model", "size", "xi", "bound", "empirical"),
        rows=rows, extras=extras, raw=None,
    )


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
    config = {"experiment": "inner", "n": n, "p": p, "trials": trials, "seed": seed}

    def worker(t: int):
        g = sample_gnp(n, p, substream(seed, "inner", t))
        spectrum = eigendecompose(adjacency_matrix(g), "descending")
        sums = np.abs(spectrum.eigenvectors[:, 1:].sum(axis=0))
        return float(sums.max()) if n > 1 else 0.0

    values = _run_trials(worker, trials, threads)
    rows = [(t, v) for t, v in enumerate(values)]
    extras = {
        "global_max": float(max(values)),
        "median": float(np.median(np.asarray(values))),
    }
    return ExperimentReport(
        config=config,
        columns=("trial", "max_inner_product"),
        rows=rows, extras=extras, raw=None,
    )


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
    config = {
        "experiment": "linf", "n_list": list(n_list), "p": p,
        "trials": trials, "seed": seed, "tau": tau,
    }
    rows: list[tuple] = []
    raw: list[dict] = []
    for n in n_list:
        def worker(t: int, n: int = n):
            g = sample_gnp(n, p, substream(seed, f"linf-n{n}", t))
            spectrum = eigendecompose(adjacency_matrix(g), "descending")
            abs_vecs = np.abs(spectrum.eigenvectors)
            linfs = abs_vecs.max(axis=0)
            taus = (
                np.full(n, tau, dtype=np.float64) if tau is not None else DEFAULT_TAU_SCALE * linfs
            )
            zero_coords = int((abs_vecs <= taus[np.newaxis, :]).sum())
            return linfs.tolist(), zero_coords

        results = _run_trials(worker, trials, threads)
        all_linfs = np.concatenate([np.asarray(res[0]) for res in results])
        zero_total = sum(res[1] for res in results)
        rows.append((n, float(np.median(all_linfs)), float(all_linfs.max()), zero_total))
        raw.extend(
            {"n": n, "trial": t, "linf": res[0], "zero_coordinates": res[1]}
            for t, res in enumerate(results)
        )
    return ExperimentReport(
        config=config,
        columns=("n", "median_linf", "max_linf", "zero_coordinates"),
        rows=rows, extras={}, raw=raw,
    )


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
        raise ValueError(f"tuple sizes must satisfy 1 <= k < n, got {k_list}")
    config = {
        "experiment": "fact", "n": n, "p": p, "k_list": list(k_list),
        "trials": trials, "seed": seed,
    }

    def worker(t: int):
        adj = adjacency_matrix(sample_gnp(n, p, substream(seed, "fact", t))) > 0
        gen = substream(seed, "fact-tuples", t).generator()
        out = []
        for k in k_list:
            rows = adj[gen.choice(n, size=k, replace=False)]
            union, inter = rows.any(axis=0), rows.all(axis=0)
            out.append((float(union.sum()) / n, float(inter.sum()) / n))
        return out

    results = _run_trials(worker, trials, threads)
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
    return ExperimentReport(
        config=config,
        columns=(
            "k", "mean_union", "expected_union", "max_union_dev",
            "mean_intersection", "expected_intersection", "max_intersection_dev",
        ),
        rows=rows, extras={}, raw=None,
    )


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
    restricts to trials whose sample was connected.
    """
    if source not in ("gnp", "regular"):
        raise ValueError(f"source must be 'gnp' or 'regular', got {source!r}")
    config = {
        "experiment": "courant", "source": source, "n": n, "trials": trials,
        "seed": seed, "tau": tau,
    }
    config["p" if source == "gnp" else "d"] = p if source == "gnp" else d

    def worker(t: int):
        stream = substream(seed, f"courant-{source}", t)
        g = sample_gnp(n, p, stream) if source == "gnp" else sample_regular(n, d, stream)
        spectrum = eigendecompose(adjacency_matrix(g), "descending")
        census = nodal_census(g, spectrum.eigenvectors, tau)
        return census.weak_count.tolist(), census.connected

    results = _run_trials(worker, trials, threads)
    connected_idx = [t for t, res in enumerate(results) if res[1]]
    rows: list[tuple] = []
    for i in range(n):
        exceed = [res[0][i] > i + 1 for res in results]
        freq = sum(exceed) / trials
        if connected_idx:
            freq_conn = sum(exceed[t] for t in connected_idx) / len(connected_idx)
        else:
            freq_conn = 0.0
        rows.append((i + 1, freq, freq_conn))
    extras = {
        "disconnected_trials": [t for t, res in enumerate(results) if not res[1]],
    }
    return ExperimentReport(
        config=config,
        columns=("index", "freq_exceeding", "freq_exceeding_connected"),
        rows=rows, extras=extras, raw=None,
    )
