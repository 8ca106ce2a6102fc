"""Experiment harness: schemas, determinism, and small-scale sanity checks.

Configs here are deliberately tiny; the full-scale settings live in the
acceptance suite.  Every check that depends on randomness uses a fixed
master seed and the harness's own substream discipline.
"""

import functools
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphnodal import (
    ParameterError,
    adjacency_matrix,
    certified_top_vector,
    eigendecompose,
    laplacian_matrix,
    nodal_census,
    sample_gnp,
    sample_regular,
    sample_sym_xp_matrix,
    substream,
    weak_nodal_domains,
)
from graphnodal import experiments
from graphnodal._text import write_csv
from graphnodal.experiments import (
    ExperimentReport,
    run_courant_report,
    run_fig1,
    run_fig2,
    run_gnp_scan,
    run_inner_product_check,
    run_linf_scan,
    run_neighborhood_fact,
    run_tail_mc,
    write_report_csv,
    write_report_json,
)
from nodal_reference import neighbour_lists


def csv_of(report):
    buf = io.StringIO()
    write_report_csv(report, buf)
    return buf.getvalue()


def json_of(report):
    buf = io.StringIO()
    write_report_json(report, buf)
    return buf.getvalue()


def test_fig1_schema_and_aggregates():
    r = run_fig1(d_list=(3,), n=20, trials=6, seed=17)
    assert r.columns == ("d", "index", "mean_domains", "std_domains")
    assert len(r.rows) == 20
    assert [row[1] for row in r.rows] == list(range(1, 21))
    # recompute the index-1 mean from the raw per-trial records
    weak1 = [rec["weak"][0] for rec in r.raw if rec["d"] == 3]
    assert math.isclose(r.rows[0][2], sum(weak1) / len(weak1), rel_tol=1e-12)
    # std uses the n-1 denominator
    w2 = np.array([rec["weak"][1] for rec in r.raw])
    assert math.isclose(r.rows[1][3], float(w2.std(ddof=1)), rel_tol=1e-12, abs_tol=1e-15)
    header = csv_of(r).splitlines()[0]
    assert header == "d,index,mean_domains,std_domains"


@pytest.mark.parametrize("trials", [1, 2, 9, 33])
def test_fig1_aggregates_match_per_index_statistics(trials):
    # each index's mean and sample std, to the bit, as computed over that
    # index's trials alone
    r = run_fig1(d_list=(3,), n=10, trials=trials, seed=23)
    for key, column in (("weak", 2), ("strong", None)):
        counts = np.array([rec[key] for rec in r.raw], dtype=np.float64)
        for i in range(10):
            values = np.ascontiguousarray(counts[:, i])
            mean = float(values.mean())
            if column is None:
                assert r.extras["strong_mean_by_index"]["3"][i] == mean
                continue
            std = float(values.std(ddof=1)) if trials > 1 else 0.0
            assert r.rows[i][column:] == (mean, std), (key, i)


def test_fig1_multiple_degrees_are_independent():
    both = run_fig1(d_list=(2, 4), n=12, trials=4, seed=5)
    solo = run_fig1(d_list=(4,), n=12, trials=4, seed=5)
    d4_rows = [row for row in both.rows if row[0] == 4]
    assert d4_rows == [row for row in solo.rows]


def test_fig1_checks_every_degree_before_its_first_trial(monkeypatch):
    import graphnodal.experiments

    calls = 0
    sample = graphnodal.experiments.sample_regular

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(graphnodal.experiments, "sample_regular", counted)
    with pytest.raises(ParameterError, match=r"^degree must satisfy 0 <= d < n, got d=6, n=6$"):
        run_fig1(d_list=(4, 6), n=6, trials=2)
    assert calls == 0


def test_arguments_are_refused_before_the_first_trial(monkeypatch):
    import graphnodal.experiments

    class Sampled(Exception):
        pass

    def sampler(*args, **kwargs):
        raise Sampled

    for name in ("sample_gnp", "sample_regular", "sample_sym_xp_matrix", "sample_xp_matrix"):
        monkeypatch.setattr(graphnodal.experiments, name, sampler)
    cases = [
        # the n = 10 trials would run before n = 2^40 reached the sampler
        (lambda: run_fig2(n_list=(10, 2**40), trials=2),
         r"vertex count must be at most 3037000499, got 1099511627776"),
        (lambda: run_gnp_scan(n=0), r"vertex count must be positive, got 0"),
        # m = 2k, one above the largest vertex count (the CLI's tests cover
        # exp-tails' p, delta and finite-square refusals)
        (lambda: run_tail_mc(k=1_518_500_250, samples=1),
         r"m = round\(\(1\+delta\) k\) must be at most 3037000499, "
         r"got delta=1\.0, k=1518500250"),
        (lambda: run_courant_report(source="bogus"),
         r"source must be 'gnp' or 'regular', got 'bogus'"),
        (lambda: run_tail_mc(samples=0), r"samples must be >= 1, got 0"),
        (lambda: run_tail_mc(k=1), r"k must be >= 2, got 1"),
        (lambda: run_tail_mc(xi_list=(0.5, 0.0)),
         r"xi_list entries must be > 0, got \(0\.5, 0\.0\)"),
    ]
    runners = (run_fig1, run_fig2, run_gnp_scan, run_tail_mc, run_inner_product_check,
               run_linf_scan, run_neighborhood_fact, run_courant_report)
    for runner in runners:
        if runner is not run_tail_mc:
            cases.append((functools.partial(runner, trials=0), r"trials must be >= 1, got 0"))
        cases += [(functools.partial(runner, threads=0), r"threads must be >= 1, got 0"),
                  (functools.partial(runner, seed=-1), r"seed must be nonnegative, got -1")]
        if "tau" in inspect.signature(runner).parameters:
            cases.append((functools.partial(runner, tau=-1.0),
                          r"zero tolerance must be nonnegative, got -1\.0"))
        if runner not in (run_fig1, run_tail_mc):  # the six G(n,p) runners
            cases.append((functools.partial(runner, p=2.0),
                          r"edge probability must lie in \[0,1\], got 2\.0"))
    for call, message in cases:
        with pytest.raises(ParameterError, match=f"^{message}$"):
            call()
    # one k lower, m = 2k is the largest vertex count less one: it is sampled
    with pytest.raises(Sampled):
        run_tail_mc(k=1_518_500_249, samples=1)


def test_fig2_counts_and_fraction():
    r = run_fig2(n_list=(24,), trials=12, p=0.5, seed=3)
    assert r.columns == ("n", "trials", "frac_three_domains")
    (n, trials, frac), = r.rows
    counts = [rec["weak_count"] for rec in r.raw]
    assert n == 24 and trials == 12 and len(counts) == 12
    assert frac == sum(1 for c in counts if c == 3) / 12
    hist = r.extras["count_histogram"]["24"]
    assert sum(hist.values()) == 12
    assert list(hist) == sorted(hist, key=int)


def eigh_fig2_counts(n, p, trials, seed, tau):
    """run_fig2's weak counts, each read off eigendecompose's top vector."""
    counts = []
    for t in range(trials):
        g = sample_gnp(n, p, substream(seed, f"fig2-n{n}", t))
        top = eigendecompose(laplacian_matrix(g), "ascending").vector(n - 1)
        counts.append(weak_nodal_domains(g, top, tau).count)
    return counts


@pytest.mark.parametrize("p", [0.5, 0.02, 1.0, 0.0])
@pytest.mark.parametrize("tau", [None, 0.0, 0.3])
def test_fig2_counts_equal_those_of_eigh(p, tau):
    # the certified vectors above the cut (300), the fallback where they are
    # refused (p = 1, p = 0, zeros at tau = 0), and eigh below it
    n_list = (1, 2, 40, experiments.LANCZOS_MIN_N, 300)
    r = run_fig2(n_list=n_list, trials=4, p=p, seed=5, tau=tau, threads=2)
    counts = [rec["weak_count"] for rec in r.raw]
    assert counts == [c for n in n_list for c in eigh_fig2_counts(n, p, 4, 5, tau)]


def test_fig2_defaults_take_no_fallback_above_the_cut(monkeypatch):
    # fig2's benchmark sizes: a top vector that fails to certify above the
    # cut costs an eigh call, which this would count
    assert 100 < experiments.LANCZOS_MIN_N <= 300
    calls = []
    monkeypatch.setattr(experiments, "eigendecompose",
                        lambda a, ordering: calls.append(a.shape[0]) or eigendecompose(a, ordering))
    for seed in range(4):
        run_fig2(n_list=(100, 300), trials=16, seed=seed, threads=2)
    assert calls == [100] * 64
    # below the cut the certificate also holds on these samples
    for seed in range(4):
        for t in range(16):
            g = sample_gnp(100, 0.5, substream(seed, "fig2-n100", t))
            assert certified_top_vector(laplacian_matrix(g), None) is not None


def test_fig2_bytes_do_not_depend_on_blas_threads():
    src = str(Path(experiments.__file__).resolve().parents[1])
    payloads = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "graphnodal.cli", "exp-fig2", "--n-list", "100,300",
             "--trials", "8"], env=env, capture_output=True, check=True, timeout=120)
        payloads.append(out.stdout.split(b"\n", 2)[2])
    assert payloads[0] == payloads[1]
    assert payloads[0].startswith(b"n,trials,frac_three_domains\n100,8,")


def test_trial_prefix_stability():
    # adding trials must not change earlier trials' draws
    short = run_fig2(n_list=(20,), trials=5, seed=11)
    longer = run_fig2(n_list=(20,), trials=9, seed=11)
    assert [rec["weak_count"] for rec in longer.raw][:5] == [
        rec["weak_count"] for rec in short.raw
    ]


def test_gnp_scan_rows_and_extras():
    n, trials = 16, 4
    r = run_gnp_scan(n=n, p=0.5, trials=trials, seed=23)
    assert r.columns == ("trial", "index", "weak", "strong", "P", "N", "E", "Z", "EcapZ")
    assert len(r.rows) == n * trials
    first = r.rows[0]
    assert first[0] == 0 and first[1] == 1
    for row in r.rows:
        # P + N + E covers all n vertices (overlap only through zeros)
        assert row[4] + row[5] + row[6] >= n - row[7]
        assert row[8] <= min(row[6], row[7])
    hist = r.extras["weak_count_histogram_nonfirst"]
    assert sum(hist.values()) == (n - 1) * trials
    nonfirst = [row for row in r.rows if row[1] > 1]
    for key, col in (("max_weak_nonfirst", 2), ("max_strong_nonfirst", 3),
                     ("max_E_nonfirst", 6), ("max_EcapZ_nonfirst", 8)):
        assert r.extras[key] == max(row[col] for row in nonfirst), key
    assert r.extras["total_zero_vertices"] == sum(row[7] for row in r.rows)
    # a coarse tau zeroes coordinates of the first eigenvector too
    coarse = run_gnp_scan(n=n, p=0.5, trials=trials, seed=23, tau=0.3)
    assert any(row[7] for row in coarse.rows if row[1] == 1)
    assert coarse.extras["total_zero_vertices"] == sum(row[7] for row in coarse.rows)


def test_integer_array_rows_are_written_as_tuple_rows_are(monkeypatch):
    gen = substream(25, "report-rows").generator()
    bounds = 10 ** np.arange(12)
    cells = np.concatenate((bounds, bounds - 1, [0, 10**12 - 1],
                            gen.integers(0, 10**12, 6000), gen.integers(0, 100, 6000)))
    # blocks of 7 cells: a block boundary inside a table row for 2 and 9 columns
    monkeypatch.setattr(experiments, "BLOCK_CELLS", 7)
    for width in (1, 2, 9):
        for table in (gen.permutation(cells)[:width * 1000].reshape(-1, width),
                      np.zeros((0, width), dtype=np.int64)):
            columns = tuple(f"c{j}" for j in range(width))
            report = ExperimentReport({"experiment": "t"}, columns, table, {}, None)
            expected = io.StringIO()
            write_csv([columns, *table.tolist()], expected)
            assert csv_of(report) == expected.getvalue()
            as_tuples = ExperimentReport({"experiment": "t"}, columns,
                                         [tuple(row) for row in table.tolist()], {}, None)
            assert json_of(report) == json_of(as_tuples)


def test_gnp_scan_json_is_pinned():
    # SHA-256 of the JSON of a scan whose rows were still written as tuples
    for tau, digest in (
        (None, "da74fdd4f5b39f904dc3f00acfee3f891d6d23e69e71f4228d57bfe9f0f37a8c"),
        (0.3, "1c0f1c81d41c4189382428d1f1112e7b54c738bb956b1766b7eda26efcec0168"),
    ):
        text = json_of(run_gnp_scan(n=16, p=0.4, trials=3, seed=21, tau=tau))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, tau


def test_tail_mc_schema_and_monotone_exceedance():
    r = run_tail_mc(p=0.5, k=30, samples=40, xi_list=(0.25, 0.5, 1.0), seed=7)
    assert r.columns == ("model", "size", "xi", "bound", "empirical")
    sym = [row for row in r.rows if row[0] == "sym"]
    gnp = [row for row in r.rows if row[0] == "gnp"]
    rect = [row for row in r.rows if row[0] == "rect"]
    assert len(sym) == 3 and len(gnp) == 3 and len(rect) == 1
    # exceedance is non-increasing in xi (nested events), bounds too
    for rows in (sym, gnp):
        emps = [row[4] for row in rows]
        assert all(a >= b for a, b in zip(emps, emps[1:]))
        bounds = [row[3] for row in rows]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
        assert all(0.0 <= row[3] <= 1.0 and 0.0 <= row[4] <= 1.0 for row in rows)
    # rect row: size = (1+delta) k with the default delta = 1, xi empty in CSV
    assert rect[0][1] == 60 and rect[0][2] is None
    line = [ln for ln in csv_of(r).splitlines() if ln.startswith("rect")][0]
    assert line.split(",")[2] == ""
    # the sym row and ratio come from the symmetric samples' norms
    samples = [sample_sym_xp_matrix(30, 0.5, substream(7, "tails-sym", i)) for i in range(40)]
    norms = np.array([np.abs(np.linalg.eigvalsh(a)).max() for a in samples])
    assert r.extras["median_sym_ratio"] == float(np.median(norms)) / math.sqrt(30)
    assert [row[4] for row in sym] == [
        float((norms >= (1.0 + xi) * math.sqrt(30)).mean()) for xi in (0.25, 0.5, 1.0)
    ]
    assert [row[3] for row in sym] == [min(4 * math.exp(-xi**2 * 30 / 8), 1.0)
                                       for xi in (0.25, 0.5, 1.0)]
    assert [row[3] for row in gnp] == [min(math.exp(-xi**2 * 30 / 32), 1.0)
                                       for xi in (0.25, 0.5, 1.0)]


def test_inner_product_zero_on_regular_graphs():
    # exact d-regular graphs have the constant first eigenvector, so all
    # non-first eigenvectors are orthogonal to the ones vector
    for i, (n, d) in enumerate([(14, 3), (18, 4)]):
        g = sample_regular(n, d, substream(41, "reg-inner", i))
        spectrum = eigendecompose(adjacency_matrix(g))
        sums = np.abs(spectrum.eigenvectors[:, 1:].sum(axis=0))
        assert float(sums.max()) <= 1e-6


def test_inner_product_report():
    r = run_inner_product_check(n=30, p=0.5, trials=8, seed=2)
    assert r.columns == ("trial", "max_inner_product")
    assert len(r.rows) == 8
    values = [row[1] for row in r.rows]
    assert math.isclose(r.extras["global_max"], max(values), rel_tol=1e-12)
    assert all(v >= 0.0 for v in values)


def test_linf_scan_pigeonhole_and_zero_count():
    r = run_linf_scan(n_list=(12, 24), p=0.5, trials=5, seed=19)
    assert r.columns == ("n", "median_linf", "max_linf", "zero_coordinates")
    for row, n in zip(r.rows, (12, 24)):
        # a unit vector has some coordinate of size at least 1/sqrt(n)
        assert row[1] >= 1.0 / math.sqrt(n) - 1e-12
    for rec in r.raw:
        assert min(rec["linf"]) >= 1.0 / math.sqrt(rec["n"]) - 1e-12
    # aggregate median recomputable from raw
    pooled = [x for rec in r.raw if rec["n"] == 12 for x in rec["linf"]]
    assert math.isclose(r.rows[0][1], float(np.median(np.array(pooled))), rel_tol=1e-12)


def test_neighborhood_fact_k1_and_order():
    n, trials = 120, 60
    r = run_neighborhood_fact(n=n, p=0.5, k_list=(1, 2), trials=trials, seed=29)
    k1, k2 = r.rows
    # k=1: union fraction is degree/n, mean close to p; 4 sigma over the
    # pooled trials*n Bernoulli draws is a loose but safe band
    sigma = math.sqrt(0.25 / (trials * (n - 1)))
    assert abs(k1[1] - 0.5) < 4 * sigma + 1.0 / n
    assert k1[2] == 0.5 and k2[2] == 0.75 and k2[5] == 0.25
    # intersection never exceeds union
    assert k2[4] <= k2[1]
    assert r.columns[0] == "k"


def test_neighborhood_fact_matches_neighbour_sets():
    # the same graphs and tuples, with the fractions taken from the
    # adjacency lists as Python sets
    n, p, k_list, trials, seed = 30, 0.3, (1, 2, 3), 4, 11
    r = run_neighborhood_fact(n=n, p=p, k_list=k_list, trials=trials, seed=seed)
    unions = {k: [] for k in k_list}
    inters = {k: [] for k in k_list}
    for t in range(trials):
        adjacency = neighbour_lists(sample_gnp(n, p, substream(seed, "fact", t)))
        gen = substream(seed, "fact-tuples", t).generator()
        for k in k_list:
            hoods = [set(adjacency[x]) for x in gen.choice(n, size=k, replace=False).tolist()]
            unions[k].append(len(set.union(*hoods)) / n)
            inters[k].append(len(set.intersection(*hoods)) / n)
    for row, k in zip(r.rows, k_list):
        assert row[0] == k
        assert row[1] == float(np.mean(unions[k]))
        assert row[4] == float(np.mean(inters[k]))


def test_courant_report_rows():
    r = run_courant_report(source="gnp", n=15, p=0.5, trials=6, seed=37)
    assert r.columns == ("index", "freq_exceeding", "freq_exceeding_connected")
    assert [row[0] for row in r.rows] == list(range(1, 16))
    # index 1 on a connected sample has one weak domain, never more
    disconnected = r.extras["disconnected_trials"]
    if len(disconnected) < 6:
        assert r.rows[0][2] == 0.0
    reg = run_courant_report(source="regular", n=12, d=3, trials=4, seed=37)
    assert len(reg.rows) == 12
    # per index, the share of all trials and of the connected ones whose
    # weak count exceeds it; at p=0.08 no sample is connected
    for p in (0.08, 0.15):
        r = run_courant_report(source="gnp", n=20, p=p, trials=6, seed=37)
        censuses = [nodal_census(g, eigendecompose(adjacency_matrix(g)).eigenvectors)
                    for g in (sample_gnp(20, p, substream(37, "courant-gnp", t)) for t in range(6))]
        connected = [c for c in censuses if c.connected]
        assert len(connected) == 6 - len(r.extras["disconnected_trials"])
        for i, row in enumerate(r.rows):
            exceed = [c.weak_count[i] > i + 1 for c in censuses]
            within = [c.weak_count[i] > i + 1 for c in connected]
            assert row[1:] == (sum(exceed) / 6, sum(within) / len(within) if within else 0.0)


def test_thread_count_does_not_change_bytes():
    for runner, kwargs in (
        (run_fig2, dict(n_list=(18,), trials=6, seed=13)),
        (run_gnp_scan, dict(n=14, trials=6, seed=13)),
        (run_tail_mc, dict(p=0.5, k=16, samples=8, xi_list=(0.5,), seed=13)),
    ):
        solo = runner(**kwargs, threads=1)
        pooled = runner(**kwargs, threads=4)
        assert csv_of(solo) == csv_of(pooled)
        assert json_of(solo) == json_of(pooled)


def test_json_report_shape():
    r = run_fig2(n_list=(16,), trials=4, seed=1)
    payload = json.loads(json_of(r))
    assert set(payload) == {"config", "columns", "rows", "extras", "raw"}
    assert payload["config"]["experiment"] == "fig2"
    assert payload["config"]["seed"] == 1
    assert payload["columns"] == ["n", "trials", "frac_three_domains"]
    # wall-clock time never reaches the serialized form
    assert "wall_clock" not in json.dumps(payload)


def test_csv_floats_use_10_significant_digits():
    r = run_inner_product_check(n=20, p=0.5, trials=3, seed=4)
    text = csv_of(r)
    value_cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    for cell, row in zip(value_cells, r.rows):
        assert cell == f"{row[1]:.10g}"


def test_census_runners_use_no_breadth_first_search(monkeypatch):
    # exp-gnp, exp-fig1 and exp-courant take every count, connectivity
    # included, from the array census: no per-vector domain list, and a
    # labeler pass for connectivity only in a census where no column proves
    # it (one with no zero and one strong domain), once per such census
    import graphnodal.experiments
    import graphnodal.nodal

    calls = {"nodal_census": 0, "connected_components": 0}

    def counted(module, name):
        call = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    def refuse(*args, **kwargs):
        raise AssertionError("weak_nodal_domains called")

    monkeypatch.setattr(graphnodal.experiments, "weak_nodal_domains", refuse)
    counted(graphnodal.experiments, "nodal_census")
    counted(graphnodal.nodal, "connected_components")
    connected = (
        run_gnp_scan(n=20, p=0.2, trials=2, seed=3).extras["disconnected_trials"],
        run_fig1(d_list=(3,), n=20, trials=2, seed=3).extras["disconnected_trials"]["3"],
        run_courant_report(source="gnp", n=20, p=0.2, trials=2, seed=4)
        .extras["disconnected_trials"],
    )
    assert connected == ([], [], [])
    assert calls == {"nodal_census": 6, "connected_components": 0}
    # disconnected samples, and connected ones with every coordinate zero
    flagged = (
        run_gnp_scan(n=40, p=0.02, trials=2, seed=3).extras["disconnected_trials"],
        run_courant_report(source="gnp", n=40, p=0.02, trials=2, seed=3)
        .extras["disconnected_trials"],
        run_fig1(d_list=(3,), n=20, trials=2, seed=3, tau=1.0).extras["disconnected_trials"]["3"],
        run_gnp_scan(n=20, p=0.2, trials=2, seed=3, tau=1.0).extras["disconnected_trials"],
    )
    assert flagged == ([0, 1], [0, 1], [], [])
    assert calls == {"nodal_census": 14, "connected_components": 8}


def test_sweep_raw_records_carry_swept_value_and_trial():
    for report, axis, values in (
        (run_fig1(d_list=(3, 4), n=8, trials=2, seed=1), "d", [3, 4]),
        (run_fig2(n_list=(6, 9), trials=2, seed=1), "n", [6, 9]),
        (run_linf_scan(n_list=(5, 7), trials=2, seed=1), "n", [5, 7]),
    ):
        keys = [(rec[axis], rec["trial"]) for rec in report.raw]
        assert keys == [(x, t) for x in values for t in range(2)]
