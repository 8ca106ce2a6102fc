"""Experiment harness: schemas, determinism, and small-scale sanity checks.

Configs here are deliberately tiny; the full-scale settings live in the
acceptance suite.  Every check that depends on randomness uses a fixed
master seed and the harness's own substream discipline.
"""

import io
import json
import math

import numpy as np

from graphnodal import adjacency_matrix, eigendecompose, sample_regular, substream
from graphnodal.experiments import (
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


def test_fig1_multiple_degrees_are_independent():
    both = run_fig1(d_list=(2, 4), n=12, trials=4, seed=5)
    solo = run_fig1(d_list=(4,), n=12, trials=4, seed=5)
    d4_rows = [row for row in both.rows if row[0] == 4]
    assert d4_rows == [row for row in solo.rows]


def test_fig2_counts_and_fraction():
    r = run_fig2(n_list=(24,), trials=12, p=0.5, seed=3)
    assert r.columns == ("n", "trials", "frac_three_domains")
    (n, trials, frac), = r.rows
    counts = [rec["weak_count"] for rec in r.raw]
    assert n == 24 and trials == 12 and len(counts) == 12
    assert frac == sum(1 for c in counts if c == 3) / 12
    hist = r.extras["count_histogram"]["24"]
    assert sum(hist.values()) == 12


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
    # included, from the array census
    import graphnodal.graph_core
    import graphnodal.nodal

    def refuse(*args, **kwargs):
        raise AssertionError("connected_components called")

    for module in (graphnodal.graph_core, graphnodal.nodal):
        monkeypatch.setattr(module, "connected_components", refuse)
    run_gnp_scan(n=20, p=0.2, trials=2, seed=3)
    run_fig1(d_list=(3,), n=20, trials=2, seed=3)
    run_courant_report(source="gnp", n=20, p=0.2, trials=2, seed=3)
