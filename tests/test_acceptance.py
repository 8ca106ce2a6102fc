"""Acceptance gate: the ten headline checks, one test each.

Each test prints a single [ACCEPTANCE n] PASS/FAIL line (visible in the -rA
summary) and then asserts.  Tolerances and sizes are fixed here on purpose;
they define what "working" means for this package:

  1  every non-first eigenvector of G(100, 1/2) splits into exactly two
     weak (= strong) domains with no exceptional or zero vertices
  2  mean domain counts across the spectrum of 3-regular 300-vertex graphs:
     2.0 +/- 0.1 at index 2, growing past 2.5 toward the right edge
  3  a positive, stable fraction of G(100, 1/2) has a 3-domain top
     Laplacian eigenvector
  4  the constants grid search: k non-increasing in p, k(1/2) within a
     factor 2 of the published 46, self-certifying, table match reported
  5  operator-norm tail bounds: zero exceedances at xi = 1/2, median norm
     where the asymptotics put it
  6  max |<f,1>| over non-first eigenvectors stays below 4
  7  fast domain computation == exhaustive oracle on 200 small instances
  8  eigensolver certificates and the regular-graph duality mu = d - lambda
  9  sup-norm medians shrink with n; no zero coordinates ever
 10  byte-identical outputs for every thread count
"""

import io
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from graphnodal import (
    Graph,
    adjacency_matrix,
    eigendecompose,
    exceptional_bound_k,
    laplacian_matrix,
    reference_k,
    sample_regular,
    strong_nodal_domains,
    substream,
    weak_nodal_domains,
)
from graphnodal.bounds import REFERENCE_K_TABLE
from graphnodal.cli import main as cli_main
from graphnodal.experiments import (
    run_fig1,
    run_fig2,
    run_gnp_scan,
    run_inner_product_check,
    run_linf_scan,
    run_tail_mc,
    write_report_csv,
)
from nodal_reference import brute_force_domains, reference_signs


def check(num: int, condition: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num}] {'PASS' if condition else 'FAIL'} - {detail}")
    assert condition, f"acceptance criterion {num} failed: {detail}"


def test_acceptance_1_two_domain_phenomenon():
    start = time.monotonic()
    r = run_gnp_scan(n=100, p=0.5, trials=20, seed=0, threads=4)
    elapsed = time.monotonic() - start
    bad = 0
    for row in r.rows:
        _, index, weak, strong, _, _, e_size, z_size, _ = row
        if index == 1:
            bad += weak != 1
        else:
            bad += not (weak == 2 and strong == 2 and e_size == 0 and z_size == 0)
    ok = bad == 0 and elapsed < 120.0
    check(1, ok, f"violations={bad}/2000, elapsed={elapsed:.1f}s (limit 120s)")


def test_acceptance_2_regular_spectrum_shape():
    start = time.monotonic()
    r = run_fig1(d_list=(3,), n=300, trials=20, seed=0, threads=4)
    elapsed = time.monotonic() - start
    means = [row[2] for row in r.rows]
    mean_idx2 = means[1]
    peak = max(means)
    ok = abs(mean_idx2 - 2.0) <= 0.1 and peak > 2.5 and elapsed < 600.0
    check(
        2, ok,
        f"mean@2={mean_idx2:.3f} (want 2.0+/-0.1), max mean={peak:.2f} "
        f"(want >2.5), elapsed={elapsed:.0f}s (limit 600s)",
    )


def test_acceptance_3_three_domain_fraction():
    r = run_fig2(n_list=(100,), trials=500, p=0.5, seed=0, threads=4)
    frac = r.rows[0][2]
    counts = [rec["weak_count"] for rec in r.raw]
    h1 = sum(1 for c in counts[:250] if c == 3) / 250.0
    h2 = sum(1 for c in counts[250:] if c == 3) / 250.0
    ok = frac > 0.0 and abs(h1 - h2) <= 0.1
    check(3, ok, f"fraction={frac:.3f} (>0), halves {h1:.3f}/{h2:.3f} within 0.1")


def test_acceptance_4_constants_pipeline():
    results = {p: exceptional_bound_k(p) for p, _ in REFERENCE_K_TABLE}
    ps = sorted(results)
    ks = [results[p].k for p in ps]
    monotone = all(a >= b for a, b in zip(ks, ks[1:]))
    k_half = results[0.5].k
    in_range = 23 <= k_half <= 92

    # self-certification at every point: holds at k, fails at k+1
    certified = True
    for p in ps:
        res = results[p]
        u = 0.5 - res.params.epsilon

        def holds(k):
            wk = (1.0 - p) ** k
            return wk < u and math.sqrt(wk) >= res.r * (u - wk)

        certified = certified and holds(res.k) and not holds(res.k + 1)

    matches = sum(1 for p in ps if results[p].k == reference_k(p))
    ok = monotone and in_range and certified
    check(
        4, ok,
        f"k non-increasing={monotone}, k(0.5)={k_half} in [23,92]={in_range}, "
        f"self-certified={certified}, table matches reported: {matches}/16",
    )


def test_acceptance_5_tail_bounds():
    start = time.monotonic()
    r = run_tail_mc(p=0.5, k=200, samples=200, xi_list=(0.25, 0.5, 1.0, 2.0),
                    seed=0, threads=4)
    elapsed = time.monotonic() - start
    by_key = {(row[0], row[2]): row[4] for row in r.rows}
    sym_half = by_key[("sym", 0.5)]
    gnp_half = by_key[("gnp", 0.5)]
    median_ratio = r.extras["median_sym_ratio"]
    ok = (
        sym_half == 0.0 and gnp_half == 0.0
        and 0.85 <= median_ratio <= 1.15
        and elapsed < 300.0
    )
    check(
        5, ok,
        f"exceedance@xi=0.5: sym={sym_half}, gnp={gnp_half} (want 0), "
        f"median ratio={median_ratio:.3f} in [0.85,1.15], "
        f"elapsed={elapsed:.0f}s (limit 300s)",
    )


def test_acceptance_6_inner_products():
    r = run_inner_product_check(n=200, p=0.5, trials=50, seed=0, threads=4)
    worst = r.extras["global_max"]
    ok = worst <= 4.0
    check(6, ok, f"max non-first |<f,1>|={worst:.3f} (limit 4)")


def test_acceptance_7_oracle_equivalence():
    gen = substream(2718, "acceptance-oracle").generator()
    mismatches = 0
    for _ in range(200):
        n = int(gen.integers(1, 9))
        pairs = list(itertools.combinations(range(n), 2))
        edges = [e for e in pairs if gen.random() < 0.45]
        g = Graph.from_edges(n, edges)
        values = [
            float(Fraction(int(gen.integers(-2, 3)), int(gen.integers(1, 4))))
            for _ in range(n)
        ]
        signs = reference_signs(values, 0.0)
        for kind, fast in (("weak", weak_nodal_domains), ("strong", strong_nodal_domains)):
            if fast(g, values, 0.0).domains != brute_force_domains(g, signs, kind).domains:
                mismatches += 1
    check(7, mismatches == 0, f"mismatches={mismatches}/400 comparisons over 200 instances")


def test_acceptance_8_eigensolver_contract():
    gen = substream(515, "acceptance-eigs").generator()
    residual_ok = ortho_ok = trace_ok = True
    for _ in range(100):
        n = int(gen.integers(2, 301))
        m = gen.uniform(-1.0, 1.0, size=(n, n))
        a = (m + m.T) / 2.0
        spectrum = eigendecompose(a)
        fro = float(np.linalg.norm(a))
        residual_ok = residual_ok and spectrum.residual_bound <= 1e-8 * (1.0 + fro)
        ortho_ok = ortho_ok and spectrum.orthogonality_defect <= 1e-8
        tr = float(np.trace(a))
        trace_ok = trace_ok and abs(spectrum.eigenvalues.sum() - tr) <= 1e-6 * max(1.0, abs(tr))

    duality_worst = 0.0
    for i in range(10):
        n = int(gen.integers(8, 40)) * 2
        d = int(gen.integers(3, 6))
        g = sample_regular(n, d, substream(515, "acceptance-dual", i))
        lam = eigendecompose(adjacency_matrix(g), "descending").eigenvalues
        mu = eigendecompose(laplacian_matrix(g), "ascending").eigenvalues
        duality_worst = max(duality_worst, float(np.abs(mu - (d - lam)).max()))

    ok = residual_ok and ortho_ok and trace_ok and duality_worst <= 1e-6
    check(
        8, ok,
        f"residual ok={residual_ok}, orthogonality ok={ortho_ok}, "
        f"trace ok={trace_ok}, duality worst={duality_worst:.2e} (limit 1e-6)",
    )


def test_acceptance_9_linf_scan():
    r = run_linf_scan(n_list=(50, 100, 200, 400), p=0.5, trials=20, seed=0, threads=4)
    medians = [row[1] for row in r.rows]
    zeros = sum(row[3] for row in r.rows)
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    ok = decreasing and zeros == 0
    check(
        9, ok,
        "medians " + " > ".join(f"{m:.4f}" for m in medians)
        + f" strictly decreasing={decreasing}, zero coordinates={zeros}",
    )


def test_acceptance_10_thread_determinism(tmp_path, capsys):
    # file-level check through the CLI plus an in-process report check
    args = ["exp-gnp", "--n", "60", "--trials", "10", "--seed", "0"]
    paths = [tmp_path / f"run{t}.csv" for t in (1, 2, 8)]
    for threads, path in zip((1, 2, 8), paths):
        code = cli_main(args + ["--threads", str(threads), "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    blobs = [p.read_bytes() for p in paths]
    files_equal = blobs[0] == blobs[1] == blobs[2]

    def fig2_csv(threads):
        buf = io.StringIO()
        write_report_csv(run_fig2(n_list=(40,), trials=12, seed=6, threads=threads), buf)
        return buf.getvalue()

    reports_equal = fig2_csv(1) == fig2_csv(5)
    ok = files_equal and reports_equal
    check(10, ok, f"CLI files identical={files_equal}, report bytes identical={reports_equal}")
