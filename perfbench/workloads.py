"""The benchmark's workloads: what each one runs and why it exists.

Every op is one in-process `graphnodal.cli.main` call (or, for
cli_pipeline, a chain of them) with arguments generated from an op seed.
Op seeds come from a fixed pool per workload, so each op's output can be
checked against a golden SHA-256 recorded once (see golden.json); the
benchmark's `--seed` picks the order in which pool seeds are used.

n, p, d and the thread setting of each workload are the ones that decide
which layer dominates; only trial counts were scaled down so that one op
takes about a second on a 2-core x86-64 box with BLAS pinned to one
thread (cli_pipeline has no trials and takes about 5 s).

Layer -> end-to-end metric -> workload map (per-layer metric names as in
BENCHMARK.json; each should move the end-to-end metric named).  An op's
wall time, wall_s, is printed but not gated, since on a shared host it
drifts more between runs than any bound it could have; a layer that
changes the op's time moves eigh_overhead_x, wall_s over bare eigh timed
in slices interleaved with the op:

  graph_core.{sample_gnp,sample_regular,adjacency_matrix,laplacian_matrix,
  read_graph,write_graph}.s, graph_core.{sample_gnp,connected_components}
  .calls -> eigh_overhead_x on fig2_sweep and cli_pipeline
  graph_core.connected_components.s, nodal.{nodal_summary,
  weak_nodal_domains,strong_nodal_domains}.{calls,self_s}
  -> eigh_overhead_x on census_dense and regular_sparse
  spectral.eigendecompose.{s,self_s}, spectral.eigh.s
  -> eigh_overhead_x on fig2_sweep (self_s is the sign and ordering
  conventions plus the certificate products)
  spectral.write_spectrum_csv.{s,bytes}, bounds.exceptional_bound_k.
  {calls,s}, cli.main.self_s, cli.output_bytes
  -> eigh_overhead_x, peak_rss_mb on cli_pipeline
  experiments.run.{s,self_s}, experiments.busy_s,
  experiments.parallel_efficiency -> eigh_overhead_x on fig2_sweep
  experiments.write_report.s -> eigh_overhead_x on every exp-* workload

Left out: exp-gnp at n=1000.  One trial takes about 52 s with the
pure-Python nodal layer, too long for a run; it waits for the vectorized
nodal layer (ROADMAP item 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# the 16 p of bounds.REFERENCE_K_TABLE, written out so that generating the
# arguments needs no import of the package under test
REFERENCE_P = "0.78,0.74,0.7,0.66,0.62,0.58,0.54,0.5,0.46,0.42,0.38,0.34,0.3,0.26,0.22,0.18"


@dataclass(frozen=True)
class Workload:
    """argv(op_seed) builds an exp-* op; cli_pipeline has no argv and
    instead the graph size pipeline_n of its command chain.

    eigh lists (matrix size, edge density, count) of the dense eigensolves
    one op makes; the reference timer runs bare numpy eigh on that many
    symmetric 0/1 matrices of those sizes, spread over as many threads as
    the op runs, so that it sees the speed of every core the op uses.
    """

    name: str
    why: str
    argv: Callable[[int], list[str]] | None
    eigh: tuple[tuple[int, float, int], ...]
    pool: int
    threads: int = 1
    pipeline_n: int = 0


def _exp(*args: str) -> Callable[[int], list[str]]:
    return lambda seed: [*args, "--seed", str(seed)]


def _workloads(scale: str) -> dict[str, Workload]:
    tiny = scale == "tiny"
    gnp_n = 20 if tiny else 200
    gnp_trials = 1 if tiny else 3
    fig2_ns = (10, 20) if tiny else (100, 300)
    fig2_trials = 4 if tiny else 16
    reg_n = 20 if tiny else 300
    reg_trials = 1 if tiny else 2
    cli_n = 30 if tiny else 800
    pool = 4 if tiny else 32
    items = [
        Workload(
            "census_dense",
            "exp-gnp n=200 p=0.5: per-vector nodal census on dense graphs, "
            "where BFS connected_components and nodal self time dominate an op",
            _exp("exp-gnp", "--n", str(gnp_n), "--p", "0.5",
                 "--trials", str(gnp_trials), "--threads", "1"),
            ((gnp_n, 0.5, gnp_trials),),
            pool,
        ),
        Workload(
            "fig2_sweep",
            "exp-fig2 n=100,300 on 2 threads: sampling, Laplacian build and eigh "
            "dominate; the only workload on the thread pool",
            _exp("exp-fig2", "--n-list", ",".join(map(str, fig2_ns)),
                 "--trials", str(fig2_trials), "--threads", "2"),
            tuple((n, 0.5, fig2_trials) for n in fig2_ns),
            pool,
            threads=2,
        ),
        Workload(
            "regular_sparse",
            "exp-fig1 d=3,4 n=300: sparse graphs with many domains, weak and strong "
            "counts for every vector and rejection sampling",
            _exp("exp-fig1", "--d-list", "3,4", "--n", str(reg_n),
                 "--trials", str(reg_trials), "--threads", "1"),
            tuple((reg_n, d / (reg_n - 1), reg_trials) for d in (3, 4)),
            pool,
        ),
        Workload(
            "cli_pipeline",
            "gen-gnp n=800, spectrum, summary, domains, constants, kp: graph IO, "
            "17-digit spectrum CSV and the constants search no exp-* reaches",
            None,
            ((cli_n, 0.5, 1),),
            4 if tiny else 12,
            pipeline_n=cli_n,
        ),
    ]
    return {w.name: w for w in items}


WORKLOADS = {scale: _workloads(scale) for scale in ("full", "tiny")}
NAMES = tuple(WORKLOADS["full"])
