"""graphnodal benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload in turn

Run from anywhere inside a checkout that holds src/graphnodal.  The
workload runs in its own fresh interpreter (worker.py) with BLAS pinned to
one thread; set-up is the median import of graphnodal in fresh
interpreters that the worker starts after each of an op's CLI steps.  --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones from a traced run plus the
tracing overhead.  Every op's output is checked against golden.json.

The op's absolute wall time is printed as a comment line, wall_s, but is
not a gated metric: on a shared host it moves by a third between runs of
the same code.  eigh_overhead_x, the op's wall time over bare eigh timed
in slices interleaved with it, carries the op's speed instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import NAMES, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    out = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def one_workload(args) -> dict:
    raw = run_worker(args)
    walls = raw["walls"]
    attempted, failed = raw["attempted"], raw["failed"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# env: {json.dumps(raw['env'], sort_keys=True)}")
    wall = statistics.median(walls)
    print(f"# wall_s: median {wall:.4f} s of {len(walls)} ops "
          f"(min {min(walls):.4f}, max {max(walls):.4f}); not gated")
    if args.trace:
        values = raw["layers"]
        print(f"# traced wall_s: median {statistics.median(raw['traced_walls']):.4f} s "
              f"of {len(raw['traced_walls'])} ops")
        entries = spec["per_layer"]
    else:
        print(f"# eigh reference: median {statistics.median(raw['refs']):.4f} s per op")
        print(f"# setup_s: median of {len(raw['setups'])} imports")
        values = {
            "setup_s": statistics.median(raw["setups"]),
            "eigh_overhead_x": statistics.median(raw["ratios"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "output_ok": (attempted - failed) / attempted,
        }
        entries = spec["end_to_end"]
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(WORKLOADS), default="full",
                        help="tiny sizes are for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "graphnodal" / "__init__.py").is_file():
        print(f"error: no src/graphnodal under {ROOT}", file=sys.stderr)
        return 2
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        print(json.dumps(one_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
