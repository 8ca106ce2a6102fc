"""One workload run in a fresh interpreter (started by run.py).

Pins BLAS to one thread before numpy loads, checks that the pin took, then
runs ops of one workload in-process through graphnodal.cli.main until the
time budget is spent and prints one JSON line with the raw measurements.

Every run starts with one untimed warm-up op.  Untraced runs time each op
and, in slices before it and after each of its CLI steps, bare
numpy.linalg.eigh on as many same-size symmetric 0/1 matrices as the op
decomposes; the op's eigh overhead is its wall time over the mean slice.
The slices interleave with the op because a shared host's speed drifts by
up to 1.7x within seconds, and a ratio of times taken together cancels
the drift that absolute times carry.  For the same reason set-up, the
import of graphnodal in a fresh interpreter, is timed after each step
rather than all at once.  Traced runs run every op seed twice,
once untraced and once under the span tracer, alternating which goes first.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--scale tiny]
    python3 perfbench/worker.py --record-golden   # rewrite golden.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import graphnodal.cli  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import REFERENCE_P, WORKLOADS  # noqa: E402

GOLDEN = HERE / "golden.json"
REF_SHARE = 0.25
MIN_IMPORTS = 10
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import graphnodal; "
    "print(time.perf_counter() - t)"
)


# ------------------------------------------------------------- environment


def _openblas():
    """The loaded OpenBLAS library and its symbol suffix, or (None, None)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return lib, (prefix, suffix)
    return None, None


def blas_threads() -> int | None:
    lib, sym = _openblas()
    if lib is None:
        return None
    get = getattr(lib, f"{sym[0]}_get_num_threads{sym[1]}")
    get.restype = ctypes.c_int
    return int(get())


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, sym = _openblas()
    runtime = None
    if lib is not None:
        get = getattr(lib, f"{sym[0]}_get_config{sym[1]}")
        get.restype = ctypes.c_char_p
        runtime = get().decode()
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime,
        "blas_threads": blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------- ops


def payload_sha(text: str, digest=None):
    """SHA-256 of the payload: the output after its two '#' header lines,
    which echo argv and so temp paths."""
    lines = text.split("\n", 2)
    if len(lines) == 3 and lines[0].startswith("#") and lines[1].startswith("#"):
        text = lines[2]
    digest = digest or hashlib.sha256()
    digest.update(text.encode())
    return digest


def _nothing() -> None:
    pass


def _cli(argv: list[str], between=_nothing) -> tuple[int, str, float]:
    """One timed CLI call; `between` runs after it, outside the timing."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = graphnodal.cli.main(argv)  # looked up per call, so tracing sees it
        wall = time.perf_counter() - start
    between()
    return code, buf.getvalue(), wall


def run_exp(argv: list[str], between=_nothing) -> tuple[float, bool, str, int]:
    code, out, wall = _cli(argv, between)
    if code != 0:
        return wall, False, "", len(out)
    return wall, True, payload_sha(out).hexdigest(), len(out)


def run_pipeline(seed: int, n: int, work: Path,
                 between=_nothing) -> tuple[float, bool, str, int]:
    """The wall time is the sum of the six CLI calls; extracting eigenvector
    2 for summary and domains is the benchmark's work and is not timed."""
    graph, spectrum, vector = work / "g.txt", work / "spectrum.csv", work / "v.txt"
    to_files = [
        ["gen-gnp", "--n", str(n), "--p", "0.5", "--seed", str(seed), "--out", str(graph)],
        ["spectrum", "--graph", str(graph), "--out", str(spectrum)],
    ]
    to_stdout = [
        ["summary", "--graph", str(graph), "--vector", str(vector)],
        ["domains", "--graph", str(graph), "--vector", str(vector), "--kind", "strong"],
        ["constants", "--p-list", REFERENCE_P],
        ["kp", "--p-list", REFERENCE_P],
    ]
    wall = 0.0
    for argv in to_files:
        code, _, took = _cli(argv, between)
        wall += took
        if code != 0:
            return wall, False, "", 0
    with open(spectrum, encoding="utf-8") as fh:
        row = [fh.readline() for _ in range(4)][3]  # two header lines, then eigenpairs 1, 2
    with open(vector, "w", encoding="utf-8") as fh:
        fh.write("\n".join(row.rstrip("\n").split(",")[2:]) + "\n")
    outputs = []
    for argv in to_stdout:
        code, out, took = _cli(argv, between)
        wall += took
        if code != 0:
            return wall, False, "", 0
        outputs.append(out)
    outputs[:0] = [graph.read_text(encoding="utf-8"), spectrum.read_text(encoding="utf-8")]
    digest = hashlib.sha256()
    for out in outputs:
        payload_sha(out, digest)
    return wall, True, digest.hexdigest(), sum(len(out) for out in outputs)


def run_op(workload, seed: int, work: Path, between=_nothing):
    """(wall, ok, payload sha, output bytes) of one op; `between` runs
    untimed after each of its CLI calls."""
    if workload.argv is None:
        return run_pipeline(seed, workload.pipeline_n, work, between)
    return run_exp(workload.argv(seed), between)


def import_time() -> float:
    """Import time of graphnodal in a fresh interpreter, which inherits the
    BLAS pin and the package path."""
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def reference_matrices(workload, seed: int) -> list[np.ndarray]:
    """Symmetric 0/1 matrices, zero diagonal, drawn from the benchmark seed."""
    rng = np.random.default_rng(seed)
    mats = []
    for n, density, count in workload.eigh:
        for _ in range(count):
            upper = np.triu(rng.random((n, n)) < density, k=1).astype(np.float64)
            mats.append(upper + upper.T)
    return mats


def time_reference(mats: list[np.ndarray], pool: ThreadPoolExecutor | None,
                   reps: int = 1) -> float:
    """Mean time of bare eigh on all of mats, over reps back-to-back passes
    whose matrices the pool's threads share, or this thread without a pool."""
    run = pool.map if pool else map
    start = time.perf_counter()
    for _ in range(reps):
        for _ in run(np.linalg.eigh, mats):
            pass
    return (time.perf_counter() - start) / reps


@contextlib.contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def op_seeds(workload, seed: int):
    order = list(range(workload.pool))
    random.Random(seed).shuffle(order)
    while True:
        yield from order


# --------------------------------------------------------------------- main


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    workload = WORKLOADS[scale][name]
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[scale][name]
    result = {"walls": [], "traced_walls": [], "refs": [], "ratios": [], "setups": [],
              "attempted": 0, "failed": 0}
    tracer = Tracer()

    def op(op_seed: int, work: Path, traced: bool = False, between=_nothing) -> float:
        if traced:
            tracer.op += 1
            tracer.install()
        try:
            wall, ok, sha, size = run_op(workload, op_seed, work, between)
        finally:
            tracer.uninstall()
        result["attempted"] += 1
        if not ok or golden.get(str(op_seed)) != sha:
            result["failed"] += 1
            print(f"op seed {op_seed}: output mismatch or nonzero exit", file=sys.stderr)
        if traced:
            tracer.counts["cli.output_bytes"] += size
        return wall

    # a pool only for multi-threaded ops: its threads' malloc arenas would
    # add the reference's memory to peak_rss_mb
    threaded = ThreadPoolExecutor(workload.threads) if workload.threads > 1 else None
    with workdir() as work, threaded or contextlib.nullcontext() as pool:
        seeds = op_seeds(workload, seed)
        first = next(seeds)
        steps = []
        warm_wall = op(first, work, between=lambda: steps.append(None))
        if not trace:
            mats = reference_matrices(workload, seed)
            # eigh slices before the op and after each step take about
            # REF_SHARE of the op's time, so they sample the same machine speed
            reps = max(1, int(REF_SHARE * warm_wall
                              / ((len(steps) + 1) * time_reference(mats, pool))))
            slices = []

            def ref_slice() -> None:
                slices.append(time_reference(mats, pool, reps))

            def after_step() -> None:
                ref_slice()
                result["setups"].append(import_time())

        seeds = itertools.chain([first], seeds)
        deadline = time.perf_counter() + seconds
        rounds = []
        # stop before a round that would end past the deadline, so a run
        # measures for at most its budget whatever the op size
        while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
            began = time.perf_counter()
            op_seed = next(seeds)
            if trace:
                untraced_first = len(rounds) % 2 == 0
                for traced in (not untraced_first, untraced_first):
                    wall = op(op_seed, work, traced=traced)
                    result["traced_walls" if traced else "walls"].append(wall)
            else:
                slices.clear()
                ref_slice()
                wall = op(op_seed, work, between=after_step)
                ref = statistics.fmean(slices)
                result["walls"].append(wall)
                result["refs"].append(ref)
                result["ratios"].append(wall / ref)
            rounds.append(time.perf_counter() - began)
    if trace:
        result["layers"] = layer_metrics(tracer, len(result["traced_walls"]))
        # both ops of a pair share an input and run back to back
        result["layers"]["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(result["traced_walls"], result["walls"]))
    else:
        while len(result["setups"]) < MIN_IMPORTS:
            result["setups"].append(import_time())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def record_golden() -> None:
    """Rewrite golden.json from the package as it stands."""
    table = {}
    with workdir() as work:
        for scale, workloads in WORKLOADS.items():
            table[scale] = {}
            for name, workload in workloads.items():
                hashes = {}
                for op_seed in range(workload.pool):
                    _, ok, sha, _ = run_op(workload, op_seed, work)
                    if not ok:
                        raise SystemExit(f"{name} op seed {op_seed} failed")
                    hashes[str(op_seed)] = sha
                table[scale][name] = hashes
                print(f"recorded {scale}/{name}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(WORKLOADS), default="full")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    threads = blas_threads()
    if threads is not None and threads != 1:
        print(f"BLAS runs {threads} threads, not 1: refusing to time", file=sys.stderr)
        return 3
    if args.record_golden:
        record_golden()
        return 0
    if args.workload not in WORKLOADS[args.scale]:
        parser.error(f"unknown workload {args.workload!r}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
