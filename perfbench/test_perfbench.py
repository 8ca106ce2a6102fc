"""The benchmark's own tests, on tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (pins BLAS and puts src/ on sys.path)
import graphnodal  # noqa: E402
import numpy  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics, self_times, span_totals  # noqa: E402
from workloads import NAMES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, bench=HERE / "run.py"):
    return subprocess.run([sys.executable, str(bench), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_declared_metrics(name, trace):
    out = run_bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert result["metrics"]["output_ok"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS["full"].values()]


def _bindings():
    namespaces = [graphnodal] + [getattr(graphnodal, m) for m in LAYERS] + [numpy.linalg]
    found = {(ns.__name__, k): v for ns in namespaces for k, v in vars(ns).items()
             if callable(v)}
    for command, spec in graphnodal.cli._COMMANDS.items():
        for i, cell in enumerate(spec["run"].__closure__ or ()):
            found[("closure", command, i)] = cell.cell_contents
    return found


@pytest.mark.parametrize("name", NAMES)
def test_traced_op_restores_names_and_self_times_fit(name, tmp_path):
    workload = WORKLOADS["tiny"][name]
    before = _bindings()
    tracer = Tracer()
    tracer.op = 1
    tracer.install()
    try:
        wrapped = {(getattr(ns, "__name__", "cell"), attr) for ns, attr, _ in tracer.patched}
        assert ("graphnodal.nodal", "connected_components") in wrapped
        assert ("graphnodal.experiments", "sample_gnp") in wrapped
        assert ("numpy.linalg", "eigh") in wrapped
        # cli keeps run_fig1, run_fig2 and run_gnp_scan in closures
        assert sum(attr == "cell_contents" for _, attr, _ in tracer.patched) == 3
        assert graphnodal.nodal.connected_components is not before[
            ("graphnodal.nodal", "connected_components")]
        _, ok, sha, _ = worker.run_op(workload, 0, tmp_path)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    golden = json.loads(worker.GOLDEN.read_text(encoding="utf-8"))["tiny"][name]
    assert ok and sha == golden["0"]
    assert tracer.spans
    own = self_times(tracer.spans)
    for _, sid, _, _, start, end in tracer.spans:
        assert 0.0 <= own[sid] <= end - start
    for span, t in span_totals(tracer.spans).items():
        assert t["self_s"] <= t["s"], span
    metrics = layer_metrics(tracer, 1)
    assert metrics["spectral.eigendecompose.self_s"] <= metrics["spectral.eigendecompose.s"]
    assert metrics["experiments.run.self_s"] <= metrics["experiments.run.s"]
    if workload.argv is not None:
        assert metrics["experiments.run.s"] > 0
    assert metrics["cli.main.self_s"] > 0


def test_refuses_to_time_with_unpinned_blas():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("BLAS cannot run more than one thread here")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    code = ("import numpy, runpy, sys; sys.argv = ['worker.py', '--workload', "
            "'census_dense', '--scale', 'tiny', '--seconds', '0.1']; "
            f"runpy.run_path({str(HERE / 'worker.py')!r}, run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 3
    assert "refusing to time" in out.stderr
    assert out.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "census_dense", "--seconds", "1",
                    cwd=tmp_path, bench=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
