"""Command-line behavior: formats, exit codes, config merging, determinism.

Everything runs in-process through main(argv) so exit codes and outputs are
observable without a subprocess.
"""

import inspect
import io
import json

import pytest

from graphnodal import cli, read_graph
from graphnodal.cli import main
from graphnodal.experiments import (
    run_courant_report,
    run_fig1,
    run_fig2,
    run_gnp_scan,
    run_inner_product_check,
    run_linf_scan,
    run_neighborhood_fact,
    run_tail_mc,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_lines(text):
    """Output lines with the leading '#' comment lines stripped."""
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def write_path_graph(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    vpath = tmp_path / "f.csv"
    vpath.write_text("1\n0\n-1\n", encoding="utf-8")
    return str(gpath), str(vpath)


def test_gen_gnp_complete_graph(capsys):
    code, out, _ = run_cli(capsys, "gen-gnp", "--n", "5", "--p", "1", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# graphnodal ")
    assert "argv: gen-gnp --n 5 --p 1 --seed 7" in lines[0]
    assert "seed: 7" in lines[0]
    assert lines[1].startswith("# config: ")
    g = read_graph(io.StringIO(out))
    assert g.n == 5 and g.num_edges == 10


def test_gen_regular_writes_parsable_graph(tmp_path, capsys):
    out_path = tmp_path / "reg.txt"
    code, _, _ = run_cli(
        capsys, "gen-regular", "--n", "10", "--d", "3", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    g = read_graph(str(out_path))
    assert g.degrees().tolist() == [3] * 10


def test_exit_codes(tmp_path, capsys):
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys, "gen-gnp", "--n", "5", "--p", "0.5", "--bogus", "1")[0] == 1
    assert run_cli(capsys, "gen-gnp", "--p", "0.5")[0] == 1  # missing --n
    assert run_cli(capsys, "gen-gnp", "--n", "5", "--p", "1.5")[0] == 1  # range
    assert run_cli(capsys, "gen-gnp", "--n", "x", "--p", "0.5")[0] == 1  # not a number
    code, _, err = run_cli(capsys, "spectrum", "--graph", str(tmp_path / "missing.txt"))
    assert code == 2 and "error:" in err
    # malformed input file is a runtime failure, not a usage error
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 1\n", encoding="utf-8")
    assert run_cli(capsys, "spectrum", "--graph", str(bad))[0] == 2
    # a vertex count too large for the edge check fails as a bad header does
    for header in ("0 1", "4294967296 1"):
        bad.write_text(f"{header}\n2147483648 2147483649\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "summary", "--graph", str(bad), "--vector", str(bad))
        assert code == 2 and err.startswith("error: line 1: vertex count"), err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["gen-gnp", "--help"]) == 0
    capsys.readouterr()


def test_spectrum_csv_descending(tmp_path, capsys):
    gpath, _ = write_path_graph(tmp_path)
    code, out, _ = run_cli(capsys, "spectrum", "--graph", gpath)
    assert code == 0
    rows = [ln.split(",") for ln in body_lines(out)]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    values = [float(r[1]) for r in rows]
    assert values == sorted(values, reverse=True)
    # path on 3 vertices: adjacency eigenvalues sqrt(2), 0, -sqrt(2)
    assert abs(values[0] - 2**0.5) < 1e-12 and abs(values[1]) < 1e-12


def test_spectrum_laplacian_defaults_ascending(tmp_path, capsys):
    gpath, _ = write_path_graph(tmp_path)
    code, out, _ = run_cli(capsys, "spectrum", "--graph", gpath, "--matrix", "laplacian")
    assert code == 0
    values = [float(ln.split(",")[1]) for ln in body_lines(out)]
    assert values == sorted(values)
    assert abs(values[0]) < 1e-12


def test_domains_weak_path(tmp_path, capsys):
    gpath, vpath = write_path_graph(tmp_path)
    code, out, _ = run_cli(
        capsys, "domains", "--graph", gpath, "--vector", vpath, "--kind", "weak"
    )
    assert code == 0
    assert body_lines(out) == ["weak,+,2,0;1", "weak,-,2,1;2"]
    code, out, _ = run_cli(
        capsys, "domains", "--graph", gpath, "--vector", vpath, "--kind", "strong",
        "--format", "json",
    )
    payload = json.loads("\n".join(body_lines(out)))
    assert payload["count"] == 2
    assert payload["domains"] == [
        {"sign": "+", "vertices": [0]},
        {"sign": "-", "vertices": [2]},
    ]


def test_vector_length_mismatch_is_runtime_error(tmp_path, capsys):
    gpath, _ = write_path_graph(tmp_path)
    vpath = tmp_path / "short.csv"
    vpath.write_text("1\n-1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "domains", "--graph", gpath, "--vector", str(vpath))
    assert code == 2 and "2 values" in err


def test_summary_json(tmp_path, capsys):
    gpath, vpath = write_path_graph(tmp_path)
    code, out, _ = run_cli(capsys, "summary", "--graph", gpath, "--vector", vpath)
    assert code == 0
    expected = {
        "P_size": 2, "N_size": 2, "E_size": 0, "Z_size": 1,
        "weak_count": 2, "strong_count": 2, "E_cap_Z": 0,
    }
    body = "".join(out.splitlines(keepends=True)[2:])
    assert body == json.dumps(expected, indent=1, sort_keys=True) + "\n"


def test_constants_row_contents(capsys):
    code, out, _ = run_cli(capsys, "constants", "--p", "0.5")
    assert code == 0
    header, row = body_lines(out)
    cols = header.split(",")
    cells = dict(zip(cols, row.split(",")))
    assert cols[0] == "p" and "reference_k" in cols and "matches_reference" in cols
    assert float(cells["p"]) == 0.5
    k = int(cells["k"])
    assert 23 <= k <= 92
    assert cells["feasible"] == "true"
    assert int(cells["reference_k"]) == 46
    assert cells["matches_reference"] == ("true" if k == 46 else "false")
    # alpha and r positive at the selected point
    assert float(cells["alpha"]) > 0 and float(cells["r"]) > 0


def test_constants_custom_grid_failure_is_runtime(capsys):
    code, _, err = run_cli(
        capsys, "constants", "--p", "0.5",
        "--deltas", "1.0", "--thetas", "0.5", "--gamma-fractions", "0.5",
        "--epsilon-gaps", "0.1", "--xi1s", "1.0", "--xi2s", "1.0",
    )
    assert code == 2 and "no feasible grid point" in err


def test_kp_values(capsys):
    code, out, _ = run_cli(capsys, "kp", "--p-list", "0.21,0.3,0.5,0.75")
    assert code == 0
    lines = body_lines(out)
    assert lines[0] == "p,kp"
    ks = [int(ln.split(",")[1]) for ln in lines[1:]]
    assert ks == [2, 1, 1, 0]


def test_constants_and_kp_csv_floats_use_17_significant_digits(capsys):
    _, out, _ = run_cli(capsys, "kp", "--p-list", "0.1")
    assert body_lines(out)[1].split(",")[0] == "0.10000000000000001"
    _, out, _ = run_cli(capsys, "constants", "--p", "0.5")
    header, row = body_lines(out)
    cells = dict(zip(header.split(","), row.split(",")))
    for col in ("alpha", "r", "C"):
        assert cells[col] == f"{float(cells[col]):.17g}", col


def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 18\ntrials = 5\nseed = 9\n# comment line\n", encoding="utf-8")
    code, from_cfg, _ = run_cli(capsys, "exp-gnp", "--config", str(cfg))
    assert code == 0
    code, from_flags, _ = run_cli(
        capsys, "exp-gnp", "--n", "18", "--trials", "5", "--seed", "9"
    )
    assert code == 0
    # bodies agree; only the echoed argv line may differ
    assert from_cfg.splitlines()[1:] == from_flags.splitlines()[1:]
    # flags override config values
    code, overridden, _ = run_cli(capsys, "exp-gnp", "--config", str(cfg), "--trials", "2")
    assert code == 0
    assert '"trials": 2' in overridden.splitlines()[1]


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "exp-gnp", "--config", str(cfg))
    assert code == 1 and "unknown config key" in err
    cfg2 = tmp_path / "malformed.cfg"
    cfg2.write_text("just words\n", encoding="utf-8")
    assert run_cli(capsys, "exp-gnp", "--config", str(cfg2))[0] == 1


def test_experiment_output_deterministic_across_threads(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["exp-fig2", "--n-list", "20", "--trials", "8", "--seed", "3"]
    assert main(args + ["--threads", "1", "--out", str(a)]) == 0
    assert main(args + ["--threads", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # and the same bytes again on a plain rerun
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_format_has_comment_prefix(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code = main([
        "exp-tails", "--k", "12", "--samples", "5", "--xi-list", "0.5",
        "--seed", "2", "--format", "json", "--out", str(out_path),
    ])
    capsys.readouterr()
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0].startswith("#") and lines[1].startswith("#")
    payload = json.loads("\n".join(body_lines(text)))
    assert payload["config"]["k"] == 12
    assert payload["columns"] == ["model", "size", "xi", "bound", "empirical"]


def test_experiment_config_echo_excludes_threads(capsys):
    code, out, _ = run_cli(
        capsys, "exp-inner", "--n", "16", "--trials", "3", "--seed", "5",
        "--threads", "2",
    )
    assert code == 0
    assert "--threads" not in out.splitlines()[0]
    assert "threads" not in out.splitlines()[1]


# exp-* subcommand -> (runner, tiny flags, the same arguments as keywords,
# the config the report must carry)
EXPERIMENTS = {
    "exp-fig1": (
        run_fig1, ["--d-list", "3,4", "--n", "10", "--trials", "2", "--tau", "0"],
        {"d_list": (3, 4), "n": 10, "trials": 2, "tau": 0.0},
        {"experiment": "fig1", "d_list": [3, 4], "n": 10, "trials": 2, "seed": 0, "tau": 0.0},
    ),
    "exp-fig2": (
        run_fig2, ["--n-list", "8,12", "--trials", "3", "--p", "0.3"],
        {"n_list": (8, 12), "trials": 3, "p": 0.3},
        {"experiment": "fig2", "n_list": [8, 12], "p": 0.3, "trials": 3, "seed": 0, "tau": None},
    ),
    "exp-gnp": (
        run_gnp_scan, ["--n", "12", "--trials", "2", "--seed", "4"],
        {"n": 12, "trials": 2, "seed": 4},
        {"experiment": "gnp-scan", "n": 12, "p": 0.5, "trials": 2, "seed": 4, "tau": None},
    ),
    "exp-tails": (
        run_tail_mc, ["--k", "10", "--samples", "3", "--xi-list", "0.5,1", "--delta", "0.5"],
        {"k": 10, "samples": 3, "xi_list": (0.5, 1.0), "delta": 0.5},
        {"experiment": "tails", "p": 0.5, "k": 10, "m": 15, "delta": 0.5, "samples": 3,
         "xi_list": [0.5, 1.0], "seed": 0},
    ),
    "exp-inner": (
        run_inner_product_check, ["--n", "12", "--trials", "2"],
        {"n": 12, "trials": 2},
        {"experiment": "inner", "n": 12, "p": 0.5, "trials": 2, "seed": 0},
    ),
    "exp-linf": (
        run_linf_scan, ["--n-list", "6,9", "--trials", "2", "--tau", "0.05"],
        {"n_list": (6, 9), "trials": 2, "tau": 0.05},
        {"experiment": "linf", "n_list": [6, 9], "p": 0.5, "trials": 2, "seed": 0, "tau": 0.05},
    ),
    "exp-fact": (
        run_neighborhood_fact, ["--n", "12", "--k-list", "1,3", "--trials", "2"],
        {"n": 12, "k_list": (1, 3), "trials": 2},
        {"experiment": "fact", "n": 12, "p": 0.5, "k_list": [1, 3], "trials": 2, "seed": 0},
    ),
    "exp-courant": (
        run_courant_report, ["--source", "regular", "--n", "10", "--d", "3", "--trials", "2"],
        {"source": "regular", "n": 10, "d": 3, "trials": 2},
        {"experiment": "courant", "source": "regular", "n": 10, "d": 3, "trials": 2, "seed": 0,
         "tau": None},
    ),
}


def test_every_experiment_command_is_covered():
    assert sorted(c for c in cli._COMMANDS if c.startswith("exp-")) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_experiment_flags_default_as_their_runner(command):
    runner = EXPERIMENTS[command][0]
    defaults = {
        name: param.default for name, param in inspect.signature(runner).parameters.items()
    }
    opts = cli._resolve(cli._build_parser().parse_args([command]), cli._COMMANDS[command])
    assert opts == {**defaults, "format": "csv", "out": None}


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_experiment_config_echo_is_the_report_config(command, capsys):
    runner, argv, kwargs, expected = EXPERIMENTS[command]
    code, out, _ = run_cli(capsys, command, *argv, "--threads", "2")
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config: "))
    assert runner(**kwargs).config == expected
    assert echoed == expected


def test_experiment_usage_errors(tmp_path, capsys, monkeypatch):
    # argparse wraps the usage text to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\ntrials = 2\n", encoding="utf-8")
    usage = (
        "usage: graphnodal [-h] [--version]\n"
        "                  {gen-gnp,gen-regular,spectrum,domains,summary,constants,kp,"
        "exp-fig1,exp-fig2,exp-gnp,exp-tails,exp-inner,exp-linf,exp-fact,exp-courant}\n"
        "                  ...\n"
    )
    gnp_usage = (
        "usage: graphnodal exp-gnp [-h] [--config CONFIG] [--n N] [--p P]\n"
        "                          [--trials TRIALS] [--seed SEED] [--tau TAU]\n"
        "                          [--threads THREADS] [--format FORMAT] [--out OUT]\n"
    )
    sizes = "error: tuple sizes must satisfy 1 <= k < n, got "
    cases = [
        # an unknown flag is reported by the parser it was given to
        (["exp-gnp", "--bogus", "1"], gnp_usage + "error: unrecognized arguments: --bogus 1\n"),
        (["--bogus", "exp-gnp"], usage + "error: unrecognized arguments: --bogus\n"),
        # the cross-flag rule of exp-fact is a usage error too, defaults included
        (["exp-fact", "--n", "3", "--k-list", "3"], sizes + "(3,)\n"),
        (["exp-fact", "--n", "3"], sizes + "(1, 2, 3)\n"),
        (["exp-gnp", "--trials", "0"], "error: trials must be >= 1, got 0\n"),
        (["exp-gnp", "--config", str(cfg)], "error: unknown config key(s): bogus\n"),
        (["exp-tails", "--xi-list", "0.5,0"],
         "error: xi-list entries must be > 0, got (0.5, 0.0)\n"),
        (["exp-fig1", "--d-list", "3,x"], "error: expected an integer, got 'x'\n"),
        (["exp-courant", "--source", "bad"], "error: expected one of gnp, regular, got 'bad'\n"),
        # kp and constants need 0 < p < 1, for every p they would use
        (["kp", "--p", "0"], "error: p must lie in (0,1), got 0.0\n"),
        (["kp", "--p-list", "0.5,1.5"], "error: p must lie in (0,1), got 1.5\n"),
        (["constants", "--p", "1"], "error: p must lie in (0,1), got 1.0\n"),
        (["constants", "--p-list", "-0.2"], "error: p must lie in (0,1), got -0.2\n"),
    ]
    for argv, err in cases:
        assert run_cli(capsys, *argv) == (1, "", err), argv
