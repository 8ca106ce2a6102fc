"""Command-line behavior: formats, exit codes, config merging, determinism.

Everything runs in-process through main(argv) so exit codes and outputs are
observable without a subprocess.
"""

import argparse
import inspect
import io
import json

import pytest

from graphnodal import __version__, cli, read_graph
from graphnodal.bounds import exceptional_bound_k, kp_formula
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
from graphnodal.graph_core import Graph, ParameterError
from graphnodal.nodal import (
    SignedFunction,
    nodal_summary,
    strong_nodal_domains,
    summary_dict,
    weak_nodal_domains,
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
    # gamma is a fraction of a ceiling that depends on p, delta and theta,
    # so only the search can tell that it left (0,1]; it is a usage error still
    code, out, err = run_cli(capsys, "constants", "--gamma-fractions", "1e3")
    assert (code, out) == (1, "") and err.startswith("error: gamma must lie in (0,1], got "), err
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


def test_vector_files_skip_comment_lines_and_name_a_bad_one(tmp_path, capsys):
    gpath, vpath = write_path_graph(tmp_path)
    code, plain, _ = run_cli(capsys, "summary", "--graph", gpath, "--vector", vpath)
    commented = tmp_path / "commented.csv"
    # a comment starts at a '#' that begins the line or follows whitespace
    commented.write_text("# f\n1 # one\n  # between\n0\t# zero\n-1\n", encoding="utf-8")
    code2, out, _ = run_cli(capsys, "summary", "--graph", gpath, "--vector", str(commented))
    assert code == code2 == 0 and body_lines(out) == body_lines(plain)
    bad = tmp_path / "bad.csv"
    for text, lineno, cell in [("1\nx\n-1\n", 2, "x"), ("1#x\n0\n-1\n", 1, "1#x")]:
        bad.write_text(text, encoding="utf-8")
        assert run_cli(capsys, "summary", "--graph", gpath, "--vector", str(bad)) == (
            2, "", f"error: {bad}:{lineno}: not a number: '{cell}'\n")


def test_a_hash_inside_a_config_value_belongs_to_the_value(tmp_path, capsys):
    graph = tmp_path / "g#1.txt"
    graph.write_text("3 2\n0 1\n1 2\n", encoding="utf-8")
    cfg = tmp_path / "hash.cfg"
    cfg.write_text(f"graph = {graph}  # hash in a value\n", encoding="utf-8")
    code, from_cfg, _ = run_cli(capsys, "spectrum", "--config", str(cfg))
    code2, from_flag, _ = run_cli(capsys, "spectrum", "--graph", str(graph))
    assert code == code2 == 0 and from_cfg.splitlines()[1:] == from_flag.splitlines()[1:]
    cfg.write_text("n = 5\np = 0.5\nseed = 5#x\n", encoding="utf-8")
    assert run_cli(capsys, "gen-gnp", "--config", str(cfg)) == (
        1, "", "error: expected an integer, got '5#x'\n")


def test_flag_text_and_config_files_that_cannot_be_read(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    cases = [
        (["gen-gnp", "--n", "5", "--p", "x"], "error: expected a number, got 'x'\n"),
        (["exp-fig2", "--n-list", " , "],
         "error: expected a comma-separated integer list, got ' , '\n"),
        (["exp-tails", "--xi-list", ","], "error: expected a comma-separated number list, got ','\n"),
    ]
    for argv, err in cases:
        assert run_cli(capsys, *argv) == (1, "", err), argv
    code, out, err = run_cli(capsys, "exp-gnp", "--config", str(missing))
    assert (code, out) == (1, "") and err.startswith(f"error: cannot read config file {missing}: ")


def test_experiment_arguments_are_refused_before_any_sample(monkeypatch, capsys):
    import graphnodal.experiments

    sampled = []

    def sampler(*args, **kwargs):
        sampled.append(args)
        raise RuntimeError("sampled")

    for name in ("sample_gnp", "sample_regular", "sample_sym_xp_matrix", "sample_xp_matrix"):
        monkeypatch.setattr(graphnodal.experiments, name, sampler)
    tails = ["exp-tails", "--k", "8", "--samples", "2"]
    cases = [
        (["exp-tails", "--k", "200", "--samples", "40", "--p", "0"],
         "error: p must lie in (0,1), got 0.0\n"),
        (["exp-tails", "--k", "200", "--samples", "40", "--p", "1"],
         "error: p must lie in (0,1), got 1.0\n"),
        ([*tails, "--xi-list", "1e200"],
         "error: xi_list entries must have a finite square, got (1e+200,)\n"),
        (["exp-tails", "--k", "8", "--samples", "1", "--delta", "1e300"],
         "error: m = round((1+delta) k) must be at most 3037000499, got delta=1e+300, k=8\n"),
        (["exp-fig2", "--n-list", "10,3037000500", "--trials", "1"],
         "error: vertex count must be at most 3037000499, got 3037000500\n"),
    ]
    for argv, err in cases:
        assert run_cli(capsys, *argv) == (1, "", err), argv
    assert sampled == []


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


def _csv17(records):
    """A header of the records' keys and a row of each one's values: None
    empty, bools lower case, floats as '%.17g'."""
    def text(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        return "%.17g" % v if isinstance(v, float) else str(v)
    lines = [",".join(records[0])] + [",".join(text(v) for v in r.values()) for r in records]
    return "\n".join(lines) + "\n"


def _json10(obj):
    """obj as indented, key-sorted JSON, each float rounded to 10 digits."""
    def rounded(x):
        if isinstance(x, float):
            return float("%.10g" % x)
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        return [rounded(v) for v in x] if isinstance(x, (list, tuple)) else x
    return json.dumps(rounded(obj), indent=1, sort_keys=True) + "\n"


def test_payload_text_follows_the_per_value_rules(tmp_path, capsys):
    # an isolated zero vertex (5) makes a weak domain of sign 0
    gpath, vpath = tmp_path / "g.txt", tmp_path / "f.txt"
    gpath.write_text("6 3\n0 1\n1 2\n3 4\n", encoding="utf-8")
    vpath.write_text("1\n0\n-1\n0.5\n-0.002\n0\n", encoding="utf-8")
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    f = SignedFunction.from_values([1.0, 0.0, -1.0, 0.5, -0.002, 0.0], 0.0)
    signed = ["--graph", str(gpath), "--vector", str(vpath), "--tau", "0"]
    kp = [{"p": p, "kp": kp_formula(p)} for p in (0.1, 0.3, 0.5)]
    constants = [cli._constants_row(exceptional_bound_k(p)) for p in (0.35, 0.5)]
    assert constants[0]["reference_k"] is None and constants[1]["reference_k"] == 46
    summary = dict(sorted(summary_dict(nodal_summary(g, f)).items()))
    table = {
        ("kp", "--p-list", "0.1,0.3,0.5"): (_csv17(kp), _json10(kp)),
        ("constants", "--p-list", "0.35,0.5"): (_csv17(constants), _json10(constants)),
        ("summary", *signed): (_csv17([summary]),
                               json.dumps(summary, indent=1, sort_keys=True) + "\n"),
    }
    sign = {1: "+", -1: "-", 0: "0"}
    for kind, domains in (("weak", weak_nodal_domains), ("strong", strong_nodal_domains)):
        part = domains(g, f).domains
        table["domains", *signed, "--kind", kind] = (
            "".join(f"{kind},{sign[s]},{len(v)},{';'.join(map(str, v))}\n" for v, s in part),
            json.dumps({"kind": kind, "count": len(part), "domains": [
                {"sign": sign[s], "vertices": list(v)} for v, s in part
            ]}, indent=1, sort_keys=True) + "\n",
        )
    assert any(s == 0 for _, s in weak_nodal_domains(g, f).domains)
    for argv, bodies in table.items():
        for fmt, expected in zip(("csv", "json"), bodies):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, ""), argv
            assert "".join(out.splitlines(keepends=True)[2:]) == expected, (argv, fmt)


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
    cfg.write_text("n = 18  # note\n  # indented\ntrials = 5\nseed = 9\n# comment line\n",
                   encoding="utf-8")
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


# subcommand -> (the function whose signature declares its flags: the
# command's own, or an exp-*'s runner, which adds --format; its required
# flags as given; the same as keywords)
DECLARED = {
    "gen-gnp": (cli._gen_gnp, ["--n", "6", "--p", "0.5"], {"n": 6, "p": 0.5}),
    "gen-regular": (cli._gen_regular, ["--n", "6", "--d", "3"], {"n": 6, "d": 3}),
    "spectrum": (cli._spectrum, ["--graph", "g.txt"], {"graph": "g.txt"}),
    "domains": (cli._domains, ["--graph", "g.txt", "--vector", "f.csv"],
                {"graph": "g.txt", "vector": "f.csv"}),
    "summary": (cli._summary, ["--graph", "g.txt", "--vector", "f.csv"],
                {"graph": "g.txt", "vector": "f.csv"}),
    "constants": (cli._constants, [], {}),
    "kp": (cli._kp, [], {}),
    **{command: (spec[0], [], {}) for command, spec in EXPERIMENTS.items()},
}


def test_every_command_is_declared():
    assert sorted(DECLARED) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(DECLARED))
def test_experiment_flags_default_as_their_runner(command):
    fn, argv, required = DECLARED[command]
    params = inspect.signature(fn).parameters
    assert {name for name, param in params.items()
            if param.default is inspect.Parameter.empty} == set(required)
    defaults = {name: required.get(name, param.default) for name, param in params.items()}
    if command.startswith("exp-"):
        defaults["format"] = "csv"
    flags = [*(name.replace("_", "-") for name in defaults), "out"]
    assert list(cli._COMMANDS[command]["options"]) == flags
    opts = cli._resolve(cli._parse_args([command, *argv]), cli._COMMANDS[command])
    assert opts == {**defaults, "out": None}
    for flag in required:
        missing = [a for a in argv if a not in (f"--{flag}", str(required[flag]))]
        with pytest.raises(ParameterError, match=f"^missing required flag --{flag}$"):
            cli._resolve(cli._parse_args([command, *missing]), cli._COMMANDS[command])


# every flag's kind, as its converter reads its text: a list is comma-separated,
# and a tuple of words is a choice among them
INT, FLOAT, INTS, FLOATS, TEXT = "integer", "number", "integer list", "number list", "text"
FLAG_KINDS = {
    "n": INT, "d": INT, "k": INT, "trials": INT, "samples": INT, "seed": INT, "threads": INT,
    "p": FLOAT, "tau": FLOAT, "delta": FLOAT,
    "n-list": INTS, "d-list": INTS, "k-list": INTS,
    "p-list": FLOATS, "xi-list": FLOATS, "deltas": FLOATS, "thetas": FLOATS,
    "gamma-fractions": FLOATS, "epsilon-gaps": FLOATS, "xi1s": FLOATS, "xi2s": FLOATS,
    "graph": TEXT, "vector": TEXT, "out": TEXT, "ordering": TEXT, "source": TEXT,
    "matrix": ("adjacency", "laplacian"), "kind": ("weak", "strong"), "format": ("csv", "json"),
}
# kind -> (a good text, its value, a bad text or None, the bad text's error)
CONVERSIONS = {
    INT: ("7", 7, "1.5", "expected an integer, got '1.5'"),
    FLOAT: ("0.25", 0.25, "inf", "expected a finite number, got 'inf'"),
    INTS: ("3, 4", (3, 4), ",", "expected a comma-separated integer list, got ','"),
    FLOATS: ("0.5,1", (0.5, 1.0), ",", "expected a comma-separated number list, got ','"),
    TEXT: ("x.txt", "x.txt", None, None),
}


def test_every_flag_converts_by_its_kind(tmp_path, capsys):
    assert {flag for c in cli._COMMANDS.values() for flag in c["options"]} == set(FLAG_KINDS)
    cfg = tmp_path / "flag.cfg"
    for command, spec in cli._COMMANDS.items():
        required = DECLARED[command][1]
        for flag in spec["options"]:
            kind = FLAG_KINDS[flag]
            good, value, bad, message = CONVERSIONS[kind] if kind in CONVERSIONS else (
                kind[-1], kind[-1], "bogus", f"expected one of {', '.join(kind)}, got 'bogus'")
            # the flag's own required value, if any, goes: --config must supply it
            i = required.index(f"--{flag}") if f"--{flag}" in required else len(required)
            others = required[:i] + required[i + 2:]
            for text in (good, bad) if bad is not None else (good,):
                cfg.write_text(f"{flag} = {text}\n", encoding="utf-8")
                for argv in ([command, *others, f"--{flag}", text],
                             [command, *others, "--config", str(cfg)]):
                    if text == good:
                        opts = cli._resolve(cli._parse_args(argv), spec)
                        assert repr(opts[flag.replace("-", "_")]) == repr(value), argv
                    else:
                        assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n"), argv


@pytest.mark.parametrize("command", sorted(EXPERIMENTS))
def test_experiment_config_echo_is_the_report_config(command, capsys):
    runner, argv, kwargs, expected = EXPERIMENTS[command]
    code, out, _ = run_cli(capsys, command, *argv, "--threads", "2")
    assert code == 0
    echoed = json.loads(out.splitlines()[1].removeprefix("# config: "))
    assert runner(**kwargs).config == expected
    assert echoed == expected


def test_command_config_echo(tmp_path, capsys):
    gpath, vpath = write_path_graph(tmp_path)
    signed = ["--graph", gpath, "--vector", vpath]
    grid = {
        "deltas": [999.0, 9999.0, 99999.0, 999999.0], "thetas": [0.1, 0.3, 0.5, 0.7, 0.9],
        "gamma_fractions": [0.05, 0.1, 0.25, 0.5], "epsilon_gaps": [1e-3, 1e-4, 1e-5, 3e-6],
        "xi1s": [0.25, 0.5, 1.0, 2.0], "xi2s": [0.25, 0.5, 1.0, 2.0],
    }
    cases = [
        (["gen-gnp", "--n", "6", "--p", "0.5"], {"n": 6, "p": 0.5, "seed": 0}),
        (["gen-regular", "--n", "6", "--d", "3", "--seed", "2"], {"n": 6, "d": 3, "seed": 2}),
        # the ordering echoed is the one used, also when it follows from --matrix
        (["spectrum", "--graph", gpath],
         {"graph": gpath, "matrix": "adjacency", "ordering": "descending"}),
        (["spectrum", "--graph", gpath, "--matrix", "laplacian"],
         {"graph": gpath, "matrix": "laplacian", "ordering": "ascending"}),
        (["spectrum", "--graph", gpath, "--matrix", "laplacian", "--ordering", "descending"],
         {"graph": gpath, "matrix": "laplacian", "ordering": "descending"}),
        (["domains", *signed], {"graph": gpath, "vector": vpath, "kind": "weak", "tau": None}),
        (["domains", *signed, "--kind", "strong", "--tau", "0.1"],
         {"graph": gpath, "vector": vpath, "kind": "strong", "tau": 0.1}),
        (["summary", *signed], {"graph": gpath, "vector": vpath, "tau": None}),
        (["summary", *signed, "--tau", "0"], {"graph": gpath, "vector": vpath, "tau": 0.0}),
        # the whole grid searched, overridden ranges included
        (["constants"], {"p_list": [0.5], **grid}),
        (["constants", "--p-list", "0.5,0.3", "--thetas", "0.5,0.7", "--xi1s", "1,2"],
         {"p_list": [0.5, 0.3], **grid, "thetas": [0.5, 0.7], "xi1s": [1.0, 2.0]}),
        (["kp"], {"p_list": [0.5]}),
        (["kp", "--p", "0.3"], {"p_list": [0.3]}),
        (["kp", "--p", "0.3", "--p-list", "0.1,0.5"], {"p_list": [0.1, 0.5]}),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines()[1] == "# config: " + json.dumps(expected, sort_keys=True), argv


def test_experiment_usage_errors(tmp_path, capsys, monkeypatch):
    # argparse wraps the usage text to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\ntrials = 2\n", encoding="utf-8")
    grid = tmp_path / "grid.cfg"
    grid.write_text("epsilon-gaps = 0.7\n", encoding="utf-8")
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
    big = "3037000500"
    cases = [
        # an unknown flag is reported by the parser it was given to
        (["exp-gnp", "--bogus", "1"], gnp_usage + "error: unrecognized arguments: --bogus 1\n"),
        (["--bogus", "exp-gnp"], usage + "error: unrecognized arguments: --bogus\n"),
        # the cross-flag rule of exp-fact is a usage error too, defaults included
        (["exp-fact", "--n", "3", "--k-list", "3"], sizes + "(3,)\n"),
        (["exp-fact", "--n", "3"], sizes + "(1, 2, 3)\n"),
        (["exp-gnp", "--config", str(cfg)], "error: unknown config key(s): bogus\n"),
        (["exp-fig1", "--d-list", "3,x"], "error: expected an integer, got 'x'\n"),
        # kp and constants need 0 < p < 1, for every p they would use
        (["kp", "--p", "0"], "error: p must lie in (0,1), got 0.0\n"),
        (["kp", "--p-list", "0.5,1.5"], "error: p must lie in (0,1), got 1.5\n"),
        (["constants", "--p", "1"], "error: p must lie in (0,1), got 1.0\n"),
        (["constants", "--p-list", "-0.2"], "error: p must lie in (0,1), got -0.2\n"),
        # so is a constants grid range no grid point may take
        (["constants", "--p", "0.5", "--thetas", "1.5"],
         "error: thetas entries must lie in (0,1), got (1.5,)\n"),
        (["constants", "--thetas", "0.5,0"],
         "error: thetas entries must lie in (0,1), got (0.5, 0.0)\n"),
        (["constants", "--epsilon-gaps", "0.7"],
         "error: epsilon_gaps entries must lie in (0,1/2), got (0.7,)\n"),
        (["constants", "--epsilon-gaps", "1e-3,0.5"],
         "error: epsilon_gaps entries must lie in (0,1/2), got (0.001, 0.5)\n"),
        (["constants", "--deltas", "0"], "error: deltas entries must be > 0, got (0.0,)\n"),
        (["constants", "--gamma-fractions", "-1"],
         "error: gamma_fractions entries must be > 0, got (-1.0,)\n"),
        (["constants", "--xi1s", "1,0"], "error: xi1s entries must be > 0, got (1.0, 0.0)\n"),
        (["constants", "--xi2s", "nan"], "error: expected a finite number, got 'nan'\n"),
        (["constants", "--config", str(grid)],
         "error: epsilon_gaps entries must lie in (0,1/2), got (0.7,)\n"),
        # so is a degree for which no simple regular graph on n vertices exists
        (["gen-regular", "--n", "5", "--d", "3"], "error: n*d must be even, got n=5, d=3\n"),
        (["gen-regular", "--n", "4", "--d", "4"],
         "error: degree must satisfy 0 <= d < n, got d=4, n=4\n"),
        (["exp-fig1", "--d-list", "3", "--n", "5"], "error: n*d must be even, got n=5, d=3\n"),
        (["exp-fig1", "--d-list", "4,6", "--n", "6"],
         "error: degree must satisfy 0 <= d < n, got d=6, n=6\n"),
        (["exp-courant", "--source", "regular", "--n", "5", "--d", "3"],
         "error: n*d must be even, got n=5, d=3\n"),
        # every flag that becomes a vertex count is refused above MAX_VERTICES
        # before anything is sampled, as gen-regular's is
        *[(argv, f"error: vertex count must be at most 3037000499, got {big}\n") for argv in (
            ["gen-gnp", "--n", big, "--p", "0"],
            ["gen-regular", "--n", big, "--d", "3"],
            ["exp-gnp", "--n", big],
            ["exp-inner", "--n", big],
            ["exp-fact", "--n", big],
            ["exp-fig1", "--n", big],
            ["exp-courant", "--n", big],
            ["exp-fig2", "--n-list", f"10,{big}"],
            ["exp-linf", "--n-list", big],
            ["exp-tails", "--k", big],
        )],
    ]
    # every range is the library's, whether the value comes from a flag or
    # from a config file: (argv, flag, value, message)
    graph, _ = write_path_graph(tmp_path)
    tails = ["exp-tails", "--k", "8", "--samples", "2"]
    ranges = [
        (["exp-gnp"], "n", "0", "vertex count must be positive, got 0"),
        (["gen-regular", "--n", "5"], "d", "-1", "degree must satisfy 0 <= d < n, got d=-1, n=5"),
        (["exp-tails", "--samples", "1"], "k", "1", "k must be >= 2, got 1"),
        (["exp-gnp"], "p", "1.5", "edge probability must lie in [0,1], got 1.5"),
        (["exp-gnp"], "trials", "0", "trials must be >= 1, got 0"),
        (["exp-tails", "--k", "8"], "samples", "0", "samples must be >= 1, got 0"),
        (["gen-gnp", "--n", "5", "--p", "0.5"], "seed", "-1", "seed must be nonnegative, got -1"),
        (["exp-fig2", "--n-list", "10", "--trials", "1"], "threads", "0",
         "threads must be >= 1, got 0"),
        (["exp-gnp"], "tau", "-1", "zero tolerance must be nonnegative, got -1.0"),
        (tails, "delta", "0", "delta must be positive, got 0.0"),
        (["exp-linf"], "n-list", "8,0", "vertex count must be positive, got 0"),
        (["exp-fig1", "--n", "10"], "d-list", "-1",
         "degree must satisfy 0 <= d < n, got d=-1, n=10"),
        (["exp-fact", "--n", "10"], "k-list", "0",
         "tuple sizes must satisfy 1 <= k < n, got (0,)"),
        (tails, "xi-list", "0.5,0", "xi_list entries must be > 0, got (0.5, 0.0)"),
        (["exp-courant"], "source", "bad", "source must be 'gnp' or 'regular', got 'bad'"),
        (["spectrum", "--graph", str(graph)], "ordering", "up",
         "ordering must be 'descending' or 'ascending', got 'up'"),
    ]
    for argv, flag, value, message in ranges:
        path = tmp_path / f"{flag}.cfg"
        path.write_text(f"{flag} = {value}\n", encoding="utf-8")
        cases += [([*argv, f"--{flag}", value], f"error: {message}\n"),
                  ([*argv, "--config", str(path)], f"error: {message}\n")]
    for argv, err in cases:
        assert run_cli(capsys, *argv) == (1, "", err), argv
    # d is not read when the source is gnp
    assert run_cli(capsys, "exp-courant", "--n", "5", "--d", "3", "--trials", "1")[0] == 0
    # the largest vertex count passes the up-front rules (sampling it is a runtime matter)
    for command, flag in (("gen-gnp", "n"), ("exp-tails", "k")):
        args = cli._parse_args([command, f"--{flag}", "3037000499", "--p", "0.5"])
        assert cli._resolve(args, cli._COMMANDS[command])[flag] == 3037000499


def test_refused_arguments_are_usage_errors_that_write_nothing(tmp_path, capsys):
    cfg = tmp_path / "tau.cfg"
    cfg.write_text("tau = nan\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    tails = ["exp-tails", "--k", "8", "--samples", "2"]
    finite = "error: expected a finite number, got "
    cases = [
        # every float, from a flag, a list entry or a config key, is finite
        ([*tails, "--delta", "inf"], finite + "'inf'\n"),
        ([*tails, "--xi-list", "0.5,inf", "--format", "json"], finite + "'inf'\n"),
        (["exp-gnp", "--tau", "1e400"], finite + "'1e400'\n"),
        (["exp-gnp", "--config", str(cfg)], finite + "'nan'\n"),
        (["constants", "--deltas", "inf"], finite + "'inf'\n"),
        (["constants", "--gamma-fractions=-inf"], finite + "'-inf'\n"),
        # GridSpec's ranges, as the search computes with them
        (["constants", "--epsilon-gaps", "1e-20"],
         "error: epsilon_gaps entries must lie in (0,1/2), got (1e-20,)\n"),
        (["constants", "--xi1s", "1e200"],
         "error: xi1s entries must have a finite square, got (1e+200,)\n"),
        (["constants", "--gamma-fractions", "1e3"],
         "error: gamma must lie in (0,1], got 3.244171940961883\n"),
        # p = 0.5 is searched before 1.5 is refused
        (["constants", "--p-list", "0.5,1.5"], "error: p must lie in (0,1), got 1.5\n"),
        (["exp-fig1", "--d-list", "3,5", "--n", "5", "--trials", "1"],
         "error: n*d must be even, got n=5, d=3\n"),
    ]
    for argv, err in cases:
        assert run_cli(capsys, *argv, "--out", str(out)) == (1, "", err), argv
        assert not out.exists(), argv


def test_a_call_adds_the_flags_of_its_subcommand_only(monkeypatch, capsys):
    built, parsers = [], []
    add, init = cli._Parser.add_argument, argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        if args[0] == "--config":
            built.append(self.prog)
        return add(self, *args, **kwargs)

    def count(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "add_argument", spy)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", count)
    assert run_cli(capsys, "kp", "--p", "0.5")[0] == 0
    assert built == ["graphnodal kp"]
    assert parsers == ["graphnodal kp"]
    # a call that does not start with a subcommand builds the whole tree
    assert run_cli(capsys, "--version")[0] == 0
    assert parsers[1:] == ["graphnodal", *(f"graphnodal {name}" for name in cli._COMMANDS)]
    assert built == ["graphnodal kp"]


def _whole_tree():
    """The parser tree with every subcommand's flags built: each subparser
    carries --config and all its flags and reports its own leftovers."""
    class Parser(cli._Parser):
        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            if extras:
                self.error(f"unrecognized arguments: {' '.join(extras)}")
            return namespace, extras

    parser = Parser(prog="graphnodal", description="Nodal domains of eigenvectors of random graphs.")
    parser.add_argument("--version", action="version", version=f"graphnodal {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    for name, command in cli._COMMANDS.items():
        sub = subparsers.add_parser(name, help=command["help"])
        sub.add_argument("--config", default=None, help="file of 'key = value' defaults")
        for flag in command["options"]:
            sub.add_argument(f"--{flag}", default=None)
    return parser


def test_usage_answers_as_if_every_subcommand_were_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    corpus = [[], ["-h"], ["--help"], ["--version"], ["--vers"], ["no-such-command"],
              ["--bogus", "kp"], ["--", "kp"], ["kp", "--", "--p", "0.3"], ["kp", "extra"],
              ["kp", "--p=0.3"], ["exp-gnp", "--n", "8", "--tri", "1"],
              ["gen-gnp", "--p", "0.5"], ["summary", "--graph", "g.txt"],
              # a leading unknown flag: the subcommand still parses its own flags
              ["--bogus", "kp", "--p", "0.3"], ["--bogus", "kp", "--x", "1"],
              ["--bogus", "kp", "--help"]]
    for command in cli._COMMANDS:
        corpus += [[command, "--help"], [command, "--bogus", "1"], [command, "--config", str(cfg)]]
        if not command.startswith("exp-"):  # a bare exp-* runs its whole default experiment
            corpus.append([command])
    answers = [run_cli(capsys, *argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: _whole_tree().parse_args(argv))
    assert [run_cli(capsys, *argv) for argv in corpus] == answers
    assert {code for code, _, _ in answers} == {0, 1}


def test_every_spelling_of_threads_and_out_is_scrubbed(tmp_path, capsys):
    command, *flags = ["exp-gnp", "--n", "8", "--trials", "2"]
    code, expected, _ = run_cli(capsys, command, *flags, "--threads", "1")
    assert code == 0
    for threads in (["--thr", "2"], ["--thread=2"], ["--threads=2"]):
        assert run_cli(capsys, command, *threads, *flags) == (0, expected, ""), threads
    out = tmp_path / "r.csv"
    for spelled in (["--out", str(out)], ["--ou", str(out)], [f"--ou={out}"],
                    ["--thr", "2", "--ou", str(out)]):
        assert run_cli(capsys, command, *spelled, *flags) == (0, "", ""), spelled
        assert out.read_text(encoding="utf-8") == expected, spelled


def test_stdout_and_out_file_carry_the_same_payload(tmp_path, capsys):
    gpath, vpath = write_path_graph(tmp_path)
    tiny = {
        "gen-gnp": ["--n", "6", "--p", "0.5"],
        "gen-regular": ["--n", "6", "--d", "3"],
        "spectrum": ["--graph", gpath],
        "domains": ["--graph", gpath, "--vector", vpath],
        "summary": ["--graph", gpath, "--vector", vpath],
        "constants": ["--p-list", "0.3,0.5"],
        "kp": ["--p-list", "0.3,0.5"],
        **{command: spec[1] for command, spec in EXPERIMENTS.items()},
    }
    assert sorted(tiny) == sorted(cli._COMMANDS)
    out = tmp_path / "out.txt"
    for command, flags in tiny.items():
        formats = ("csv", "json") if "format" in cli._COMMANDS[command]["options"] else (None,)
        for fmt in formats:
            argv = [command, *flags] + ([] if fmt is None else ["--format", fmt])
            code, printed, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            if fmt == "json":
                json.loads("\n".join(body_lines(printed)))
            assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", ""), argv
            assert out.read_text(encoding="utf-8") == printed, argv
            out.unlink()
    # a run that fails prints nothing and creates no file
    code, printed, _ = run_cli(capsys, "spectrum", "--graph", str(tmp_path / "missing.txt"),
                               "--out", str(out))
    assert (code, printed, out.exists()) == (2, "", False)
