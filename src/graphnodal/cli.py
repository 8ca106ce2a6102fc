"""Command-line front end: samplers, spectra, nodal analysis, constants, experiments.

Usage shape: `graphnodal SUBCOMMAND [flags]`.  Subcommands: gen-gnp,
gen-regular, spectrum, domains, summary, constants, kp, exp-fig1, exp-fig2,
exp-gnp, exp-tails, exp-inner, exp-linf, exp-fact, exp-courant.

Conventions shared by every subcommand:
  * output goes to stdout, or to --out PATH.  A subcommand computes its
    result first; main opens the output only then, so a failed run leaves
    stdout empty and creates no --out file;
  * the first output line is a comment "# graphnodal VERSION | argv: ... |
    seed: ...", the second echoes the fully resolved configuration.  --threads
    and --out, in every spelling the parser accepts, are scrubbed from the
    echoed argv because they never affect results;
  * an optional --config FILE of "key = value" lines supplies defaults that
    explicit flags override; unknown keys are usage errors;
  * exit code 0 on success, 1 on usage errors, 2 on runtime failures.

JSON outputs carry the same leading comment lines; consumers should drop
lines starting with '#' before parsing.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import sys
from typing import IO, Any, Callable, Iterator, NamedTuple

from . import __version__
from ._text import rounded, write_csv, write_json
from .bounds import GridSpec, exceptional_bound_k, kp_formula, reference_k
from .experiments import (
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
from .graph_core import (
    MAX_VERTICES,
    adjacency_matrix,
    check_regular,
    laplacian_matrix,
    read_graph,
    sample_gnp,
    sample_regular,
    substream,
    write_graph,
)
from .nodal import (
    SignedFunction,
    domains_dict,
    nodal_summary,
    strong_nodal_domains,
    summary_dict,
    weak_nodal_domains,
    write_domains_csv,
)
from .spectral import eigendecompose, write_spectrum_csv

__all__ = ["main"]


class _UsageError(Exception):
    """Bad flags, bad config keys, or out-of-range parameter values."""


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's exit code for usage errors."""

    def error(self, message: str):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise _UsageError(f"expected a number, got {text!r}") from None


def _list_of(parse: Callable[[str], Any], kind: str) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        items = [s.strip() for s in text.split(",") if s.strip()]
        if not items:
            raise _UsageError(f"expected a comma-separated {kind} list, got {text!r}")
        return tuple(parse(s) for s in items)

    return parse_list


_parse_int_list = _list_of(_parse_int, "integer")
_parse_float_list = _list_of(_parse_float, "number")


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise _UsageError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text

    return parse


class _Flag(NamedTuple):
    """How a flag's text becomes a value, and the range rule that value
    must pass after config merging (message, predicate), if any.  The rules
    are conservative on purpose: library preconditions repeat them, but
    failing them here keeps range mistakes in the usage-error exit class."""

    convert: Callable[[str], Any]
    message: str | None = None
    ok: Callable[[Any], bool] | None = None


# Every flag of every subcommand, once.
_FLAGS = {
    "n": _Flag(_parse_int, "n must be >= 1", lambda v: v >= 1),
    "d": _Flag(_parse_int, "d must be >= 0", lambda v: v >= 0),
    "k": _Flag(_parse_int, "k must be >= 2", lambda v: v >= 2),
    "p": _Flag(_parse_float, "p must lie in [0,1]", lambda v: 0.0 <= v <= 1.0),
    "trials": _Flag(_parse_int, "trials must be >= 1", lambda v: v >= 1),
    "samples": _Flag(_parse_int, "samples must be >= 1", lambda v: v >= 1),
    "seed": _Flag(_parse_int, "seed must be >= 0", lambda v: v >= 0),
    "threads": _Flag(_parse_int, "threads must be >= 1", lambda v: v >= 1),
    "tau": _Flag(_parse_float, "tau must be >= 0", lambda v: v >= 0.0),
    "delta": _Flag(_parse_float, "delta must be > 0", lambda v: v > 0.0),
    "n-list": _Flag(_parse_int_list, "n-list entries must be >= 1",
                    lambda v: all(x >= 1 for x in v)),
    "d-list": _Flag(_parse_int_list, "d-list entries must be >= 0",
                    lambda v: all(x >= 0 for x in v)),
    "k-list": _Flag(_parse_int_list, "k-list entries must be >= 1",
                    lambda v: all(x >= 1 for x in v)),
    "xi-list": _Flag(_parse_float_list, "xi-list entries must be > 0",
                     lambda v: all(x > 0.0 for x in v)),
    "p-list": _Flag(_parse_float_list),
    "deltas": _Flag(_parse_float_list),
    "thetas": _Flag(_parse_float_list),
    "gamma-fractions": _Flag(_parse_float_list),
    "epsilon-gaps": _Flag(_parse_float_list),
    "xi1s": _Flag(_parse_float_list),
    "xi2s": _Flag(_parse_float_list),
    "graph": _Flag(str),
    "vector": _Flag(str),
    "out": _Flag(str),
    "matrix": _Flag(_choice("adjacency", "laplacian")),
    "ordering": _Flag(_choice("descending", "ascending")),
    "kind": _Flag(_choice("weak", "strong")),
    "format": _Flag(_choice("csv", "json")),
    "source": _Flag(_choice("gnp", "regular")),
}


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise _UsageError(f"config line {lineno} is not 'key = value': {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _scrub_argv(argv: list[str], options: dict[str, Any]) -> list[str]:
    # --threads and --out never affect output content; leaving them in the
    # echoed argv would make otherwise-identical runs produce different bytes.
    # argparse takes any unique prefix of a flag, so every spelling that the
    # command's parser resolves to them goes, with its value.
    flags = ["--config", "--help", *(f"--{flag}" for flag in options)]
    scrubbed, tokens = [], iter(argv)
    for token in tokens:
        name, eq, _ = token.partition("=")
        spelled = [f for f in flags if f == name] or [f for f in flags if f.startswith(name)]
        if spelled not in (["--threads"], ["--out"]):
            scrubbed.append(token)
        elif not eq:
            next(tokens, None)  # its value
    return scrubbed


@contextlib.contextmanager
def _output(opts: dict[str, Any], argv: list[str], config: dict[str, Any]) -> Iterator[IO[str]]:
    """The command's output stream, stdout or --out, with its two comment
    lines written; the command's writer streams its body into it."""
    seed = opts.get("seed")
    header = (
        f"# graphnodal {__version__}"
        f" | argv: {' '.join(argv)}"
        f" | seed: {'none' if seed is None else seed}\n"
        "# config: " + json.dumps(rounded(config), sort_keys=True) + "\n"
    )
    out = opts.get("out")
    if out is None:
        sys.stdout.write(header)
        yield sys.stdout
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header)
            yield fh


def _read_vector(path: str, n: int):
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                values.append(float(stripped))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a number: {stripped!r}") from None
    if len(values) != n:
        raise ValueError(f"{path}: vector has {len(values)} values, graph has {n} vertices")
    return values


# ---------------------------------------------------------------- commands
# A command's run(opts) computes its result and returns the configuration its
# output echoes and a writer of its body; main opens the output after that.
_Writer = Callable[[IO[str]], None]


def _records(records: dict[str, Any] | list[dict[str, Any]], fmt: str) -> _Writer:
    """A writer of one record, or a list of records with the same keys: as
    JSON, floats rounded, or as CSV, a header of the keys and one row of
    values per record, floats to 17 significant digits."""
    if fmt == "json":
        return functools.partial(write_json, rounded(records))
    rows = [records] if isinstance(records, dict) else records
    return functools.partial(write_csv, [rows[0].keys(), *(r.values() for r in rows)], digits=17)


def _run_gen_gnp(opts) -> tuple[dict[str, Any], _Writer]:
    g = sample_gnp(opts["n"], opts["p"], substream(opts["seed"], "gen-gnp"))
    return {k: opts[k] for k in ("n", "p", "seed")}, functools.partial(write_graph, g)


def _run_gen_regular(opts) -> tuple[dict[str, Any], _Writer]:
    g = sample_regular(opts["n"], opts["d"], substream(opts["seed"], "gen-regular"))
    return {k: opts[k] for k in ("n", "d", "seed")}, functools.partial(write_graph, g)


def _run_spectrum(opts) -> tuple[dict[str, Any], _Writer]:
    g = read_graph(opts["graph"])
    if opts["matrix"] == "adjacency":
        matrix = adjacency_matrix(g)
    else:
        matrix = laplacian_matrix(g)
    ordering = opts["ordering"]
    if ordering is None:
        ordering = "descending" if opts["matrix"] == "adjacency" else "ascending"
    spectrum = eigendecompose(matrix, ordering)
    config = {"graph": opts["graph"], "matrix": opts["matrix"], "ordering": ordering}
    if opts["format"] == "csv":
        return config, functools.partial(write_spectrum_csv, spectrum)
    return config, functools.partial(write_json, {
        "n": spectrum.n,
        "ordering": spectrum.ordering,
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "eigenvectors": [spectrum.vector(i).tolist() for i in range(spectrum.n)],
        "residual_bound": spectrum.residual_bound,
        "orthogonality_defect": spectrum.orthogonality_defect,
    })


def _signed_input(opts):
    g = read_graph(opts["graph"])
    values = _read_vector(opts["vector"], g.n)
    f = SignedFunction.from_values(values, opts["tau"])
    return g, f


def _run_domains(opts) -> tuple[dict[str, Any], _Writer]:
    g, f = _signed_input(opts)
    if opts["kind"] == "weak":
        part = weak_nodal_domains(g, f)
    else:
        part = strong_nodal_domains(g, f)
    config = {
        "graph": opts["graph"], "vector": opts["vector"],
        "kind": opts["kind"], "tau": opts["tau"],
    }
    if opts["format"] == "csv":
        return config, functools.partial(write_domains_csv, part)
    return config, functools.partial(write_json, domains_dict(part))


def _run_summary(opts) -> tuple[dict[str, Any], _Writer]:
    g, f = _signed_input(opts)
    summary = nodal_summary(g, f)
    config = {"graph": opts["graph"], "vector": opts["vector"], "tau": opts["tau"]}
    return config, _records(dict(sorted(summary_dict(summary).items())), opts["format"])


def _constants_row(res) -> dict[str, Any]:
    ref = reference_k(res.params.p)
    return {
        "p": res.params.p, "k": res.k, "feasible": res.feasible,
        "q": res.q, "t": res.t, "a1": res.a1, "a2": res.a2, "C": res.c,
        "alpha": res.alpha, "beta": res.beta, "D": res.d, "r": res.r,
        "delta": res.params.delta, "theta": res.params.theta,
        "gamma": res.params.gamma, "epsilon": res.params.epsilon,
        "xi1": res.params.xi1, "xi2": res.params.xi2,
        "reference_k": ref,
        "matches_reference": None if ref is None else res.k == ref,
    }


def _probabilities(opts: dict[str, Any]) -> tuple[float, ...]:
    """The p values of kp and constants: --p-list if given, else --p."""
    return opts["p_list"] if opts["p_list"] is not None else (opts["p"],)


def _check_open_probabilities(opts: dict[str, Any]) -> None:
    # the bounds need 0 < p < 1; refusing p here keeps it a usage error
    for p in _probabilities(opts):
        if not 0.0 < p < 1.0:
            raise _UsageError(f"p must lie in (0,1), got {p}")


def _run_constants(opts) -> tuple[dict[str, Any], _Writer]:
    ps = _probabilities(opts)
    grid_fields = {
        "deltas": opts["deltas"], "thetas": opts["thetas"],
        "gamma_fractions": opts["gamma_fractions"],
        "epsilon_gaps": opts["epsilon_gaps"],
        "xi1s": opts["xi1s"], "xi2s": opts["xi2s"],
    }
    overrides = {k: v for k, v in grid_fields.items() if v is not None}
    grid = GridSpec(**overrides) if overrides else GridSpec()
    rows = [_constants_row(exceptional_bound_k(p, grid)) for p in ps]
    config = {
        "p_list": list(ps),
        **{k: list(v) for k, v in vars(grid).items()},
    }
    return config, _records(rows, opts["format"])


def _run_kp(opts) -> tuple[dict[str, Any], _Writer]:
    ps = _probabilities(opts)
    records = [{"p": p, "kp": kp_formula(p)} for p in ps]
    return {"p_list": list(ps)}, _records(records, opts["format"])


# Per-command options: flag name -> default.  A None default means
# "optional"; required flags use _REQUIRED.
_REQUIRED = object()

_FORMAT = {"format": "csv"}
_OUT = {"out": None}


def _experiment_command(
    text: str,
    runner: Callable[..., ExperimentReport],
    check: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """An exp-* subcommand: one flag per runner argument, defaulting as the
    runner does; check, if given, applies a rule across flags."""
    params = inspect.signature(runner).parameters
    names = tuple(params)

    def run(opts) -> tuple[dict[str, Any], _Writer]:
        report = runner(**{name: opts[name] for name in names})
        write = write_report_csv if opts["format"] == "csv" else write_report_json
        return report.config, functools.partial(write, report)

    defaults = {name.replace("_", "-"): param.default for name, param in params.items()}
    return {"help": text, "options": {**defaults, **_FORMAT, **_OUT}, "run": run, "check": check}


def _check_tuple_sizes(opts: dict[str, Any]) -> None:
    if any(k >= opts["n"] for k in opts["k_list"]):
        raise _UsageError(f"tuple sizes must satisfy 1 <= k < n, got {opts['k_list']}")


def _check_regular(opts: dict[str, Any]) -> None:
    # a degree with no simple regular graph on n vertices is a usage error
    if opts.get("source", "regular") == "regular":
        for d in opts.get("d_list", (opts.get("d"),)):
            try:
                check_regular(opts["n"], d)
            except ValueError as exc:
                raise _UsageError(exc) from None


_COMMANDS: dict[str, dict[str, Any]] = {
    "gen-gnp": {
        "help": "sample G(n,p) and write its edge list",
        "options": {"n": _REQUIRED, "p": _REQUIRED, "seed": 0, **_OUT},
        "run": _run_gen_gnp,
    },
    "gen-regular": {
        "help": "sample a uniform d-regular simple graph and write its edge list",
        "options": {"n": _REQUIRED, "d": _REQUIRED, "seed": 0, **_OUT},
        "run": _run_gen_regular,
        "check": _check_regular,
    },
    "spectrum": {
        "help": "eigenvalues and eigenvectors of a graph matrix",
        "options": {
            "graph": _REQUIRED, "matrix": "adjacency", "ordering": None, **_FORMAT, **_OUT,
        },
        "run": _run_spectrum,
    },
    "domains": {
        "help": "weak or strong nodal domains of a vector on a graph",
        "options": {
            "graph": _REQUIRED, "vector": _REQUIRED, "kind": "weak", "tau": None,
            **_FORMAT, **_OUT,
        },
        "run": _run_domains,
    },
    "summary": {
        "help": "nodal census of a vector: part sizes, counts, exceptional set",
        "options": {
            "graph": _REQUIRED, "vector": _REQUIRED, "tau": None, "format": "json", **_OUT,
        },
        "run": _run_summary,
    },
    "constants": {
        "help": "grid-search the tail-bound constants and the exceptional bound k",
        "options": {
            "p": 0.5, "p-list": None, "deltas": None, "thetas": None,
            "gamma-fractions": None, "epsilon-gaps": None, "xi1s": None, "xi2s": None,
            **_FORMAT, **_OUT,
        },
        "run": _run_constants,
        "check": _check_open_probabilities,
    },
    "kp": {
        "help": "closed-form exceptional-vertex count bound floor(1/log2(1/(1-p)))",
        "options": {"p": 0.5, "p-list": None, **_FORMAT, **_OUT},
        "run": _run_kp,
        "check": _check_open_probabilities,
    },
    "exp-fig1": _experiment_command(
        "nodal counts across the spectrum of random regular graphs", run_fig1, _check_regular),
    "exp-fig2": _experiment_command(
        "fraction of G(n,p) whose top Laplacian eigenvector has 3 weak domains", run_fig2),
    "exp-gnp": _experiment_command(
        "per-eigenvector nodal census of G(n,p) adjacency spectra", run_gnp_scan),
    "exp-tails": _experiment_command(
        "empirical exceedance of the operator-norm tail bounds", run_tail_mc),
    "exp-inner": _experiment_command(
        "max |<f,1>| over non-first adjacency eigenvectors", run_inner_product_check),
    "exp-linf": _experiment_command(
        "sup norms of adjacency eigenvectors across graph sizes", run_linf_scan),
    "exp-fact": _experiment_command(
        "neighborhood union/intersection fractions for random k-tuples",
        run_neighborhood_fact, _check_tuple_sizes),
    "exp-courant": _experiment_command(
        "how often eigenvector #k has more than k weak domains", run_courant_report,
        _check_regular),
}


def _command_parser(name: str) -> _Parser:
    """Subcommand name's parser: --config and its flags, None when absent."""
    parser = _Parser(prog=f"graphnodal {name}")
    parser.add_argument("--config", default=None, help="file of 'key = value' defaults")
    for flag in _COMMANDS[name]["options"]:
        parser.add_argument(f"--{flag}", default=None)
    return parser


class _Subcommand(_Parser):
    """A subcommand's entry in the top-level tree, reached only after leading
    unknown flags: it parses the rest of argv with the subcommand's own
    parser, so the call answers as if that parser were in the tree."""

    def parse_known_args(self, args=None, namespace=None):
        return _command_parser(self.prog.rpartition(" ")[2]).parse_args(args, namespace), []


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the one parser it needs: a subcommand's own
    (args.command names it) when argv starts with one, else the top-level
    tree of subcommand names, which exits."""
    if argv and argv[0] in _COMMANDS:
        return _command_parser(argv[0]).parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    parser = _Parser(
        prog="graphnodal",
        description="Nodal domains of eigenvectors of random graphs.",
    )
    parser.add_argument("--version", action="version", version=f"graphnodal {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, command in _COMMANDS.items():
        subparsers.add_parser(name, help=command["help"])
    return parser.parse_args(argv)


def _resolve(args: argparse.Namespace, command: dict[str, Any]) -> dict[str, Any]:
    """Merge flags over config-file entries over defaults; convert and check ranges."""
    file_entries = _read_config_file(args.config) if args.config else {}
    opts: dict[str, Any] = {}
    for flag, default in command["options"].items():
        dest = flag.replace("-", "_")
        raw = getattr(args, dest)
        from_file = file_entries.pop(dest, None)
        if raw is not None:
            opts[dest] = _FLAGS[flag].convert(raw)
        elif from_file is not None:
            opts[dest] = _FLAGS[flag].convert(from_file)
        elif default is _REQUIRED:
            raise _UsageError(f"missing required flag --{flag}")
        else:
            opts[dest] = default
    if file_entries:
        unknown = ", ".join(sorted(file_entries))
        raise _UsageError(f"unknown config key(s): {unknown}")
    for flag in command["options"]:
        spec, value = _FLAGS[flag], opts[flag.replace("-", "_")]
        if value is not None and spec.ok is not None and not spec.ok(value):
            raise _UsageError(f"{spec.message}, got {value}")
    # n, n-list and exp-tails' k become vertex counts: one the graph layer
    # would refuse is a usage error, found before anything is sampled
    for count in (opts.get("n"), opts.get("k"), *(opts.get("n_list") or ())):
        if count is not None and count > MAX_VERTICES:
            raise _UsageError(f"vertex count must be at most {MAX_VERTICES}, got {count}")
    if command.get("check") is not None:
        command["check"](opts)
    return opts


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    command = _COMMANDS[args.command]
    try:
        opts = _resolve(args, command)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    try:
        config, write = command["run"](opts)
        with _output(opts, _scrub_argv(argv, command["options"]), config) as stream:
            write(stream)
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
