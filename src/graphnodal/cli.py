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
    explicit flags override; unknown keys are usage errors.  In it, as in a
    --vector file, a comment starts at a '#' that begins the line or
    follows whitespace, so "graph = g#1.txt" names the file g#1.txt;
  * exit code 0 on success; 1 on usage errors, which are unknown flags and
    config keys, flag text that does not convert to the value its
    parameter's annotation names (a number that is not finite, a word
    outside its Literal), and any ParameterError (an argument the library
    refuses; the library states every range) that a command raises before
    its output opens; 2 on runtime failures such as bad input files,
    infeasible grids and exhausted samplers.

JSON outputs carry the same leading comment lines; consumers should drop
lines starting with '#' before parsing.
"""

from __future__ import annotations

import argparse
import collections.abc
import contextlib
import functools
import inspect
import json
import math
import re
import sys
import types
import typing
from typing import IO, Any, Callable, Iterator, Literal

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
    ParameterError,
    adjacency_matrix,
    laplacian_matrix,
    read_graph,
    sample_gnp,
    sample_regular,
    substream,
    write_graph,
)
from .nodal import (
    domains_dict,
    nodal_summary,
    strong_nodal_domains,
    summary_dict,
    weak_nodal_domains,
    write_domains_csv,
)
from .spectral import eigendecompose, write_spectrum_csv

__all__ = ["main"]


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
        raise ParameterError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ParameterError(f"expected a finite number, got {text!r}")
    return value


def _list_of(parse: Callable[[str], Any], kind: str) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        items = [s.strip() for s in text.split(",") if s.strip()]
        if not items:
            raise ParameterError(f"expected a comma-separated {kind} list, got {text!r}")
        return tuple(parse(s) for s in items)

    return parse_list


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise ParameterError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text

    return parse


def _converter(hint: Any) -> Callable[[str], Any]:
    """The converter of flag text to a parameter annotated hint, which may
    add "| None"; every range is the library's to refuse."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Literal:
        return _choice(*args)
    if origin in (typing.Union, types.UnionType):
        (value,) = [a for a in args if a is not type(None)]
        return _converter(value)
    if origin in (tuple, collections.abc.Sequence):
        return _list_of(_converter(args[0]), {int: "integer", float: "number"}[args[0]])
    return {int: _parse_int, float: _parse_float, str: str}[hint]


def _uncommented(line: str) -> str:
    """line stripped, without its comment: one starts at a '#' that begins
    the line or follows whitespace, so a '#' inside a value is kept."""
    return re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    entries: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = _uncommented(line)
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParameterError(f"config line {lineno} is not 'key = value': {line.rstrip()!r}")
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
def _output(out: str | None, seed: int | None, argv: list[str],
            config: dict[str, Any]) -> Iterator[IO[str]]:
    """The command's output stream, stdout or --out, with its two comment
    lines written; the command's writer streams its body into it."""
    header = (
        f"# graphnodal {__version__}"
        f" | argv: {' '.join(argv)}"
        f" | seed: {'none' if seed is None else seed}\n"
        "# config: " + json.dumps(rounded(config), sort_keys=True) + "\n"
    )
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
            stripped = _uncommented(line)
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
# A command is a function whose parameters are its flags ("_" for "-"),
# whose defaults are theirs and whose annotations give their converters, a
# Literal the words it branches on; a parameter without a default is a
# required flag.  It computes its result and returns the configuration its
# output echoes and a writer of its body; main opens the output after that,
# at --out, the one flag every command has beyond its function's.  A
# command looks library functions up as module globals when it runs, and
# an exp-* command's run holds its runner in a closure cell; none is bound
# in a default.  perfbench's tracer wraps the functions at both kinds of
# site.
_Writer = Callable[[IO[str]], None]
_Result = tuple[dict[str, Any], _Writer]
_Floats = tuple[float, ...]
_Format = Literal["csv", "json"]


def _records(records: dict[str, Any] | list[dict[str, Any]], fmt: _Format) -> _Writer:
    """A writer of one record, or a list of records with the same keys: as
    JSON, floats rounded, or as CSV, a header of the keys and one row of
    values per record, floats to 17 significant digits."""
    if fmt == "json":
        return functools.partial(write_json, rounded(records))
    rows = [records] if isinstance(records, dict) else records
    return functools.partial(write_csv, [rows[0].keys(), *(r.values() for r in rows)], digits=17)


def _gen_gnp(n: int, p: float, seed: int = 0) -> _Result:
    g = sample_gnp(n, p, substream(seed, "gen-gnp"))
    return {"n": n, "p": p, "seed": seed}, functools.partial(write_graph, g)


def _gen_regular(n: int, d: int, seed: int = 0) -> _Result:
    g = sample_regular(n, d, substream(seed, "gen-regular"))
    return {"n": n, "d": d, "seed": seed}, functools.partial(write_graph, g)


def _spectrum(graph: str, matrix: Literal["adjacency", "laplacian"] = "adjacency",
              ordering: str | None = None, format: _Format = "csv") -> _Result:
    g = read_graph(graph)
    build = adjacency_matrix if matrix == "adjacency" else laplacian_matrix
    if ordering is None:
        ordering = "descending" if matrix == "adjacency" else "ascending"
    spectrum = eigendecompose(build(g), ordering)
    config = {"graph": graph, "matrix": matrix, "ordering": ordering}
    if format == "csv":
        return config, functools.partial(write_spectrum_csv, spectrum)
    return config, functools.partial(write_json, {
        "n": spectrum.n,
        "ordering": spectrum.ordering,
        "eigenvalues": spectrum.eigenvalues.tolist(),
        "eigenvectors": [spectrum.vector(i).tolist() for i in range(spectrum.n)],
        "residual_bound": spectrum.residual_bound,
        "orthogonality_defect": spectrum.orthogonality_defect,
    })


def _graph_and_vector(graph: str, vector: str):
    g = read_graph(graph)
    return g, _read_vector(vector, g.n)


def _domains(graph: str, vector: str, kind: Literal["weak", "strong"] = "weak",
             tau: float | None = None, format: _Format = "csv") -> _Result:
    part = (weak_nodal_domains if kind == "weak" else strong_nodal_domains)(
        *_graph_and_vector(graph, vector), tau)
    config = {"graph": graph, "vector": vector, "kind": kind, "tau": tau}
    if format == "csv":
        return config, functools.partial(write_domains_csv, part)
    return config, functools.partial(write_json, domains_dict(part))


def _summary(graph: str, vector: str, tau: float | None = None,
             format: _Format = "json") -> _Result:
    summary = nodal_summary(*_graph_and_vector(graph, vector), tau)
    config = {"graph": graph, "vector": vector, "tau": tau}
    return config, _records(dict(sorted(summary_dict(summary).items())), format)


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


def _probabilities(p: float, p_list: _Floats | None) -> _Floats:
    """The p values of kp and constants: --p-list if given, else --p."""
    return (p,) if p_list is None else p_list


def _constants(p: float = 0.5, p_list: _Floats | None = None,
               deltas: _Floats = GridSpec.deltas, thetas: _Floats = GridSpec.thetas,
               gamma_fractions: _Floats = GridSpec.gamma_fractions,
               epsilon_gaps: _Floats = GridSpec.epsilon_gaps, xi1s: _Floats = GridSpec.xi1s,
               xi2s: _Floats = GridSpec.xi2s, format: _Format = "csv") -> _Result:
    ps = _probabilities(p, p_list)
    grid = GridSpec(deltas, thetas, gamma_fractions, epsilon_gaps, xi1s, xi2s)
    rows = [_constants_row(exceptional_bound_k(q, grid)) for q in ps]
    config = {"p_list": list(ps), **{name: list(v) for name, v in vars(grid).items()}}
    return config, _records(rows, format)


def _kp(p: float = 0.5, p_list: _Floats | None = None, format: _Format = "csv") -> _Result:
    ps = _probabilities(p, p_list)
    return {"p_list": list(ps)}, _records([{"p": q, "kp": kp_formula(q)} for q in ps], format)


def _flags(*fns: Callable[..., Any]) -> dict[str, tuple[Any, Callable[[str], Any]]]:
    """A command's flags, name -> (default, converter): one per named
    parameter of each fn in turn, its default (inspect.Parameter.empty if
    none) and its annotation's converter, then --out."""
    flags = {}
    for fn in fns:
        for p in inspect.signature(fn, eval_str=True).parameters.values():
            if p.kind is not p.VAR_KEYWORD:
                flags[p.name.replace("_", "-")] = (p.default, _converter(p.annotation))
    return {**flags, "out": (None, str)}


def _command(text: str, run: Callable[..., _Result]) -> dict[str, Any]:
    """A subcommand whose flags are run's parameters."""
    return {"help": text, "options": _flags(run), "run": run}


def _experiment_command(text: str, runner: Callable[..., ExperimentReport]) -> dict[str, Any]:
    """An exp-* subcommand: the runner's flags, then run's --format.  run
    holds the runner in its closure, where perfbench's tracer finds it."""
    def run(format: _Format = "csv", **kwargs: Any) -> _Result:
        report = runner(**kwargs)
        write = write_report_csv if format == "csv" else write_report_json
        return report.config, functools.partial(write, report)

    return {"help": text, "options": _flags(runner, run), "run": run}


_COMMANDS: dict[str, dict[str, Any]] = {
    "gen-gnp": _command("sample G(n,p) and write its edge list", _gen_gnp),
    "gen-regular": _command(
        "sample a uniform d-regular simple graph and write its edge list", _gen_regular),
    "spectrum": _command("eigenvalues and eigenvectors of a graph matrix", _spectrum),
    "domains": _command("weak or strong nodal domains of a vector on a graph", _domains),
    "summary": _command(
        "nodal census of a vector: part sizes, counts, exceptional set", _summary),
    "constants": _command(
        "grid-search the tail-bound constants and the exceptional bound k", _constants),
    "kp": _command(
        "closed-form exceptional-vertex count bound floor(1/log2(1/(1-p)))", _kp),
    "exp-fig1": _experiment_command(
        "nodal counts across the spectrum of random regular graphs", run_fig1),
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
        run_neighborhood_fact),
    "exp-courant": _experiment_command(
        "how often eigenvector #k has more than k weak domains", run_courant_report),
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
    """Merge flags over config-file entries over defaults, converted."""
    file_entries = _read_config_file(args.config) if args.config else {}
    opts: dict[str, Any] = {}
    for flag, (default, convert) in command["options"].items():
        dest = flag.replace("-", "_")
        raw = getattr(args, dest)
        from_file = file_entries.pop(dest, None)
        text = from_file if raw is None else raw
        if text is not None:
            opts[dest] = convert(text)
        elif default is inspect.Parameter.empty:
            raise ParameterError(f"missing required flag --{flag}")
        else:
            opts[dest] = default
    if file_entries:
        unknown = ", ".join(sorted(file_entries))
        raise ParameterError(f"unknown config key(s): {unknown}")
    return opts


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    command = _COMMANDS[args.command]
    write = None
    try:
        opts = _resolve(args, command)
        out, echoed = opts.pop("out"), _scrub_argv(argv, command["options"])
        config, write = command["run"](**opts)
        with _output(out, opts.get("seed"), echoed, config) as stream:
            write(stream)
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        # a refused argument is a usage error until the command has its result
        return 1 if isinstance(exc, ParameterError) and write is None else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
