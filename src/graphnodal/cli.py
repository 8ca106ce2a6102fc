"""Command-line front end: samplers, spectra, nodal analysis, constants, experiments.

Usage shape: `graphnodal SUBCOMMAND [flags]`.  Subcommands: gen-gnp,
gen-regular, spectrum, domains, summary, constants, kp, exp-fig1, exp-fig2,
exp-gnp, exp-tails, exp-inner, exp-linf, exp-fact, exp-courant.

Conventions shared by every subcommand:
  * output goes to stdout, or to --out PATH;
  * the first output line is a comment "# graphnodal VERSION | argv: ... |
    seed: ...", the second echoes the fully resolved configuration.  --threads
    is scrubbed from the echoed argv because it never affects results;
  * an optional --config FILE of "key = value" lines supplies defaults that
    explicit flags override; unknown keys are usage errors;
  * exit code 0 on success, 1 on usage errors, 2 on runtime failures.

JSON outputs carry the same leading comment lines; consumers should drop
lines starting with '#' before parsing.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Any, Callable

from . import __version__
from .bounds import GridSpec, exceptional_bound_k, kp_formula, reference_k
from .experiments import (
    ExperimentReport,
    _round_floats,
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
    adjacency_matrix,
    laplacian_matrix,
    read_graph,
    sample_gnp,
    sample_regular,
    substream,
    write_graph,
)
from .nodal import (
    _SIGN_LABEL,
    SignedFunction,
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


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise _UsageError(f"expected a comma-separated integer list, got {text!r}")
    return tuple(_parse_int(s) for s in items)


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise _UsageError(f"expected a comma-separated number list, got {text!r}")
    return tuple(_parse_float(s) for s in items)


def _parse_str(text: str) -> str:
    return text


def _choice(*allowed: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in allowed:
            raise _UsageError(f"expected one of {', '.join(allowed)}, got {text!r}")
        return text

    return parse


# Per-flag value constraints, applied after config merging.  Conservative on
# purpose: library preconditions repeat them, but failing them here keeps
# range mistakes in the usage-error exit class.
def _validate(opts: dict[str, Any]) -> None:
    rules = {
        "n": ("n must be >= 1", lambda v: v >= 1),
        "d": ("d must be >= 0", lambda v: v >= 0),
        "k": ("k must be >= 2", lambda v: v >= 2),
        "p": ("p must lie in [0,1]", lambda v: 0.0 <= v <= 1.0),
        "trials": ("trials must be >= 1", lambda v: v >= 1),
        "samples": ("samples must be >= 1", lambda v: v >= 1),
        "seed": ("seed must be >= 0", lambda v: v >= 0),
        "threads": ("threads must be >= 1", lambda v: v >= 1),
        "tau": ("tau must be >= 0", lambda v: v >= 0.0),
        "delta": ("delta must be > 0", lambda v: v > 0.0),
        "n_list": ("n-list entries must be >= 1", lambda v: all(x >= 1 for x in v)),
        "d_list": ("d-list entries must be >= 0", lambda v: all(x >= 0 for x in v)),
        "k_list": ("k-list entries must be >= 1", lambda v: all(x >= 1 for x in v)),
        "xi_list": ("xi-list entries must be > 0", lambda v: all(x > 0.0 for x in v)),
    }
    for name, value in opts.items():
        if value is None or name not in rules:
            continue
        message, ok = rules[name]
        if not ok(value):
            raise _UsageError(f"{message}, got {value}")


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


def _scrub_argv(argv: list[str]) -> list[str]:
    # --threads and --out never affect output content; leaving them in the
    # echoed argv would make otherwise-identical runs produce different bytes.
    scrubbed = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in ("--threads", "--out"):
            skip = True
            continue
        if token.startswith(("--threads=", "--out=")):
            continue
        scrubbed.append(token)
    return scrubbed


def _emit(body: str, opts: dict[str, Any], argv: list[str], config: dict[str, Any]) -> None:
    seed = opts.get("seed")
    header = (
        f"# graphnodal {__version__}"
        f" | argv: {' '.join(_scrub_argv(argv))}"
        f" | seed: {'none' if seed is None else seed}\n"
    )
    config_line = "# config: " + json.dumps(_round_floats(config), sort_keys=True) + "\n"
    text = header + config_line + body
    out = opts.get("out")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


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


def _run_gen_gnp(opts, argv) -> int:
    g = sample_gnp(opts["n"], opts["p"], substream(opts["seed"], "gen-gnp"))
    buf = io.StringIO()
    write_graph(g, buf)
    _emit(buf.getvalue(), opts, argv, {k: opts[k] for k in ("n", "p", "seed")})
    return 0


def _run_gen_regular(opts, argv) -> int:
    g = sample_regular(opts["n"], opts["d"], substream(opts["seed"], "gen-regular"))
    buf = io.StringIO()
    write_graph(g, buf)
    _emit(buf.getvalue(), opts, argv, {k: opts[k] for k in ("n", "d", "seed")})
    return 0


def _run_spectrum(opts, argv) -> int:
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
        buf = io.StringIO()
        write_spectrum_csv(spectrum, buf)
        body = buf.getvalue()
    else:
        payload = {
            "n": spectrum.n,
            "ordering": spectrum.ordering,
            "eigenvalues": spectrum.eigenvalues.tolist(),
            "eigenvectors": [spectrum.vector(i).tolist() for i in range(spectrum.n)],
            "residual_bound": spectrum.residual_bound,
            "orthogonality_defect": spectrum.orthogonality_defect,
        }
        body = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    _emit(body, opts, argv, config)
    return 0


def _signed_input(opts):
    g = read_graph(opts["graph"])
    values = _read_vector(opts["vector"], g.n)
    f = SignedFunction.from_values(values, opts["tau"])
    return g, f


def _run_domains(opts, argv) -> int:
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
        buf = io.StringIO()
        write_domains_csv(part, buf)
        body = buf.getvalue()
    else:
        payload = {
            "kind": part.kind,
            "count": part.count,
            "domains": [
                {"sign": _SIGN_LABEL[sign], "vertices": list(verts)}
                for verts, sign in part.domains
            ],
        }
        body = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    _emit(body, opts, argv, config)
    return 0


def _run_summary(opts, argv) -> int:
    g, f = _signed_input(opts)
    stats = summary_dict(nodal_summary(g, f))
    config = {"graph": opts["graph"], "vector": opts["vector"], "tau": opts["tau"]}
    if opts["format"] == "csv":
        keys = sorted(stats)
        body = ",".join(keys) + "\n" + ",".join(str(stats[k]) for k in keys) + "\n"
    else:
        body = json.dumps(stats, indent=1, sort_keys=True) + "\n"
    _emit(body, opts, argv, config)
    return 0


_CONSTANTS_COLUMNS = (
    "p", "k", "feasible", "q", "t", "a1", "a2", "C", "alpha", "beta", "D", "r",
    "delta", "theta", "gamma", "epsilon", "xi1", "xi2",
    "reference_k", "matches_reference",
)


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


def _run_constants(opts, argv) -> int:
    ps = opts["p_list"] if opts["p_list"] is not None else (opts["p"],)
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
    if opts["format"] == "csv":
        lines = [",".join(_CONSTANTS_COLUMNS)]
        for row in rows:
            cells = []
            for col in _CONSTANTS_COLUMNS:
                v = row[col]
                if v is None:
                    cells.append("")
                elif isinstance(v, bool):
                    cells.append(str(v).lower())
                elif isinstance(v, float):
                    cells.append(_fmt17(v))
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        body = "\n".join(lines) + "\n"
    else:
        body = json.dumps(_round_floats(rows), indent=1, sort_keys=True) + "\n"
    _emit(body, opts, argv, config)
    return 0


def _run_kp(opts, argv) -> int:
    ps = opts["p_list"] if opts["p_list"] is not None else (opts["p"],)
    rows = [(p, kp_formula(p)) for p in ps]
    config = {"p_list": list(ps)}
    if opts["format"] == "csv":
        body = "p,kp\n" + "".join(f"{_fmt17(p)},{k}\n" for p, k in rows)
    else:
        body = json.dumps(_round_floats([{"p": p, "kp": k} for p, k in rows]),
                          indent=1, sort_keys=True) + "\n"
    _emit(body, opts, argv, config)
    return 0


def _emit_report(report: ExperimentReport, opts, argv) -> int:
    buf = io.StringIO()
    if opts["format"] == "csv":
        write_report_csv(report, buf)
    else:
        write_report_json(report, buf)
    _emit(buf.getvalue(), opts, argv, report.config)
    return 0


def _experiment_runner(func: Callable[..., ExperimentReport], arg_names: tuple[str, ...]):
    def run(opts, argv) -> int:
        kwargs = {name: opts[name] for name in arg_names}
        kwargs["threads"] = opts["threads"]
        return _emit_report(func(**kwargs), opts, argv)

    return run


# Option tables: flag name -> (converter, default).  A None default means
# "optional"; required flags use _REQUIRED.
_REQUIRED = object()

_COMMON = {
    "out": (_parse_str, None),
}
_FORMAT = {"format": (_choice("csv", "json"), "csv")}
_THREADS = {"threads": (_parse_int, 1)}

_COMMANDS: dict[str, dict[str, Any]] = {
    "gen-gnp": {
        "help": "sample G(n,p) and write its edge list",
        "options": {
            "n": (_parse_int, _REQUIRED), "p": (_parse_float, _REQUIRED),
            "seed": (_parse_int, 0), **_COMMON,
        },
        "run": _run_gen_gnp,
    },
    "gen-regular": {
        "help": "sample a uniform d-regular simple graph and write its edge list",
        "options": {
            "n": (_parse_int, _REQUIRED), "d": (_parse_int, _REQUIRED),
            "seed": (_parse_int, 0), **_COMMON,
        },
        "run": _run_gen_regular,
    },
    "spectrum": {
        "help": "eigenvalues and eigenvectors of a graph matrix",
        "options": {
            "graph": (_parse_str, _REQUIRED),
            "matrix": (_choice("adjacency", "laplacian"), "adjacency"),
            "ordering": (_choice("descending", "ascending"), None),
            **_FORMAT, **_COMMON,
        },
        "run": _run_spectrum,
    },
    "domains": {
        "help": "weak or strong nodal domains of a vector on a graph",
        "options": {
            "graph": (_parse_str, _REQUIRED), "vector": (_parse_str, _REQUIRED),
            "kind": (_choice("weak", "strong"), "weak"),
            "tau": (_parse_float, None), **_FORMAT, **_COMMON,
        },
        "run": _run_domains,
    },
    "summary": {
        "help": "nodal census of a vector: part sizes, counts, exceptional set",
        "options": {
            "graph": (_parse_str, _REQUIRED), "vector": (_parse_str, _REQUIRED),
            "tau": (_parse_float, None),
            "format": (_choice("csv", "json"), "json"), **_COMMON,
        },
        "run": _run_summary,
    },
    "constants": {
        "help": "grid-search the tail-bound constants and the exceptional bound k",
        "options": {
            "p": (_parse_float, 0.5), "p-list": (_parse_float_list, None),
            "deltas": (_parse_float_list, None), "thetas": (_parse_float_list, None),
            "gamma-fractions": (_parse_float_list, None),
            "epsilon-gaps": (_parse_float_list, None),
            "xi1s": (_parse_float_list, None), "xi2s": (_parse_float_list, None),
            **_FORMAT, **_COMMON,
        },
        "run": _run_constants,
    },
    "kp": {
        "help": "closed-form exceptional-vertex count bound floor(1/log2(1/(1-p)))",
        "options": {
            "p": (_parse_float, 0.5), "p-list": (_parse_float_list, None),
            **_FORMAT, **_COMMON,
        },
        "run": _run_kp,
    },
    "exp-fig1": {
        "help": "nodal counts across the spectrum of random regular graphs",
        "options": {
            "d-list": (_parse_int_list, (3,)), "n": (_parse_int, 300),
            "trials": (_parse_int, 20), "seed": (_parse_int, 0),
            "tau": (_parse_float, None), **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(run_fig1, ("d_list", "n", "trials", "seed", "tau")),
    },
    "exp-fig2": {
        "help": "fraction of G(n,p) whose top Laplacian eigenvector has 3 weak domains",
        "options": {
            "n-list": (_parse_int_list, (100,)), "trials": (_parse_int, 500),
            "p": (_parse_float, 0.5), "seed": (_parse_int, 0),
            "tau": (_parse_float, None), **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(run_fig2, ("n_list", "trials", "p", "seed", "tau")),
    },
    "exp-gnp": {
        "help": "per-eigenvector nodal census of G(n,p) adjacency spectra",
        "options": {
            "n": (_parse_int, 100), "p": (_parse_float, 0.5),
            "trials": (_parse_int, 20), "seed": (_parse_int, 0),
            "tau": (_parse_float, None), **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(run_gnp_scan, ("n", "p", "trials", "seed", "tau")),
    },
    "exp-tails": {
        "help": "empirical exceedance of the operator-norm tail bounds",
        "options": {
            "p": (_parse_float, 0.5), "k": (_parse_int, 200),
            "samples": (_parse_int, 200),
            "xi-list": (_parse_float_list, (0.25, 0.5, 1.0, 2.0)),
            "delta": (_parse_float, 1.0), "seed": (_parse_int, 0),
            **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(
            run_tail_mc, ("p", "k", "samples", "xi_list", "delta", "seed")
        ),
    },
    "exp-inner": {
        "help": "max |<f,1>| over non-first adjacency eigenvectors",
        "options": {
            "n": (_parse_int, 200), "p": (_parse_float, 0.5),
            "trials": (_parse_int, 50), "seed": (_parse_int, 0),
            **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(run_inner_product_check, ("n", "p", "trials", "seed")),
    },
    "exp-linf": {
        "help": "sup norms of adjacency eigenvectors across graph sizes",
        "options": {
            "n-list": (_parse_int_list, (50, 100, 200, 400)),
            "p": (_parse_float, 0.5), "trials": (_parse_int, 20),
            "seed": (_parse_int, 0), "tau": (_parse_float, None),
            **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(run_linf_scan, ("n_list", "p", "trials", "seed", "tau")),
    },
    "exp-fact": {
        "help": "neighborhood union/intersection fractions for random k-tuples",
        "options": {
            "n": (_parse_int, 500), "p": (_parse_float, 0.5),
            "k-list": (_parse_int_list, (1, 2, 3)), "trials": (_parse_int, 100),
            "seed": (_parse_int, 0), **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(
            run_neighborhood_fact, ("n", "p", "k_list", "trials", "seed")
        ),
    },
    "exp-courant": {
        "help": "how often eigenvector #k has more than k weak domains",
        "options": {
            "source": (_choice("gnp", "regular"), "gnp"), "n": (_parse_int, 100),
            "p": (_parse_float, 0.5), "d": (_parse_int, 4),
            "trials": (_parse_int, 20), "seed": (_parse_int, 0),
            "tau": (_parse_float, None), **_THREADS, **_FORMAT, **_COMMON,
        },
        "run": _experiment_runner(
            run_courant_report, ("source", "n", "p", "d", "trials", "seed", "tau")
        ),
    },
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="graphnodal",
        description="Nodal domains of eigenvectors of random graphs.",
    )
    parser.add_argument("--version", action="version", version=f"graphnodal {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command["help"])
        sub.add_argument("--config", default=None, help="file of 'key = value' defaults")
        for flag in command["options"]:
            sub.add_argument(f"--{flag}", default=None)
    return parser


def _resolve(args: argparse.Namespace, command: dict[str, Any]) -> dict[str, Any]:
    """Merge flags over config-file entries over defaults; convert and validate."""
    file_entries = _read_config_file(args.config) if args.config else {}
    opts: dict[str, Any] = {}
    for flag, (convert, default) in command["options"].items():
        dest = flag.replace("-", "_")
        raw = getattr(args, dest)
        from_file = file_entries.pop(dest, None)
        if raw is not None:
            opts[dest] = convert(raw)
        elif from_file is not None:
            opts[dest] = convert(from_file)
        elif default is _REQUIRED:
            raise _UsageError(f"missing required flag --{flag}")
        else:
            opts[dest] = default
    if file_entries:
        unknown = ", ".join(sorted(file_entries))
        raise _UsageError(f"unknown config key(s): {unknown}")
    _validate(opts)
    return opts


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
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
        return command["run"](opts, argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
