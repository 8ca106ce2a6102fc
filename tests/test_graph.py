"""Graph construction, samplers, RNG streams, and edge-list I/O."""

import inspect
import io
import math
from pathlib import Path

import numpy as np
import pytest

import graphnodal
from graphnodal import cli, graph_core
from graphnodal import (
    Graph,
    GraphParseError,
    ParameterError,
    RngStream,
    SamplingError,
    adjacency_matrix,
    connected_components,
    laplacian_matrix,
    read_graph,
    sample_gnp,
    sample_regular,
    sample_sym_xp_matrix,
    sample_xp_matrix,
    substream,
    write_graph,
)
from nodal_reference import neighbour_lists, reference_components
from sampler_reference import reference_sample_regular


def test_from_edges_canonicalizes():
    g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
    assert list(zip(g.u.tolist(), g.v.tolist())) == [(0, 1), (0, 2), (1, 3)]
    assert neighbour_lists(g) == [[1, 2], [0, 3], [0], [1]]
    assert g.num_edges == 3
    assert g.degrees().tolist() == [2, 2, 1, 1]


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(0, [])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_gnp_endpoints():
    empty = sample_gnp(4, 0.0, substream(0, "t"))
    assert empty.num_edges == 0
    full = sample_gnp(5, 1.0, substream(0, "t"))
    assert full.num_edges == 10  # complete graph on 5 vertices
    single = sample_gnp(1, 0.5, substream(0, "t"))
    assert single.n == 1 and single.num_edges == 0
    with pytest.raises(ValueError):
        sample_gnp(5, 1.5, substream(0, "t"))
    with pytest.raises(ValueError):
        sample_gnp(0, 0.5, substream(0, "t"))


def test_gnp_edge_count_concentration():
    # n=1000, p=0.5: edge count ~ Binomial(499500, 0.5), mean 249750,
    # sigma = sqrt(499500)/2 = 353.4.  A 4-sigma window fails with
    # probability ~6e-5 per draw; the seed below is fixed.
    n, p = 1000, 0.5
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    g = sample_gnp(n, p, substream(2024, "edge-count"))
    assert abs(g.num_edges - mean) < 4 * sigma


def test_gnp_pair_inclusion_frequency():
    # every pair should appear with frequency close to p across repeated
    # samples.  At 100 reps the per-pair 0.2 deviation band is ~4 binomial
    # sigmas, so with C(200,2)=19900 pairs a couple of violations per master
    # seed are expected by chance; master seed 1 was checked to pass.
    n, p, reps = 200, 0.5, 100
    iu = np.triu_indices(n, k=1)
    counts = np.zeros(len(iu[0]), dtype=np.int64)
    for i in range(reps):
        g = sample_gnp(n, p, substream(1, "pair-freq", i))
        a = np.zeros((n, n), dtype=bool)
        a[g.u, g.v] = True
        counts += a[iu]
    freqs = counts / reps
    assert float(np.abs(freqs - p).max()) < 0.2


def test_regular_sampler_degrees_and_simplicity():
    for i, (n, d) in enumerate([(10, 3), (11, 4), (20, 5), (7, 0)]):
        g = sample_regular(n, d, substream(5, "reg", i))
        assert g.degrees().tolist() == [d] * n
        assert len(set(zip(g.u.tolist(), g.v.tolist()))) == g.num_edges == n * d // 2


def test_regular_k4_is_unique_3_regular():
    # the only simple 3-regular graph on 4 vertices is K4
    g = sample_regular(4, 3, substream(9, "k4"))
    assert list(zip(g.u.tolist(), g.v.tolist())) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_regular_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sample_regular(5, 5, substream(0, "t"))  # d >= n
    with pytest.raises(ValueError):
        sample_regular(5, 3, substream(0, "t"))  # n*d odd
    with pytest.raises(ValueError):
        sample_regular(4, -1, substream(0, "t"))


def test_regular_budget_exhaustion(monkeypatch):
    # a budget of 0 restarts can never produce a pairing
    monkeypatch.setattr(graph_core, "REGULAR_RESTART_BUDGET", 0)
    with pytest.raises(SamplingError):
        sample_regular(10, 3, substream(0, "t"))


def test_regular_budget_message_states_expected_restarts(monkeypatch):
    monkeypatch.setattr(graph_core, "REGULAR_RESTART_BUDGET", 3)
    with pytest.raises(SamplingError) as err:
        sample_regular(300, 6, substream(0, "t"))
    assert str(err.value) == (
        "no simple 6-regular graph on 300 vertices within 3 restarts"
        " (a try is accepted with probability about exp(-(d^2-1)/4) = 0.00016,"
        " so about 6311 restarts are expected)"
    )


def test_rng_stream_determinism():
    a = substream(123, "exp", 7).generator().random(16)
    b = substream(123, "exp", 7).generator().random(16)
    assert np.array_equal(a, b)
    assert substream(5, "x") == RngStream(seed=5, label="x", index=0)
    with pytest.raises(ValueError):
        substream(5, "x", -1)


def test_rng_stream_separation():
    # distinct indices and labels should almost never collide
    base = [substream(77, "trial", i).generator().random(4).tobytes() for i in range(100)]
    assert len(set(base)) == 100
    assert substream(77, "other", 0).generator().random(4).tobytes() != base[0]
    # different seeds differ too, also those that agree modulo 2^64
    assert substream(78, "trial", 0).generator().random(4).tobytes() != base[0]
    zero = substream(0, "trial", 0).generator().random(4).tobytes()
    assert substream(2**64, "trial", 0).generator().random(4).tobytes() != zero


def test_matrices_match_graph():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    a = adjacency_matrix(g)
    assert np.array_equal(a, np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float))
    lap = laplacian_matrix(g)
    assert np.array_equal(lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))
    assert np.array_equal(lap.sum(axis=1), np.zeros(3))
    # off the diagonal a non-edge is -0.0, the negated adjacency entry
    assert np.signbit(lap).tolist() == [[False, True, True], [True, False, True],
                                        [True, True, False]]
    assert adjacency_matrix(g, np.float32).tobytes() == a.astype(np.float32).tobytes()


def test_xp_matrix_support_and_mean():
    p = 0.3
    m = sample_xp_matrix(40, 50, p, substream(3, "xp"))
    assert set(np.unique(m)) <= {p - 1.0, p}
    # mean of 2000 centered entries: sigma = sqrt(p(1-p)/2000) ~ 0.0102
    assert abs(m.mean()) < 4 * math.sqrt(p * (1 - p) / 2000)
    with pytest.raises(ValueError):
        sample_xp_matrix(0, 5, p, substream(0, "t"))


def test_sym_xp_matrix_structure():
    p = 0.6
    a = sample_sym_xp_matrix(30, p, substream(4, "sxp"))
    assert np.array_equal(a, a.T)
    assert np.array_equal(np.diag(a), np.full(30, p))
    off = a[np.triu_indices(30, k=1)]
    assert set(np.unique(off)) <= {p - 1.0, p}


def test_edge_list_round_trip():
    g = sample_gnp(12, 0.4, substream(6, "rt"))
    buf = io.StringIO()
    write_graph(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == f"12 {g.num_edges}"
    assert text.endswith("\n")
    back = read_graph(io.StringIO(text))
    assert back == g


def reference_edge_list(g):
    """The edge list as an f-string per line, the writer's reference."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in zip(g.u.tolist(), g.v.tolist()))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [1, 2, 9, 10, 9999, 10000, 10001])
def test_write_graph_matches_the_reference(n, tmp_path):
    rng = np.random.default_rng(n)
    # enough edges at n >= 10^4 to span several blocks of the writer
    pairs = rng.integers(0, n, (min(n * (n - 1) // 2, 40000), 2))
    pairs = np.unique(np.sort(pairs[pairs[:, 0] != pairs[:, 1]], axis=1), axis=0)
    g = Graph.from_edges(n, pairs)
    buf = io.StringIO()
    write_graph(g, buf)
    assert buf.getvalue() == reference_edge_list(g)
    path = tmp_path / "g.txt"
    write_graph(g, str(path))
    assert path.read_bytes() == reference_edge_list(g).encode()


def test_write_graph_near_the_vertex_limit():
    top = graph_core.MAX_VERTICES
    for n in (top, top - 1, 10**9, 10**9 + 1):
        g = Graph.from_edges(n, [(0, n - 1), (n - 2, n - 1), (9, 10), (99_999, 10**8)])
        buf = io.StringIO()
        write_graph(g, buf)
        assert buf.getvalue() == reference_edge_list(g)
        assert read_graph(io.StringIO(buf.getvalue())) == g


def test_read_graph_tolerates_comments_and_blank_lines():
    text = "# header comment\n\n3 2\n0 1\n\n# trailing\n1 2\n"
    g = read_graph(io.StringIO(text))
    assert list(zip(g.u.tolist(), g.v.tolist())) == [(0, 1), (1, 2)]


ERROR_LINES = [
    ("", 1),
    ("abc\n", 1),
    ("3 1\n0 1 2\n", 2),
    ("0 0\n", 1),
    ("3 -1\n", 1),
    ("3 2\n0 1\n", 1),  # count mismatch reported at the header
    ("3 1\n1 1\n", 2),
    ("3 1\n0 5\n", 2),
    ("3 1\n1 0\n", 2),  # order violation
    ("3 2\n0 1\n0 1\n", 3),
]


@pytest.mark.parametrize("text,lineno", ERROR_LINES)
def test_read_graph_errors_carry_line_numbers(text, lineno):
    with pytest.raises(GraphParseError) as err:
        read_graph(io.StringIO(text))
    assert f"line {lineno}" in str(err.value)


def test_read_graph_refuses_a_three_column_header():
    # the array path takes two tokens a line only, so the line parser names the header
    with pytest.raises(GraphParseError,
                       match="^line 1: expected two integers for header, got '3 1 0'$"):
        read_graph(io.StringIO("3 1 0\n0 1 2\n"))


def test_argument_refusals_are_parameter_errors():
    with pytest.raises(ParameterError, match="^substream index must be nonnegative, got -1$"):
        substream(0, "x", -1)
    rng = substream(0, "xp")
    cases = [
        (lambda: sample_xp_matrix(0, 3, 0.5, rng), r"matrix dimensions must be positive, got 0x3"),
        (lambda: sample_xp_matrix(2, 3, 1.5, rng), r"probability must lie in \[0,1\], got 1\.5"),
        (lambda: sample_sym_xp_matrix(0, 0.5, rng), r"matrix dimension must be positive, got 0"),
        (lambda: sample_sym_xp_matrix(2, -0.5, rng),
         r"probability must lie in \[0,1\], got -0\.5"),
    ]
    for call, message in cases:
        with pytest.raises(ParameterError, match=f"^{message}$"):
            call()


# --- array-backed graph, the one edge check, the labeler ---------------------


def test_views_on_hand_graph():
    g = Graph.from_edges(5, [(3, 0), (1, 0), (3, 1), (4, 0)])  # vertex 2 isolated
    assert g.u.tolist() == [0, 0, 0, 1] and g.v.tolist() == [1, 3, 4, 3]
    assert g.u.dtype == g.v.dtype == np.int64
    assert not g.u.flags.writeable and not g.v.flags.writeable
    assert neighbour_lists(g) == [[1, 3, 4], [0, 3], [], [0, 1], [0]]
    assert g.num_edges == 4
    assert g.degrees().tolist() == [3, 2, 0, 2, 1]


def test_public_names():
    # the package exports what its commands run; test oracles and the
    # tuple views of a graph live in the tests
    assert sorted(graphnodal.__all__) == [
        "BoundParams", "ConstantsResult", "DEFAULT_TAU_SCALE", "DomainPartition",
        "ExperimentReport", "Graph", "GraphParseError", "GridSpec", "NodalCensus",
        "NodalSummary", "ParameterError", "RngStream", "SamplingError",
        "Spectrum", "__version__", "adjacency_matrix", "alpha_beta", "binary_entropy",
        "c_constant", "certified_top_vector", "check_regular", "connected_components",
        "domains_dict",
        "eigendecompose", "exceptional_bound_k", "feasibility", "kp_formula",
        "laplacian_matrix", "nodal_census", "nodal_summary", "operator_norm",
        "read_graph", "reference_k", "run_courant_report", "run_fig1", "run_fig2",
        "run_gnp_scan", "run_inner_product_check", "run_linf_scan",
        "run_neighborhood_fact", "run_tail_mc", "sample_gnp", "sample_regular",
        "sample_sym_xp_matrix", "sample_xp_matrix", "strong_nodal_domains", "substream",
        "summary_dict", "tail_constants", "weak_nodal_domains", "write_domains_csv",
        "write_graph", "write_report_csv", "write_report_json", "write_spectrum_csv",
    ]
    for view in ("edges", "adjacency", "degree"):
        assert not hasattr(Graph, view)
    # no caller masks the components; the nodal layer labels its own masks
    assert list(inspect.signature(connected_components).parameters) == ["g"]


def test_readme_library_example_runs_as_written(capsys):
    # the README's one Python block runs, and prints what its comments say
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    said = [line.split("# ", 1)[1].split(",")[0]
            for line in block.splitlines() if line.startswith("print(")]
    assert printed == said


def test_from_edges_accepts_arrays_generators_and_no_edges():
    pairs = [(2, 0), (3, 1), (0, 1)]
    g = Graph.from_edges(4, pairs)
    assert Graph.from_edges(4, np.array(pairs)) == g
    assert Graph.from_edges(4, (pair for pair in pairs)) == g
    empty = Graph.from_edges(4, [])
    assert empty.num_edges == 0 and neighbour_lists(empty) == [[]] * 4
    assert empty.degrees().tolist() == [0] * 4
    assert Graph.from_edges(4, np.zeros((0, 2), dtype=np.int64)) == empty
    assert Graph.from_edges(4, iter(())) == empty
    with pytest.raises(ValueError):
        Graph.from_edges(4, [0, 1])
    with pytest.raises(ValueError):
        Graph.from_edges(4, np.array([[0, 1, 2]]))


def test_graph_equality_compares_n_and_edges():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert g == Graph.from_edges(4, [(3, 2), (1, 0)])
    assert g != Graph.from_edges(5, [(0, 1), (2, 3)])
    assert g != Graph.from_edges(4, [(0, 1), (1, 3)])
    assert g != Graph.from_edges(4, [(0, 1)])
    assert g != ((0, 1), (2, 3))


# defect kind -> (pairs on 4 vertices, index of the first bad pair, message);
# later pairs carry defects of kinds that take precedence on a single pair
EDGE_DEFECTS = {
    "self-loop": ([(0, 1), (1, 2), (3, 3), (0, 9), (0, 1)], 2, "self-loop at vertex 3"),
    "self-loop out of range": ([(0, 1), (9, 9)], 1, "self-loop at vertex 9"),
    "out of range": ([(0, 1), (1, 2), (2, 7), (3, 3)], 2, "edge (2,7) out of range for n=4"),
    "negative end": ([(0, 1), (-1, 2), (1, 1)], 1, "edge (-1,2) out of range for n=4"),
    "duplicate": ([(0, 1), (1, 2), (0, 1), (2, 2), (0, 9)], 2, "duplicate edge (0,1)"),
    "duplicate, last": ([(0, 1), (1, 2), (2, 3), (1, 2)], 3, "duplicate edge (1,2)"),
}

# defects only an edge-list file can carry: a pair in v < u order
FILE_DEFECTS = {
    "order": ([(0, 1), (2, 1), (3, 3), (0, 9)], 1, "edge (2,1) not in u < v order"),
    "order before duplicate": ([(1, 2), (2, 1)], 1, "edge (2,1) not in u < v order"),
    "range before order": ([(0, 1), (7, 2), (3, 3)], 1, "edge (7,2) out of range for n=4"),
}


@pytest.mark.parametrize("kind", sorted(EDGE_DEFECTS))
def test_from_edges_reports_first_bad_edge(kind):
    pairs, _, message = EDGE_DEFECTS[kind]
    for edges in (pairs, np.array(pairs)):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(4, edges)
        assert str(err.value) == message


def test_from_edges_names_reversed_duplicate_canonically():
    with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
        Graph.from_edges(4, [(1, 2), (0, 3), (2, 1)])


def edge_list_text(pairs, tail=()):
    """Edge-list text on 4 vertices with a comment line first and a blank line
    before every edge line, so edge line i is physical line 4 + 2i."""
    lines = ["# comment", f"4 {len(pairs) + len(tail)}"]
    for text in [f"{a} {b}" for a, b in pairs] + list(tail):
        lines += ["", text]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(EDGE_DEFECTS) + sorted(FILE_DEFECTS))
def test_read_graph_reports_first_bad_edge_line(kind):
    pairs, index, message = {**EDGE_DEFECTS, **FILE_DEFECTS}[kind]
    # a line that does not parse, after the defect, does not win either
    for tail in ((), ("x y",)):
        with pytest.raises(GraphParseError) as err:
            read_graph(io.StringIO(edge_list_text(pairs, tail)))
        assert str(err.value) == f"line {4 + 2 * index}: {message}"


def test_read_graph_unparsed_line_before_defect_wins():
    text = edge_list_text([(0, 1)], ("0 1 2", "3 3"))
    with pytest.raises(GraphParseError) as err:
        read_graph(io.StringIO(text))
    assert str(err.value) == "line 6: expected two integers for edge, got '0 1 2'"
    text = edge_list_text([(0, 1)], ("0 99999999999999999999",))
    with pytest.raises(GraphParseError, match="^line 6: expected two integers"):
        read_graph(io.StringIO(text))


def test_read_graph_sorts_edge_lines():
    g = read_graph(io.StringIO(edge_list_text([(2, 3), (0, 2), (0, 1)])))
    assert g == Graph.from_edges(4, [(0, 1), (0, 2), (2, 3)])


# --- read_graph's array path against the line parser -------------------------


def parsed(text):
    """read_graph's Graph or error text for text, and the line parser's."""
    def outcome(parse):
        try:
            return parse()
        except GraphParseError as err:
            return str(err)

    return (outcome(lambda: read_graph(io.StringIO(text))),
            outcome(lambda: graph_core._parse_edge_lines(text.split("\n"))))


def test_read_graph_takes_the_array_path_on_written_graphs():
    g = sample_gnp(30, 0.3, substream(2, "fast"))
    buf = io.StringIO()
    write_graph(g, buf)
    text = "# one\n  # two\n\n" + buf.getvalue()
    assert graph_core._load_edge_array(text) == g
    assert graph_core._load_edge_array("3 0") == Graph.from_edges(3, [])


MALFORMED = [
    *(text for text, _ in ERROR_LINES),
    *(edge_list_text(pairs, tail)
      for pairs, _, _ in {**EDGE_DEFECTS, **FILE_DEFECTS}.values() for tail in ((), ("x y",))),
    edge_list_text([(0, 1)], ("0 1 2", "3 3")),
    edge_list_text([(0, 1)], ("0 99999999999999999999",)),
]

ODD_BUT_READABLE = [
    "3 2\n0 1\n# middle\n1 2\n",  # a comment past the header
    "3 2\n0 1 # x\n1 2\n",  # a comment on an edge line
    "# a\n\n  # b\n3 1\n\n1 2\n\n",
    "3 2\r\n0 1\r\n1 2\r\n", "3 2\r\n0 1\r\n1 2", "3 1\r0 1\r",
    "3\t2\n0\t1\n 1  \t 2 \n", "+3 1\n0 +2\n", "1_0 1\n0 1_1\n", "3 1\n1.0 2\n",
    "3 1\n0 1e0\n", "0x3 1\n0 1\n", "03 1\n00 0001\n", "3 1\n\x0c0 1\x0b\n",
    "3 1\n\u0661 2\n", "\u01fe3 1\n0 1\n", "\ufeff3 1\n0 1\n", "3 1\n0\xa01\n",
]

BIG = 1 << 63
EXTREMES = [
    f"{BIG} 1\n0 1\n", f"{-BIG} 1\n0 1\n", f"3 {BIG}\n0 1\n", f"3 {-BIG}\n0 1\n",
    f"{BIG - 1} 1\n0 1\n", f"3 1\n0 {BIG}\n", f"3 1\n0 {-BIG}\n", f"3 1\n{-BIG} 1\n",
    f"3 1\n{BIG - 1} 1\n",
]


@pytest.mark.parametrize(
    "text", MALFORMED + ODD_BUT_READABLE + EXTREMES + ["", "\n \n", "# a\n#b\n", "# only"]
)
def test_read_graph_agrees_with_line_parser(text):
    fast, lines = parsed(text)
    assert fast == lines


def test_read_graph_agrees_with_line_parser_on_generated_lists():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    token = st.one_of(st.integers(-2, 7).map(str), st.sampled_from(["x", "1.0", "+1", "", "-0"]))
    line = st.one_of(
        st.tuples(token, st.sampled_from([" ", "\t", "  ", " \t "]), token).map("".join),
        st.sampled_from(["", " ", "# c", "0 1 2"]),
    )

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(-1, 6), st.integers(-1, 6), st.lists(line, max_size=8),
        st.sampled_from(["\n", "\r\n"]), st.booleans(),
    )
    def check(n, m, body, end, comment):
        text = end.join(["# header"] * comment + [f"{n} {m}"] + body) + end
        fast, lines = parsed(text)
        assert fast == lines

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(1, 9).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))),
        st.sampled_from([" ", "\t", "  "]),
    )
    def check_edge_list(graph, sep):
        n, pairs = graph
        text = "".join(f"{a}{sep}{b}\n" for a, b in [(n, len(pairs)), *pairs])
        fast, lines = parsed(text)
        assert fast == lines
        if isinstance(lines, Graph):
            assert graph_core._load_edge_array(text) == lines

    check()
    check_edge_list()




# texts on which np.fromstring and int() could part, and whether the array
# path takes them: zero-padded tokens, which an octal reader reads otherwise;
# tokens past 18 digits, where np.fromstring clamps a value above 2^63 - 1 to
# it without a warning; blanks, empty lines and a line break inside blanks
TWO_64_PLUS_3 = str(2**64 + 3)
ARRAY_PATH_TAKES = {
    "011 2\n00 010\n0007 08\n": True,
    "010 1\n0 9\n": True,
    "000000000000000003 1\n0 000000000000000002\n": True,  # 18 digits
    f"3 1\n0 {TWO_64_PLUS_3}\n": False,
    f"{TWO_64_PLUS_3} 1\n0 1\n": False,
    f"3 {TWO_64_PLUS_3}\n0 1\n": False,
    f"3 1\n{TWO_64_PLUS_3} 1\n": False,
    "0000000000000000003 1\n0 1\n": False,
    "3 1\n0 00000000000000000001\n": False,
    "3 0000000000000000001\n0000000000000000000 2\n": False,
    "1000000000000000000 0\n": False,
    "3 1\n0 1000000000000000001\n": False,
    "3 1\n0 99999999999999999999\n": False,
    "  3 2\n0 1\n1 2\n": False,
    "3 2 \n0 1\n1 2\t\n": False,
    "3 2\n0 1\n \n1 2\n": False,
    "3 2\n\n0 1\n\n\n1 2\n\n": True,
    "3 2\n0 1\n1 2": True,
    "3\t \t2\n0  1\n1\t2": True,
    "3 1\n0 \n 1\n": False,  # two edge lines of one token each, not (0, 1)
    "3 1\n0 1 2\n3\n": False,
}


@pytest.mark.parametrize("text", ARRAY_PATH_TAKES)
def test_the_array_path_reads_as_the_line_parser(text):
    fast, lines = parsed(text)
    assert fast == lines
    assert graph_core._load_edge_array(text) == (lines if ARRAY_PATH_TAKES[text] else None)

def test_the_array_path_takes_a_written_graph_after_the_command_header(tmp_path):
    path = tmp_path / "g.txt"
    assert cli.main(["gen-gnp", "--n", "40", "--p", "0.3", "--seed", "5", "--out", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#")
    g = graph_core._load_edge_array(text)
    assert g == read_graph(str(path)) == sample_gnp(40, 0.3, substream(5, "gen-gnp"))


def _masked_components(g, mask):
    """The components of the subgraph induced on a vertex mask, through the
    labeler's one-class case."""
    mask = np.asarray(mask, dtype=bool)
    return graph_core._components(graph_core._label(g, mask[np.newaxis])[0])


def test_connected_components_hand_cases(backend):
    g = Graph.from_edges(6, [(0, 1), (1, 2), (4, 5)])
    assert connected_components(g) == [[0, 1, 2], [3], [4, 5]]
    # masking out vertex 1 splits the path
    assert _masked_components(g, [1, 0, 1, 1, 1, 1]) == [[0], [2], [3], [4, 5]]
    assert _masked_components(g, np.zeros(6, dtype=bool)) == []
    assert _masked_components(g, [0, 0, 0, 0, 0, 1]) == [[5]]
    assert connected_components(Graph.from_edges(1, [])) == [[0]]


@pytest.mark.parametrize("kind,param", [("gnp", p) for p in (0.02, 0.1, 0.5)] + [("regular", 3)])
def test_connected_components_match_reference(backend, kind, param):
    gen = substream(12, f"components-{kind}-{param}").generator()
    for index in range(3):
        stream = substream(12, f"components-{kind}", index)
        g = sample_gnp(60, param, stream) if kind == "gnp" else sample_regular(60, param, stream)
        assert connected_components(g) == reference_components(g)
        for density in (0.3, 0.6, 0.9):
            mask = gen.random(g.n) < density
            assert _masked_components(g, mask) == reference_components(g, mask)


def triu_sample_gnp(n, p, rng):
    """sample_gnp as first written: one coin per np.triu_indices pair."""
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.generator().random(iu.size) < p
    return Graph.from_edges(n, np.column_stack((iu[keep], ju[keep])))


@pytest.mark.parametrize("n", [1, 2, 3, 50, 301])
@pytest.mark.parametrize("p", [0.0, 0.02, 0.5, 1.0])
def test_sample_gnp_matches_triu_indices_form(n, p, monkeypatch):
    stream = substream(19, "gnp-triu", n)
    expected = triu_sample_gnp(n, p, stream)
    assert sample_gnp(n, p, stream) == expected
    # row 0 holds the first n - 1 pairs, so chunks of 7 end inside rows
    monkeypatch.setattr(graph_core, "_GNP_CHUNK_DRAWS", 7)
    assert sample_gnp(n, p, stream) == expected


def assert_checked_arrays(g):
    # what the edge check of from_edges would make of the same pairs
    assert g == Graph.from_edges(g.n, np.column_stack((g.u, g.v)))
    for ends in (g.u, g.v):
        assert ends.dtype == np.int64 and not ends.flags.writeable


@pytest.mark.parametrize("n, p", [(1, 0.5), (40, 0.0), (40, 1.0), (97, 0.1), (800, 0.5)])
def test_sample_gnp_builds_what_the_edge_check_would(n, p):
    # n=800 has C(800,2) = 319600 pairs, so its draws span two chunks
    assert_checked_arrays(sample_gnp(n, p, substream(3, "direct", n)))


@pytest.mark.parametrize("n, d", [(7, 0), (4, 3), (20, 3), (31, 4), (60, 4)])
def test_sample_regular_builds_what_the_edge_check_would(n, d):
    for i in range(4):
        assert_checked_arrays(sample_regular(n, d, substream(3, "direct", i)))


def sampler_outcome(sample, *args):
    try:
        return sample(*args)
    except SamplingError as err:
        return str(err)


def test_sample_regular_matches_reference_sampler(monkeypatch):
    for d in (3, 4, 5):
        for seed in range(32):
            stream = substream(seed, "reg-oracle", d)
            assert sample_regular(40, d, stream) == reference_sample_regular(40, d, stream)
    failed = 0
    monkeypatch.setattr(graph_core, "REGULAR_RESTART_BUDGET", 1)
    for seed in range(32):
        stream = substream(seed, "reg-oracle-budget")
        got = sampler_outcome(sample_regular, 40, 5, stream)
        assert got == sampler_outcome(reference_sample_regular, 40, 5, stream, 1)
        failed += isinstance(got, str)
    assert failed >= 16  # a d=5 try is seldom accepted


def test_checked_edges_on_ascending_input():
    g = sample_gnp(60, 0.3, substream(8, "ascending"))
    u, v = np.array(g.u), np.array(g.v)
    shuffled = np.random.default_rng(8).permutation(u.size)
    for got in (graph_core._checked_edges(g.n, u, v),
                graph_core._checked_edges(g.n, u[shuffled], v[shuffled])):
        assert all(np.array_equal(a, b) for a, b in zip(got, (g.u, g.v)))
        for ends in got:
            assert ends.dtype == np.int64 and ends.flags.c_contiguous
            assert not np.shares_memory(ends, u) and not np.shares_memory(ends, v)
    # a strided view of an (m, 2) array, as the array path hands in
    pairs = np.column_stack((u, v))
    got = graph_core._checked_edges(g.n, pairs[:, 0], pairs[:, 1])
    assert got[0].flags.c_contiguous and not np.shares_memory(got[0], pairs)


def reference_labels(g, classes):
    """Per class row, each vertex's smallest component-mate among the
    vertices of its own class, and n on class 0, from the BFS reference."""
    labels = np.full(classes.shape, g.n)
    for row, cls in zip(labels, classes):
        for value in (1, -1):
            for comp in reference_components(g, cls == value):
                row[comp] = comp[0]
    return labels


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_class_rows_match_reference(backend):
    gen = substream(23, f"class-rows-{backend}").generator()
    graphs = [Graph.from_edges(1, []), Graph.from_edges(6, []),
              Graph.from_edges(7, [(i, i + 1) for i in range(6)])]
    for index in range(3):
        stream = substream(23, "class-rows", index)
        graphs += [sample_gnp(40, p, stream) for p in (0.05, 0.2, 0.6)]
        graphs.append(sample_regular(40, 3, stream))
    for g in graphs:
        dense = adjacency_matrix(g).astype(np.float32)
        classes = gen.integers(-1, 2, size=(7, g.n), dtype=np.int8)
        classes[0] = 0
        classes[1] = 1
        classes[2] = -1
        classes[3] = gen.random(g.n) < 0.5  # a mask as a 0/1 class row
        expected = reference_labels(g, classes)
        if backend == "dense":
            got = graph_core._labels_dense(dense, classes)
            as_mask = graph_core._labels_dense(dense, classes[3:4] > 0)
        else:
            got = graph_core._labels_sparse(g.u, g.v, classes)
            as_mask = graph_core._labels_sparse(g.u, g.v, classes[3:4] > 0)
        assert np.array_equal(got, expected), (g.n, g.num_edges)
        assert np.array_equal(as_mask, expected[3:4])


def test_sparse_labels_where_hooking_order_matters(force_backend):
    # one graph of disjoint shapes: a 2000-vertex star with its hub at its
    # lowest vertex, a path walked from its highest vertex down, K_{3,50}
    # whose 3 side holds its highest vertices, and a 2000-vertex star whose
    # hub is the graph's highest vertex, the higher root of all its edges
    star_first = [(0, leaf) for leaf in range(1, 2000)]
    path = [(x, x - 1) for x in range(2099, 2000, -1)]
    k350 = [(a, b) for a in range(2150, 2153) for b in range(2100, 2150)]
    star_last = [(leaf, 4152) for leaf in range(2153, 4152)]
    g = Graph.from_edges(4153, star_first + path + k350 + star_last)
    vertex = np.arange(g.n)
    alternating = np.where(vertex % 2, 1, -1).astype(np.int8)
    classes = np.stack([
        np.ones(g.n, dtype=np.int8),
        alternating,
        -alternating,
        np.where(vertex % 3, alternating, 0),  # every third vertex in class 0
        np.where(vertex == 4152, 0, 1),  # the last hub in class 0: 1999 singletons
        np.where(vertex >= 2150, -1, 1),  # K_{3,50} split at its two sides
    ]).astype(np.int8)
    force_backend("sparse")
    assert np.array_equal(graph_core._label(g, classes), reference_labels(g, classes))


def test_vertex_count_beyond_int64_keys_is_refused():
    # the edge check's keys u*n + v are exact int64 only up to MAX_VERTICES
    top = graph_core.MAX_VERTICES
    assert top * top < 2**63 <= (top + 1) * (top + 1)
    with pytest.raises(GraphParseError, match=f"^line 1: vertex count must be at most {top}"):
        read_graph(io.StringIO("4294967296 1\n2147483648 2147483649\n"))
    with pytest.raises(ValueError, match=f"^vertex count must be at most {top}"):
        Graph.from_edges(4294967296, [(2147483648, 2147483649)])
    # the samplers refuse it before they draw or allocate anything
    with pytest.raises(ValueError, match=f"^vertex count must be at most {top}"):
        sample_gnp(top + 1, 0.5, substream(0, "t"))
    with pytest.raises(ValueError, match=f"^vertex count must be at most {top}"):
        sample_regular(top + 1, 3, substream(0, "t"))
    # the header is refused before any edge line is read
    with pytest.raises(GraphParseError, match="^line 1: vertex count"):
        read_graph(io.StringIO("4294967296 1\nx y\n"))
    # at the limit the keys are still exact
    g = read_graph(io.StringIO(f"{top} 2\n0 {top - 1}\n{top - 2} {top - 1}\n"))
    assert list(zip(g.u.tolist(), g.v.tolist())) == [(0, top - 1), (top - 2, top - 1)]
    assert Graph.from_edges(top, [(top - 1, top - 2), (top - 1, 0)]) == g
