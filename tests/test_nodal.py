"""Nodal domain computation against hand cases, invariants, and the oracle."""

import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from graphnodal import (
    Graph,
    ParameterError,
    adjacency_matrix,
    connected_components,
    eigendecompose,
    laplacian_matrix,
    nodal_census,
    nodal_summary,
    sample_gnp,
    sample_regular,
    strong_nodal_domains,
    weak_nodal_domains,
    substream,
)
from graphnodal import graph_core, nodal
from graphnodal._text import write_json
from graphnodal.nodal import summary_dict, write_domains_csv
from nodal_reference import (
    brute_force_domains,
    neighbour_lists,
    reference_components,
    reference_nodal_summary,
    reference_signs,
    reference_strong_domains,
    reference_weak_domains,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_default_tau_scales_with_the_sup_norm():
    # the default tau is 1e-9 * 2 here: 1e-10 is under it and 3e-9 is not
    for values, zeros in (([2.0, 1e-10, -1.0], (1,)), ([2.0, 3e-9, -1.0], ())):
        assert nodal_summary(path(3), values).zeros == zeros
        assert nodal_census(path(3), np.array([values]).T).z_size.tolist() == [len(zeros)]
    assert strong_nodal_domains(path(3), [1.0, -0.5, 0.0]).domains == (((0,), 1), ((1,), -1))
    # the sup norm of a negative column, and an all-zero column, which is
    # all zeros whatever the sign of its tau
    columns = np.array([[-2.0, -1e-10, -1.0], [0.0, 0.0, -0.0]]).T
    assert nodal_census(path(3), columns).z_size.tolist() == [1, 3]
    assert nodal_summary(path(3), columns[:, 1]).zeros == (0, 1, 2)


def test_values_at_the_tolerance_are_zero():
    values = [0.5, -0.5, 0.6, -0.6, 0.0, -0.0]
    assert nodal_summary(path(6), values, 0.5).zeros == (0, 1, 4, 5)
    assert strong_nodal_domains(path(6), values, 0.5).domains == (((2,), 1), ((3,), -1))
    assert nodal_census(path(6), np.array([values]).T, 0.5).z_size.tolist() == [4]


# (values on path(3), tau, error): each entry point refuses each of them
REFUSALS = {
    "wrong-length": ([1.0, 2.0], None, ValueError),
    # a matrix to a one-vector entry point, a flat array to the census
    "flat-vs-matrix": ([1.0, 0.0, -1.0], None, ValueError),
    "not-finite": ([1.0, np.inf, 0.0], None, ValueError),
    "negative-tau": ([1.0, 0.0, -1.0], -1.0, ParameterError),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
@pytest.mark.parametrize("entry", [weak_nodal_domains, strong_nodal_domains, nodal_summary,
                                   nodal_census], ids=lambda fn: fn.__name__)
def test_entry_points_refuse_bad_input(entry, case):
    values, tau, error = REFUSALS[case]
    values = np.array(values)
    matrix = (entry is nodal_census) != (case == "flat-vs-matrix")
    with pytest.raises(ValueError) as refused:
        entry(path(3), values[:, np.newaxis] if matrix else values, tau)
    assert refused.type is error


def test_path_with_interior_zero():
    # (1, 0, -1) on a path: the zero belongs to both weak domains
    g = path(3)
    f = [1.0, 0.0, -1.0]
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1), 1), ((1, 2), -1))
    strong = strong_nodal_domains(g, f)
    assert strong.domains == (((0,), 1), ((2,), -1))


def test_single_edge_two_domains():
    g = Graph.from_edges(2, [(0, 1)])
    f = [1.0, -1.0]
    assert weak_nodal_domains(g, f).count == 2
    assert strong_nodal_domains(g, f).count == 2


def test_constant_sign_one_domain():
    g = cycle(6)
    f = [0.5, 1.0, 2.0, 0.25, 1.5, 3.0]
    assert weak_nodal_domains(g, f).domains == (((0, 1, 2, 3, 4, 5), 1),)
    assert strong_nodal_domains(g, f).count == 1


def test_identically_zero_function():
    # f = 0: one weak domain per connected component, sign 0; no strong domains
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    f = [0.0] * 5
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1, 2), 0), ((3, 4), 0))
    assert strong_nodal_domains(g, f).count == 0


def test_alternating_cycle():
    # 5-cycle with values (1,-1,1,-1,1): vertices 4,0 are adjacent and both
    # positive, so there are 4 strong domains, not 5
    g = cycle(5)
    f = [1.0, -1.0, 1.0, -1.0, 1.0]
    strong = strong_nodal_domains(g, f)
    assert strong.count == 4
    assert weak_nodal_domains(g, f).count == 4


def test_zero_block_absorbed_not_separate():
    # (0, 1) on an edge: {0,1} is connected with no opposite strict signs, so
    # the lone zero vertex is not a maximal set and there is exactly 1 domain
    g = Graph.from_edges(2, [(0, 1)])
    f = [0.0, 1.0]
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1), 1),)
    # same on a path (0, 0, -1): the zero block joins the negative side
    f2 = [0.0, 0.0, -1.0]
    assert weak_nodal_domains(path(3), f2).domains == (((0, 1, 2), -1),)


def test_isolated_zero_component_counted_once():
    # vertex 2 is isolated with f = 0: it is its own weak domain, sign 0
    g = Graph.from_edges(3, [(0, 1)])
    f = [1.0, -2.0, 0.0]
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0,), 1), ((1,), -1), ((2,), 0))


def test_zero_bridging_same_sign():
    # (1, 0, 1) on a path: one weak domain covering everything
    f = [1.0, 0.0, 1.0]
    assert weak_nodal_domains(path(3), f).domains == (((0, 1, 2), 1),)


def test_summary_two_sided_path():
    g = path(5)
    f = [1.0, 0.0, -1.0, 1.0, 1.0]
    s = nodal_summary(g, f)
    # weak domains: {0,1}+, {1,2}-, {3,4}+; the positive part is the larger
    # positive domain {3,4}, the negative part {1,2}, leaving 0 exceptional
    assert s.positive_part == (3, 4)
    assert s.negative_part == (1, 2)
    assert s.exceptional == (0,)
    assert s.zeros == (1,)
    assert s.weak_count == 3 and s.strong_count == 3
    assert s.exceptional_zeros == 0
    d = summary_dict(s)
    assert d == {
        "P_size": 2, "N_size": 2, "E_size": 1, "Z_size": 1,
        "weak_count": 3, "strong_count": 3, "E_cap_Z": 0,
    }


def test_summary_clean_two_domain_case():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    f = [1.0, 1.0, -1.0, -1.0]
    s = nodal_summary(g, f)
    assert s.positive_part == (0, 1)
    assert s.negative_part == (2, 3)
    assert s.exceptional == () and s.zeros == ()
    assert s.weak_count == 2 and s.strong_count == 2


def test_summary_tie_breaks_prefer_strict_then_smallest():
    # two positive domains of equal size: {0,1} has 2 strict vertices,
    # {3,4} has 2 as well, so the smallest-vertex rule picks {0,1}
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    f = [1.0, 1.0, -1.0, 1.0, 1.0]
    s = nodal_summary(g, f)
    assert s.positive_part == (0, 1)
    assert s.negative_part == (2,)


def test_summary_pick_past_two_million_vertices():
    # a pick key packing size, signed count and root into one int64 wraps
    # from n near 2.1e6, well under graph_core.MAX_VERTICES
    n = 2_200_000
    v = np.arange(n - 1)
    g = Graph.from_edges(n, np.column_stack((v, v + 1)))
    s = summary_dict(nodal_summary(g, np.ones(n)))
    assert s == {
        "P_size": n, "N_size": 0, "E_size": 0, "Z_size": 0,
        "weak_count": 1, "strong_count": 1, "E_cap_Z": 0,
    }


def test_summary_all_zero():
    g = path(3)
    s = nodal_summary(g, [0.0, 0.0, 0.0])
    # the single sign-0 domain qualifies for both parts
    assert s.positive_part == (0, 1, 2)
    assert s.negative_part == (0, 1, 2)
    assert s.exceptional == ()
    assert s.exceptional_zeros == 0


def test_argument_refusals_are_parameter_errors():
    with pytest.raises(graph_core.ParameterError,
                       match=r"^zero tolerance must be nonnegative, got -1\.0$"):
        nodal_summary(path(1), [1.0], tau=-1.0)
    with pytest.raises(graph_core.ParameterError,
                       match="^kind must be 'weak' or 'strong', got 'medium'$"):
        brute_force_domains(path(3), np.array([1, 0, -1]), "medium")


def test_brute_force_guards():
    g = path(3)
    with pytest.raises(ValueError):
        brute_force_domains(g, np.array([1, 0, -1]), "medium")
    with pytest.raises(ValueError):
        brute_force_domains(path(21), np.ones(21), "weak")
    with pytest.raises(ValueError, match="^function length 2 != vertex count 3$"):
        brute_force_domains(g, np.array([1, 1]), "weak")


def random_instance(gen, max_n=8):
    n = int(gen.integers(1, max_n + 1))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if gen.random() < 0.45]
    g = Graph.from_edges(n, edges)
    # rational values with a heavy atom at zero to exercise tau=0 sign logic
    values = [float(Fraction(int(gen.integers(-2, 3)), int(gen.integers(1, 4)))) for _ in range(n)]
    return g, values


def test_matches_brute_force_oracle():
    gen = substream(2718, "oracle").generator()
    for _ in range(50):
        g, values = random_instance(gen)
        signs = reference_signs(values, 0.0)
        for kind, fast in (("weak", weak_nodal_domains), ("strong", strong_nodal_domains)):
            assert fast(g, values, 0.0).domains == brute_force_domains(g, signs, kind).domains


def test_randomized_invariants():
    gen = substream(99, "inv").generator()
    for _ in range(60):
        g, values = random_instance(gen, max_n=10)
        signs = reference_signs(values, 0.0)
        weak = weak_nodal_domains(g, values, 0.0)
        strong = strong_nodal_domains(g, values, 0.0)
        n_strict = int(np.count_nonzero(signs))

        # weak domains cover every vertex; strong cover exactly the strict ones
        covered = set().union(*(set(v) for v, _ in weak.domains)) if weak.domains else set()
        assert covered == set(range(g.n))
        strong_cover = set().union(*(set(v) for v, _ in strong.domains)) if strong.domains else set()
        assert strong_cover == {v for v in range(g.n) if signs[v] != 0}
        assert sum(len(v) for v, _ in strong.domains) == n_strict

        # every strong domain grows into exactly one weak domain of the same
        # sign when the zero vertices are added back
        for verts, sign in strong.domains:
            assert any(set(verts) <= set(wv) and sign == ws for wv, ws in weak.domains)

        # sign-0 weak domains only arise as fully zero components: no
        # neighbor of such a domain carries a strict sign
        nbrs = neighbour_lists(g)
        for verts, sign in weak.domains:
            if sign == 0:
                for v in verts:
                    assert all(signs[w] == 0 for w in nbrs[v])

        # flipping f negates domain signs but keeps the vertex sets
        wflip = weak_nodal_domains(g, [-x for x in values], 0.0)
        assert {(v, -s) for v, s in weak.domains} == set(wflip.domains)

        # no zeros: weak and strong coincide
        if (signs != 0).all():
            assert weak.domains == strong.domains


def test_domains_csv_format():
    g = path(3)
    buf = io.StringIO()
    write_domains_csv(weak_nodal_domains(g, [1.0, 0.0, -1.0]), buf)
    assert buf.getvalue() == "weak,+,2,0;1\nweak,-,2,1;2\n"


def test_summary_json_format():
    g = path(3)
    buf = io.StringIO()
    write_json(summary_dict(nodal_summary(g, [1.0, 0.0, -1.0])), buf)
    parsed = json.loads(buf.getvalue())
    assert parsed == {
        "P_size": 2, "N_size": 2, "E_size": 0, "Z_size": 1,
        "weak_count": 2, "strong_count": 2, "E_cap_Z": 0,
    }
    # keys come out sorted for byte-stable files
    body = buf.getvalue()
    assert body.index('"E_cap_Z"') < body.index('"E_size"') < body.index('"N_size"')


# --- whole-spectrum census -------------------------------------------------


def _spy_label_calls(monkeypatch):
    """The shapes of the class stacks that backend calls take from now on."""
    shapes = []
    backend = graph_core._backend

    def spied(g):
        label = backend(g)

        def spy(classes):
            shapes.append(classes.shape)
            return label(classes)
        return spy
    monkeypatch.setattr(graph_core, "_backend", spied)
    return shapes


HAND_DOMAIN_CASES = [
    test_path_with_interior_zero,
    test_single_edge_two_domains,
    test_constant_sign_one_domain,
    test_identically_zero_function,
    test_alternating_cycle,
    test_zero_block_absorbed_not_separate,
    test_isolated_zero_component_counted_once,
    test_zero_bridging_same_sign,
]


@pytest.mark.parametrize("case", HAND_DOMAIN_CASES, ids=lambda case: case.__name__[5:])
def test_hand_domains_on_both_labelers(backend, case):
    case()


@pytest.mark.parametrize("domains", [weak_nodal_domains, strong_nodal_domains],
                         ids=lambda fn: fn.__name__)
def test_domain_lists_build_one_labeler(monkeypatch, domains):
    builds = []
    build = graph_core._backend

    def counted(g):
        builds.append(g)
        return build(g)

    def refuse(*args, **kwargs):
        raise AssertionError("connected_components called")

    monkeypatch.setattr(graph_core, "_backend", counted)
    monkeypatch.setattr(nodal, "connected_components", refuse)
    # a positive and a negative side sharing zero vertex 1, and a closed
    # zero component {4, 5}
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    values = [1.0, 0.0, -1.0, 1.0, 0.0, 0.0]
    reference = {weak_nodal_domains: reference_weak_domains,
                 strong_nodal_domains: reference_strong_domains}[domains]
    assert domains(g, values) == reference(g, reference_signs(values))
    assert len(builds) == 1


def cells(s):
    """A NodalSummary as its census row."""
    return (
        s.weak_count, s.strong_count, len(s.positive_part), len(s.negative_part),
        len(s.exceptional), len(s.zeros), s.exceptional_zeros,
    )


def assert_census_matches_reference(g, vectors, tau):
    census = nodal_census(g, vectors, tau)
    rows = census.rows()
    assert len(rows) == vectors.shape[1]
    for i, row in enumerate(rows):
        ref = reference_nodal_summary(g, reference_signs(vectors[:, i], tau))
        assert row == cells(ref), i
        assert nodal_summary(g, vectors[:, i], tau) == ref, i
    assert census.connected == (len(reference_components(g)) == 1)


# tau=0 cases as n-by-k value matrices, one hand-built function per column
HAND_CASES = {
    "zero bridging": (path(3), [[1, 0, 1], [1, 0, -1], [-2, 0, -1]]),
    "absorbed zero block": (path(4), [[0, 0, -1, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    "closed zero component": (
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        [[1, -1, 0, 0, 0, 0], [0, 0, 0, 1, 0, -1], [1, 0, 1, 0, 0, 0]],
    ),
    "isolated vertices": (
        Graph.from_edges(5, [(1, 2), (2, 3)]),
        [[0, 1, 0, -1, 0], [1, -1, 0, 0, -1], [0, 0, 0, 0, 2]],
    ),
    "all-zero function": (cycle(5), [[0] * 5, [1, 0, 0, 0, 0]]),
    "no edges": (Graph.from_edges(4, []), [[0, 1, -1, 0], [0] * 4, [1, 1, 1, 1]]),
    "single vertex": (Graph.from_edges(1, []), [[0], [3], [-1]]),
    "equal parts tie": (path(5), [[1, 1, -1, 1, 1], [-1, -1, 1, -1, -1]]),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_census_hand_cases(backend, case):
    g, columns = HAND_CASES[case]
    assert_census_matches_reference(g, np.array(columns, dtype=float).T, 0.0)


# (graph, function, P, N) where the pick of P and N turns on one rule
ROOT_PICK_CASES = {
    # P = {0,1,2} and N = {1,2,3} share the zeros 1 and 2
    "P cap N nonempty": (path(4), [2, 0, 0, -1], (0, 1, 2), (1, 2, 3)),
    # {0,1,2} and {3,4,5} have 3 vertices each, {3,4,5} 3 strictly signed
    "size tie, signed count decides": (
        Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        [0, 1, 0, 1, 1, 1, -1], (3, 4, 5), (6,),
    ),
    "mirrored size tie": (
        Graph.from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        [0, -1, 0, -1, -1, -1, 1], (6,), (3, 4, 5),
    ),
    # {1,3} and {0,2} tie on size and signed count; the smaller root wins
    "full tie, smallest root decides": (
        Graph.from_edges(5, [(1, 3), (0, 2)]), [1, 1, 1, 1, -1], (0, 2), (4,),
    ),
    # the closed zero component {0,1} ties on size with {2,3} and loses on
    # signed count, but is the only candidate without a positive vertex
    "closed component against a signed one": (
        Graph.from_edges(4, [(0, 1), (2, 3)]), [0, 0, 1, 1], (2, 3), (0, 1),
    ),
    # the larger closed component {0,1,2} beats {3} on both sides
    "closed component larger": (
        Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]), [0, 0, 0, 1, -1],
        (0, 1, 2), (0, 1, 2),
    ),
}


@pytest.mark.parametrize("case", sorted(ROOT_PICK_CASES))
def test_census_root_pick(backend, case):
    g, values, p_part, n_part = ROOT_PICK_CASES[case]
    s = nodal_summary(g, values)
    assert (s.positive_part, s.negative_part) == (p_part, n_part)
    assert_census_matches_reference(g, np.array([values], dtype=float).T, 0.0)


def test_census_random_rational_vectors(backend):
    gen = substream(4242, "census-rational").generator()
    for _ in range(40):
        g, _ = random_instance(gen, max_n=10)
        values = gen.integers(-2, 3, size=(g.n, 6)) / gen.integers(1, 4, size=(g.n, 6))
        values[gen.random(values.shape) < 0.3] = 0.0
        assert_census_matches_reference(g, values, 0.0)


def test_census_counts_match_brute_force(backend):
    gen = substream(1618, "census-oracle").generator()
    for _ in range(25):
        g, _ = random_instance(gen, max_n=12)
        values = gen.integers(-1, 2, size=(g.n, 4)).astype(float)
        census = nodal_census(g, values, 0.0)
        for i in range(values.shape[1]):
            signs = reference_signs(values[:, i], 0.0)
            assert census.weak_count[i] == brute_force_domains(g, signs, "weak").count
            assert census.strong_count[i] == brute_force_domains(g, signs, "strong").count
            assert census.z_size[i] == int((signs == 0).sum())


def _sample(kind, n, param, index):
    stream = substream(31, f"census-{kind}", index)
    return sample_gnp(n, param, stream) if kind == "gnp" else sample_regular(n, param, stream)


SPECTRUM_CASES = [("gnp", 60, p) for p in (0.02, 0.1, 0.5, 0.9)] + [
    ("regular", 60, d) for d in (3, 4)
]


@pytest.mark.parametrize("kind,n,param", SPECTRUM_CASES)
def test_census_of_adjacency_spectra(backend, kind, n, param):
    for index in range(2):
        g = _sample(kind, n, param, index)
        vectors = eigendecompose(adjacency_matrix(g), "descending").eigenvectors
        assert_census_matches_reference(g, vectors, None)


@pytest.mark.parametrize("kind,n,param", SPECTRUM_CASES)
def test_domains_of_spectra_match_reference(kind, n, param):
    # the domain lists group the graph_core labeler's output, so they are
    # checked against the breadth-first reference on whole spectra
    g = _sample(kind, n, param, 0)
    for matrix in (adjacency_matrix(g), laplacian_matrix(g)):
        vectors = eigendecompose(matrix).eigenvectors
        for i in range(0, n, 3):
            f, signs = vectors[:, i], reference_signs(vectors[:, i])
            assert weak_nodal_domains(g, f) == reference_weak_domains(g, signs), i
            assert strong_nodal_domains(g, f) == reference_strong_domains(g, signs), i


@pytest.mark.parametrize("kind,n,param", SPECTRUM_CASES)
def test_domains_of_spectra_on_both_labelers(backend, kind, n, param):
    test_domains_of_spectra_match_reference(kind, n, param)


def test_census_blocks_leave_counts_unchanged(force_backend, monkeypatch):
    g = _sample("gnp", 40, 0.1, 7)
    vectors = eigendecompose(adjacency_matrix(g), "descending").eigenvectors
    whole = {}
    for kind in ("dense", "sparse"):
        force_backend(kind)
        whole[kind] = nodal_census(g, vectors).rows()
    monkeypatch.setattr(graph_core, "_LABEL_BLOCK_CELLS", 3 * g.n)
    for kind in ("dense", "sparse"):
        force_backend(kind)
        assert nodal_census(g, vectors).rows() == whole["sparse"] == whole["dense"]


def test_label_call_takes_weak_masks_only_of_zero_columns(monkeypatch):
    shapes = _spy_label_calls(monkeypatch)
    g = path(5)
    # k = 4 columns, z = 2 of them with a zero
    columns = [[1, -1, 1, -1, 1], [0, 1, -1, 2, 2], [3, 2, 1, -1, -2], [1, 1, 0, 0, -1]]
    values = np.array(columns, dtype=float).T
    assert_census_matches_reference(g, values, 0.0)
    # connected_components' one all-true row, then k + 2z class rows
    assert shapes[:2] == [(1, 5), (4 + 2 * 2, 5)]
    for f, rows in ((columns[0], 1), (columns[1], 3)):
        for entry in (nodal_summary, weak_nodal_domains):
            shapes.clear()
            entry(g, f)
            assert shapes == [(rows, 5)], entry.__name__


def _mixed_spectrum():
    """A G(n,p) adjacency spectrum and a tau > 0 that puts a zero in some
    columns but not in all."""
    g = _sample("gnp", 60, 0.1, 3)
    vectors = eigendecompose(adjacency_matrix(g), "descending").eigenvectors
    tau = float(np.median(np.abs(vectors).min(axis=0)))
    has_zero = (np.abs(vectors) <= tau).any(axis=0)
    assert 0 < has_zero.sum() < has_zero.size
    return g, vectors, tau, has_zero


def test_census_of_mixed_zero_columns(backend):
    g, vectors, tau, _ = _mixed_spectrum()
    assert_census_matches_reference(g, vectors, tau)


def test_census_blocks_straddle_zero_and_zero_free_columns(backend, monkeypatch):
    g, vectors, tau, has_zero = _mixed_spectrum()
    k, z, rows = has_zero.size, has_zero.sum(), 7
    # the stack is k sign rows, then the z masks sign >= 0, then the z masks
    # sign <= 0: some block holds sign rows with and without a zero, some
    # sign rows and masks, and some masks of both sides
    blocks = has_zero[:k - k % rows].reshape(-1, rows)
    assert (blocks.any(axis=1) & ~blocks.all(axis=1)).any()
    assert k % rows and (k + z) % rows
    monkeypatch.setattr(graph_core, "_LABEL_BLOCK_CELLS", rows * g.n)
    assert_census_matches_reference(g, vectors, tau)


@pytest.mark.parametrize("rows", [1, 2, 4])
def test_label_calls_take_at_most_the_block_rows(backend, monkeypatch, rows):
    g, vectors, tau, _ = _mixed_spectrum()
    entries = (weak_nodal_domains, strong_nodal_domains, nodal_summary)

    def results():
        census = nodal_census(g, vectors, tau)
        return (connected_components(g), census.rows(), census.connected,
                [entry(g, f, tau) for entry in entries for f in vectors.T])
    whole = results()
    # max(1, cells // n) rows per call
    cells = {1: g.n - 1, 2: 3 * g.n - 1, 4: 4 * g.n}[rows]
    monkeypatch.setattr(graph_core, "_LABEL_BLOCK_CELLS", cells)
    shapes = _spy_label_calls(monkeypatch)
    assert results() == whole
    # a one-vector call with a zero takes three rows, the census 60 + 2z
    assert max(height for height, _ in shapes) == rows


def test_census_backend_follows_edge_density():
    assert graph_core._backend(_sample("gnp", 200, 0.5, 0)).func is graph_core._labels_dense
    assert graph_core._backend(_sample("regular", 200, 3, 0)).func is graph_core._labels_sparse
    assert graph_core._backend(Graph.from_edges(3, [])).func is graph_core._labels_sparse


def test_census_default_tau_is_per_column():
    # 2e-9 is above the default tau of its own column (1e-9), not of the other (1e-6)
    values = np.array([[1, 2e-9, -1], [1000, -1000, 1000]]).T
    assert_census_matches_reference(path(3), values, None)
    assert nodal_census(path(3), values).z_size.tolist() == [0, 0]


def test_census_input_checks():
    # the refusals are test_entry_points_refuse_bad_input's; no columns is
    # no refusal
    empty = nodal_census(path(3), np.ones((3, 0)))
    assert empty.rows() == [] and empty.connected


@pytest.mark.parametrize("labels", ["dense", "sparse"])
def test_labels_match_scipy_at_n_1000(labels):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n = 1000
    gen = substream(5, "census-labels").generator()
    cases = [(g, gen.random((4, n)) < np.array([[0.4], [0.6], [0.8], [1.0]]))
             for g in (_sample("gnp", n, 0.004, 0), _sample("regular", n, 3, 0))]
    if labels == "dense":
        # at p=1/2 a seed's adjacency row alone reaches most of its mask;
        # vertex 0 is the first seed and vertex x a later one of some
        # masks, each with no neighbour left in them
        g = _sample("gnp", n, 0.5, 0)
        adj = adjacency_matrix(g) > 0
        x = np.flatnonzero(~adj[0])[-1]
        masks = gen.random((4, n)) < np.array([[0.01], [0.3], [0.6], [1.0]])
        masks[1:3, adj[0]] = False
        masks[2, adj[x]] = False
        masks[1:3, 0] = masks[2, x] = True
        cases.append((g, masks))
    for g, masks in cases:
        u, v = g.u, g.v
        if labels == "dense":
            got = graph_core._labels_dense(adjacency_matrix(g).astype(np.float32), masks)
        else:
            got = graph_core._labels_sparse(u, v, masks)
        for mask, row in zip(masks, got):
            keep = mask[u] & mask[v]
            induced = sparse.coo_matrix((np.ones(keep.sum()), (u[keep], v[keep])), shape=(n, n))
            _, comp = csgraph.connected_components(induced, directed=False)
            smallest = np.full(comp.max() + 1, n)
            np.minimum.at(smallest, comp, np.arange(n))
            assert np.array_equal(row, np.where(mask, smallest[comp], n))

