"""Nodal domain computation against hand cases, invariants, and the oracle."""

import functools
import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from graphnodal import (
    Graph,
    SignedFunction,
    adjacency_matrix,
    brute_force_domains,
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
from graphnodal.nodal import summary_dict, write_domains_csv, write_summary_json
from nodal_reference import (
    reference_nodal_summary,
    reference_strong_domains,
    reference_weak_domains,
)


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def sf(values, tau=0.0):
    return SignedFunction.from_values(values, tau)


def test_signed_function_basics():
    f = sf([1.0, -0.5, 0.0])
    assert f.signs.tolist() == [1, -1, 0]
    assert len(f) == 3
    # default tau scales with the sup norm: 1e-9 * 2 here
    g = SignedFunction.from_values([2.0, 1e-10, -1.0])
    assert g.signs.tolist() == [1, 0, -1]
    with pytest.raises(ValueError):
        SignedFunction.from_values([np.inf])
    with pytest.raises(ValueError):
        SignedFunction.from_values([1.0], tau=-1.0)
    with pytest.raises(ValueError):
        SignedFunction.from_values([[1.0, 2.0]])


def test_path_with_interior_zero():
    # (1, 0, -1) on a path: the zero belongs to both weak domains
    g = path(3)
    f = sf([1.0, 0.0, -1.0])
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1), 1), ((1, 2), -1))
    strong = strong_nodal_domains(g, f)
    assert strong.domains == (((0,), 1), ((2,), -1))


def test_single_edge_two_domains():
    g = Graph.from_edges(2, [(0, 1)])
    f = sf([1.0, -1.0])
    assert weak_nodal_domains(g, f).count == 2
    assert strong_nodal_domains(g, f).count == 2


def test_constant_sign_one_domain():
    g = cycle(6)
    f = sf([0.5, 1.0, 2.0, 0.25, 1.5, 3.0])
    assert weak_nodal_domains(g, f).domains == (((0, 1, 2, 3, 4, 5), 1),)
    assert strong_nodal_domains(g, f).count == 1


def test_identically_zero_function():
    # f = 0: one weak domain per connected component, sign 0; no strong domains
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    f = sf([0.0] * 5)
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1, 2), 0), ((3, 4), 0))
    assert strong_nodal_domains(g, f).count == 0


def test_alternating_cycle():
    # 5-cycle with values (1,-1,1,-1,1): vertices 4,0 are adjacent and both
    # positive, so there are 4 strong domains, not 5
    g = cycle(5)
    f = sf([1.0, -1.0, 1.0, -1.0, 1.0])
    strong = strong_nodal_domains(g, f)
    assert strong.count == 4
    assert weak_nodal_domains(g, f).count == 4


def test_zero_block_absorbed_not_separate():
    # (0, 1) on an edge: {0,1} is connected with no opposite strict signs, so
    # the lone zero vertex is not a maximal set and there is exactly 1 domain
    g = Graph.from_edges(2, [(0, 1)])
    f = sf([0.0, 1.0])
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0, 1), 1),)
    # same on a path (0, 0, -1): the zero block joins the negative side
    f2 = sf([0.0, 0.0, -1.0])
    assert weak_nodal_domains(path(3), f2).domains == (((0, 1, 2), -1),)


def test_isolated_zero_component_counted_once():
    # vertex 2 is isolated with f = 0: it is its own weak domain, sign 0
    g = Graph.from_edges(3, [(0, 1)])
    f = sf([1.0, -2.0, 0.0])
    weak = weak_nodal_domains(g, f)
    assert weak.domains == (((0,), 1), ((1,), -1), ((2,), 0))


def test_zero_bridging_same_sign():
    # (1, 0, 1) on a path: one weak domain covering everything
    f = sf([1.0, 0.0, 1.0])
    assert weak_nodal_domains(path(3), f).domains == (((0, 1, 2), 1),)


def test_summary_two_sided_path():
    g = path(5)
    f = sf([1.0, 0.0, -1.0, 1.0, 1.0])
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
    f = sf([1.0, 1.0, -1.0, -1.0])
    s = nodal_summary(g, f)
    assert s.positive_part == (0, 1)
    assert s.negative_part == (2, 3)
    assert s.exceptional == () and s.zeros == ()
    assert s.weak_count == 2 and s.strong_count == 2


def test_summary_tie_breaks_prefer_strict_then_smallest():
    # two positive domains of equal size: {0,1} has 2 strict vertices,
    # {3,4} has 2 as well, so the smallest-vertex rule picks {0,1}
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    f = sf([1.0, 1.0, -1.0, 1.0, 1.0])
    s = nodal_summary(g, f)
    assert s.positive_part == (0, 1)
    assert s.negative_part == (2,)


def test_summary_all_zero():
    g = path(3)
    s = nodal_summary(g, sf([0.0, 0.0, 0.0]))
    # the single sign-0 domain qualifies for both parts
    assert s.positive_part == (0, 1, 2)
    assert s.negative_part == (0, 1, 2)
    assert s.exceptional == ()
    assert s.exceptional_zeros == 0


def test_function_length_mismatch():
    with pytest.raises(ValueError):
        weak_nodal_domains(path(3), sf([1.0, 2.0]))


def test_brute_force_guards():
    g = path(3)
    with pytest.raises(ValueError):
        brute_force_domains(g, sf([1.0, 0.0, -1.0]), "medium")
    with pytest.raises(ValueError):
        brute_force_domains(path(21), sf([1.0] * 21), "weak")


def random_instance(gen, max_n=8):
    n = int(gen.integers(1, max_n + 1))
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for e in pairs if gen.random() < 0.45]
    g = Graph.from_edges(n, edges)
    # rational values with a heavy atom at zero to exercise tau=0 sign logic
    values = [float(Fraction(int(gen.integers(-2, 3)), int(gen.integers(1, 4)))) for _ in range(n)]
    return g, sf(values)


def test_matches_brute_force_oracle():
    gen = substream(2718, "oracle").generator()
    for _ in range(50):
        g, f = random_instance(gen)
        for kind, fast in (("weak", weak_nodal_domains), ("strong", strong_nodal_domains)):
            assert fast(g, f).domains == brute_force_domains(g, f, kind).domains


def test_randomized_invariants():
    gen = substream(99, "inv").generator()
    for _ in range(60):
        g, f = random_instance(gen, max_n=10)
        weak = weak_nodal_domains(g, f)
        strong = strong_nodal_domains(g, f)
        n_strict = int(np.count_nonzero(f.signs))

        # weak domains cover every vertex; strong cover exactly the strict ones
        covered = set().union(*(set(v) for v, _ in weak.domains)) if weak.domains else set()
        assert covered == set(range(g.n))
        strong_cover = set().union(*(set(v) for v, _ in strong.domains)) if strong.domains else set()
        assert strong_cover == {v for v in range(g.n) if f.signs[v] != 0}
        assert sum(len(v) for v, _ in strong.domains) == n_strict

        # every strong domain grows into exactly one weak domain of the same
        # sign when the zero vertices are added back
        for verts, sign in strong.domains:
            assert any(set(verts) <= set(wv) and sign == ws for wv, ws in weak.domains)

        # sign-0 weak domains only arise as fully zero components: no
        # neighbor of such a domain carries a strict sign
        for verts, sign in weak.domains:
            if sign == 0:
                for v in verts:
                    assert all(f.signs[w] == 0 for w in g.adjacency[v])

        # flipping f negates domain signs but keeps the vertex sets
        flipped = sf((-f.values).tolist())
        wflip = weak_nodal_domains(g, flipped)
        assert {(v, -s) for v, s in weak.domains} == set(wflip.domains)

        # no zeros: weak and strong coincide
        if (f.signs != 0).all():
            assert weak.domains == strong.domains


def test_domains_csv_format():
    g = path(3)
    buf = io.StringIO()
    write_domains_csv(weak_nodal_domains(g, sf([1.0, 0.0, -1.0])), buf)
    assert buf.getvalue() == "weak,+,2,0;1\nweak,-,2,1;2\n"


def test_summary_json_format():
    g = path(3)
    buf = io.StringIO()
    write_summary_json(nodal_summary(g, sf([1.0, 0.0, -1.0])), buf)
    parsed = json.loads(buf.getvalue())
    assert parsed == {
        "P_size": 2, "N_size": 2, "E_size": 0, "Z_size": 1,
        "weak_count": 2, "strong_count": 2, "E_cap_Z": 0,
    }
    # keys come out sorted for byte-stable files
    body = buf.getvalue()
    assert body.index('"E_cap_Z"') < body.index('"E_size"') < body.index('"N_size"')


# --- whole-spectrum census -------------------------------------------------


def _forced_labeler(kind):
    def labeler(g):
        if kind == "dense":
            dense = adjacency_matrix(g).astype(np.float32)
            return functools.partial(graph_core._labels_dense, dense)
        return functools.partial(graph_core._labels_sparse, g.u, g.v)
    return labeler


@pytest.fixture(params=["dense", "sparse"])
def backend(request, monkeypatch):
    """Route every nodal entry point through one labeling backend."""
    monkeypatch.setattr(nodal, "_labeler", _forced_labeler(request.param))
    return request.param


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
    build = graph_core._labeler

    def counted(g):
        builds.append(g)
        return build(g)

    def refuse(*args, **kwargs):
        raise AssertionError("connected_components called")

    for module in (graph_core, nodal):
        monkeypatch.setattr(module, "_labeler", counted)
        monkeypatch.setattr(module, "connected_components", refuse)
    # a positive and a negative side sharing zero vertex 1, and a closed
    # zero component {4, 5}
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    f = sf([1.0, 0.0, -1.0, 1.0, 0.0, 0.0])
    reference = {weak_nodal_domains: reference_weak_domains,
                 strong_nodal_domains: reference_strong_domains}[domains]
    assert domains(g, f) == reference(g, f)
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
        f = SignedFunction.from_values(vectors[:, i], tau)
        ref = reference_nodal_summary(g, f)
        assert row == cells(ref), i
        assert nodal_summary(g, f) == ref, i
    assert census.connected == (len(connected_components(g)) == 1)


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
            f = sf(values[:, i])
            assert census.weak_count[i] == brute_force_domains(g, f, "weak").count
            assert census.strong_count[i] == brute_force_domains(g, f, "strong").count
            assert census.z_size[i] == int((f.signs == 0).sum())


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
            f = SignedFunction.from_values(vectors[:, i])
            assert weak_nodal_domains(g, f) == reference_weak_domains(g, f), i
            assert strong_nodal_domains(g, f) == reference_strong_domains(g, f), i


@pytest.mark.parametrize("kind,n,param", SPECTRUM_CASES)
def test_domains_of_spectra_on_both_labelers(backend, kind, n, param):
    test_domains_of_spectra_match_reference(kind, n, param)


def test_census_blocks_and_chunks_leave_counts_unchanged(monkeypatch):
    g = _sample("gnp", 40, 0.1, 7)
    vectors = eigendecompose(adjacency_matrix(g), "descending").eigenvectors
    whole = {kind: nodal_census(g, vectors).rows() for kind in ("dense", "sparse")}
    monkeypatch.setattr(nodal, "_CENSUS_BLOCK_ENTRIES", 3 * g.n)
    monkeypatch.setattr(graph_core, "_SPARSE_CHUNK_EDGES", 2 * g.num_edges)
    for kind in ("dense", "sparse"):
        monkeypatch.setattr(nodal, "_labeler", _forced_labeler(kind))
        assert nodal_census(g, vectors).rows() == whole["sparse"] == whole["dense"]


def test_census_backend_follows_edge_density():
    assert graph_core._labeler(_sample("gnp", 200, 0.5, 0)).func is graph_core._labels_dense
    assert graph_core._labeler(_sample("regular", 200, 3, 0)).func is graph_core._labels_sparse
    assert graph_core._labeler(Graph.from_edges(3, [])).func is graph_core._labels_sparse


def test_census_input_checks():
    g = path(3)
    with pytest.raises(ValueError):
        nodal_census(g, np.ones(3))
    with pytest.raises(ValueError):
        nodal_census(g, np.ones((4, 2)))
    with pytest.raises(ValueError):
        nodal_census(g, np.full((3, 1), np.nan))
    with pytest.raises(ValueError):
        nodal_census(g, np.ones((3, 1)), tau=-1.0)
    empty = nodal_census(g, np.ones((3, 0)))
    assert empty.rows() == [] and empty.connected


@pytest.mark.parametrize("labels", ["dense", "sparse"])
def test_labels_match_scipy_at_n_1000(labels):
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    n = 1000
    gen = substream(5, "census-labels").generator()
    for g in (_sample("gnp", n, 0.004, 0), _sample("regular", n, 3, 0)):
        u, v = g.u, g.v
        masks = gen.random((4, n)) < np.array([[0.4], [0.6], [0.8], [1.0]])
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

