"""Weak and strong nodal domains, and the P/N/E/Z vertex decomposition.

A weak nodal domain of (G, f) is a maximal connected vertex set on which f
takes no two strictly opposite signs (f(x) f(y) >= 0 pairwise); a strong
domain is a maximal connected set on which f keeps one strict sign.  Signs
are taken relative to a zero tolerance tau: sign(v) = 0 iff |f(v)| <= tau.

Maximality has one subtle consequence for weak domains.  A connected block
of zero vertices that touches any strictly signed vertex is absorbed by that
side's domain and is not itself maximal, so the only sign-0 weak domains are
entire connected components of G on which f vanishes identically.  The
brute-force oracle below enumerates maximal sets directly and pins this down.

weak_nodal_domains and strong_nodal_domains list the vertex sets, by
breadth-first search.  nodal_census counts instead, for every column of an
eigenvector matrix at once: one labeling pass over a stack of vertex masks
(sign >= 0, sign <= 0, sign = +1 and sign = -1 per column, plus one all-true
row for connectivity) names each component by its smallest vertex, and array
tallies over those labels give the weak and strong counts and the P/N/E/Z
sizes.  nodal_summary is the one-column case.  The labeling has two backends,
picked by the graph's mean degree against DENSE_DEGREE_OVER_LOG_N * ln n:
on dense graphs, components grow from a seed by 0/1 float32 products with the
adjacency matrix, exact integer counts, so the labels do not depend on how
BLAS splits a product; on sparse graphs, trees of labels hook to the smaller
root across every edge and then pointer-jump.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import IO, Callable, Sequence

import numpy as np

from .graph_core import Graph, connected_components

__all__ = [
    "DEFAULT_TAU_SCALE",
    "DomainPartition",
    "NodalCensus",
    "NodalSummary",
    "SignedFunction",
    "brute_force_domains",
    "nodal_census",
    "nodal_summary",
    "strong_nodal_domains",
    "weak_nodal_domains",
    "write_domains_csv",
    "summary_dict",
    "write_summary_json",
]

# default zero tolerance = DEFAULT_TAU_SCALE * ||f||_inf
DEFAULT_TAU_SCALE = 1e-9

BRUTE_FORCE_LIMIT = 20

_SIGN_LABEL = {1: "+", -1: "-", 0: "0"}


def _signs(values: np.ndarray, tau) -> np.ndarray:
    """sign(values) as int8, with 0 wherever |values| <= tau."""
    return np.where(np.abs(values) <= tau, 0, np.sign(values)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class SignedFunction:
    """Real vertex function with a zero tolerance and derived signs.

    signs[v] is +1, -1 or 0 with 0 exactly when |values[v]| <= tau.  Use
    from_values; tau=None picks the floating-point default, tau=0 keeps
    exact signs for rational test inputs.
    """

    values: np.ndarray
    tau: float
    signs: np.ndarray

    @classmethod
    def from_values(
        cls, values: Sequence[float] | np.ndarray, tau: float | None = None
    ) -> "SignedFunction":
        vals = np.asarray(values, dtype=np.float64).copy()
        if vals.ndim != 1:
            raise ValueError(f"expected a flat value array, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("function values must be finite")
        if tau is None:
            tau = DEFAULT_TAU_SCALE * float(np.abs(vals).max()) if vals.size else 0.0
        tau = float(tau)
        if not tau >= 0.0:
            raise ValueError(f"zero tolerance must be nonnegative, got {tau}")
        signs = _signs(vals, tau)
        vals.flags.writeable = False
        signs.flags.writeable = False
        return cls(values=vals, tau=tau, signs=signs)

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class DomainPartition:
    """Nodal domains of one kind: (sorted vertex tuple, sign) pairs.

    Domains are listed in lexicographic order of their vertex tuples.  Weak
    domains may overlap, but only on zero vertices; strong domains are
    pairwise disjoint.
    """

    kind: str
    domains: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def count(self) -> int:
        return len(self.domains)

    def vertex_sets(self) -> set[tuple[tuple[int, ...], int]]:
        return set(self.domains)


def _check_lengths(g: Graph, f: SignedFunction) -> None:
    if len(f) != g.n:
        raise ValueError(f"function length {len(f)} != vertex count {g.n}")


def _canonical(kind: str, raw: list[tuple[list[int], int]]) -> DomainPartition:
    domains = tuple(sorted((tuple(verts), sign) for verts, sign in raw))
    return DomainPartition(kind=kind, domains=domains)


def weak_nodal_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    """All maximal connected sets with no two strictly opposite signs.

    Computed from the components of the subgraphs induced on {sign >= 0} and
    on {sign <= 0}: a component survives iff it contains a strictly signed
    vertex (taking that sign), except that all-zero connected components of
    G itself survive once with sign 0.  All-zero side components adjacent to
    a strictly signed vertex are strict subsets of the opposite side's
    domain, hence not maximal, and are dropped.
    """
    _check_lengths(g, f)
    signs = f.signs
    raw: list[tuple[list[int], int]] = []
    for side in (1, -1):
        for comp in connected_components(g, mask=(signs * side) >= 0):
            if any(signs[v] == side for v in comp):
                raw.append((comp, side))
    for comp in connected_components(g, mask=signs == 0):
        closed = all(signs[w] == 0 for v in comp for w in g.adjacency[v])
        if closed:
            raw.append((comp, 0))
    return _canonical("weak", raw)


def strong_nodal_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    """Connected components of the strictly positive and strictly negative sets."""
    _check_lengths(g, f)
    signs = f.signs
    raw: list[tuple[list[int], int]] = []
    for side in (1, -1):
        for comp in connected_components(g, mask=signs == side):
            raw.append((comp, side))
    return _canonical("strong", raw)


def brute_force_domains(g: Graph, f: SignedFunction, kind: str) -> DomainPartition:
    """Oracle: enumerate every connected vertex subset, filter by the domain
    condition, and keep the maximal ones under inclusion.  Refuses n > 20."""
    _check_lengths(g, f)
    if kind not in ("weak", "strong"):
        raise ValueError(f"kind must be 'weak' or 'strong', got {kind!r}")
    if g.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got n={g.n}")
    signs = f.signs
    nbr_mask = [0] * g.n
    for v in range(g.n):
        for w in g.adjacency[v]:
            nbr_mask[v] |= 1 << w

    def is_connected(subset: int) -> bool:
        start = subset & -subset
        reached = start
        frontier = start
        while frontier:
            grown = reached
            v_bits = frontier
            while v_bits:
                bit = v_bits & -v_bits
                grown |= nbr_mask[bit.bit_length() - 1] & subset
                v_bits ^= bit
            frontier = grown & ~reached
            reached = grown
        return reached == subset

    def sign_ok(members: list[int]) -> bool:
        s = {int(signs[v]) for v in members}
        if kind == "weak":
            return not (1 in s and -1 in s)
        return s == {1} or s == {-1}

    valid: list[int] = []
    for subset in range(1, 1 << g.n):
        members = [v for v in range(g.n) if subset >> v & 1]
        if sign_ok(members) and is_connected(subset):
            valid.append(subset)
    raw = []
    for s in valid:
        if any(t != s and t & s == s for t in valid):
            continue
        members = [v for v in range(g.n) if s >> v & 1]
        present = {int(signs[v]) for v in members}
        sign = 1 if 1 in present else (-1 if -1 in present else 0)
        raw.append((members, sign))
    return _canonical(kind, raw)


@dataclass(frozen=True)
class NodalSummary:
    """The P/N/E/Z decomposition for one (graph, function) pair.

    positive_part is the largest weak domain free of strictly negative
    vertices, negative_part the mirror image; exceptional is everything
    outside their union, and zeros is the sign-0 vertex set.  "Largest" ties
    break by most strictly signed vertices, then smallest contained vertex.
    """

    positive_part: tuple[int, ...]
    negative_part: tuple[int, ...]
    exceptional: tuple[int, ...]
    zeros: tuple[int, ...]
    weak_count: int
    strong_count: int
    exceptional_zeros: int


def nodal_summary(g: Graph, f: SignedFunction) -> NodalSummary:
    """The P/N/E/Z decomposition of f: the one-column case of the census."""
    _check_lengths(g, f)
    table, _, in_p, in_n = _census(f.signs[np.newaxis, :], _labeler(g))
    weak, strong, *_, e_cap_z = table[:, 0].tolist()
    covered = in_p[0] | in_n[0]
    return NodalSummary(
        positive_part=tuple(np.flatnonzero(in_p[0]).tolist()),
        negative_part=tuple(np.flatnonzero(in_n[0]).tolist()),
        exceptional=tuple(np.flatnonzero(~covered).tolist()),
        zeros=tuple(np.flatnonzero(f.signs == 0).tolist()),
        weak_count=weak,
        strong_count=strong,
        exceptional_zeros=e_cap_z,
    )


@dataclass(frozen=True)
class NodalCensus:
    """Nodal statistics of every column of an n-by-k function matrix.

    Each array field has length k, and entry i describes column i: the weak
    and strong domain counts and the sizes of P, N, E, Z and E cap Z, as
    defined by NodalSummary.  connected says whether the graph is.
    """

    weak_count: np.ndarray
    strong_count: np.ndarray
    p_size: np.ndarray
    n_size: np.ndarray
    e_size: np.ndarray
    z_size: np.ndarray
    e_cap_z: np.ndarray
    connected: bool

    def rows(self) -> list[tuple[int, ...]]:
        """Per column (weak, strong, P, N, E, Z, E cap Z) as Python ints."""
        table = np.column_stack((
            self.weak_count, self.strong_count, self.p_size, self.n_size,
            self.e_size, self.z_size, self.e_cap_z,
        ))
        return [tuple(row) for row in table.tolist()]


def nodal_census(g: Graph, vectors: np.ndarray, tau: float | None = None) -> NodalCensus:
    """Census of every column of `vectors` (shape n-by-k) on g.

    Column i gets the signs SignedFunction.from_values(vectors[:, i], tau)
    would give it, so each column's entries equal nodal_summary's.
    """
    vals = np.asarray(vectors, dtype=np.float64)
    if vals.ndim != 2 or vals.shape[0] != g.n:
        raise ValueError(f"expected an n-by-k matrix with n={g.n}, got shape {vals.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("function values must be finite")
    if tau is not None and not float(tau) >= 0.0:
        raise ValueError(f"zero tolerance must be nonnegative, got {tau}")
    label = _labeler(g)
    # columns go through in blocks, which bounds the working memory
    width = max(1, _CENSUS_BLOCK_ENTRIES // g.n)
    blocks = []
    for i in range(0, max(1, vals.shape[1]), width):
        block = vals[:, i:i + width]
        taus = DEFAULT_TAU_SCALE * np.abs(block).max(axis=0) if tau is None else float(tau)
        blocks.append(_census(_signs(block, taus).T, label))
    table = np.concatenate([block[0] for block in blocks], axis=1)
    return NodalCensus(*table, connected=blocks[0][1])


# The dense labeler runs on graphs whose mean degree 2m/n is at least
# DENSE_DEGREE_OVER_LOG_N * ln n, that is 1.5 times the connectivity threshold
# of G(n,p); sparser graphs split the sign masks into many small components,
# each of which costs the dense labeler one or more full products.  Measured
# on the census of whole G(n,p) adjacency spectra, BLAS pinned to one thread,
# 2-core x86-64 (Xeon, OpenBLAS 0.3.31): the two labelers break even near
# mean degree 6 for n=100, 7.5 for n=300 and 11 for n=1000 (1.3, 1.3 and
# 1.6 ln n); with the choice made here the slower labeler ran at worst 1.2x
# the faster one (n=300, mean degree 8.1: 56 ms against 48 ms).  Either
# labeler alone is far slower on the other's graphs: at n=1000 dense took
# 5.1 s against 0.60 s at mean degree 6, sparse 2.8 s against 0.40 s at
# mean degree 50.
DENSE_DEGREE_OVER_LOG_N = 1.5

# working-memory bounds: nodal_census takes at most this many (vertex,
# column) pairs per block, and _labels_sparse this many (row, edge) pairs
# per chunk; either way a few MB
_CENSUS_BLOCK_ENTRIES = 1 << 14
_SPARSE_CHUNK_EDGES = 1 << 15


def _labeler(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """The labeling function, masks -> labels, for g's edge density."""
    u, v = _edge_arrays(g)
    if 2 * u.size >= DENSE_DEGREE_OVER_LOG_N * math.log(g.n) * g.n:
        return functools.partial(_labels_dense, _dense_adjacency(g.n, u, v))
    return functools.partial(_labels_sparse, u, v)


def _edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    flat = np.fromiter(
        itertools.chain.from_iterable(g.edges), dtype=np.int64, count=2 * g.num_edges
    )
    return flat[0::2], flat[1::2]


def _dense_adjacency(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # from the edge arrays: graph_core.adjacency_matrix converts the edge
    # tuples once more, 60-100 ms against 25-40 ms here at n=1000, p=1/2
    adj = np.zeros((n, n), dtype=np.float32)
    adj[u, v] = 1.0
    adj[v, u] = 1.0
    return adj


# Both labelers take a (k, n) stack of vertex masks and return (k, n) labels:
# labels[r, x] is the smallest vertex of x's component in the subgraph
# induced on masks[r], and n where masks[r, x] is false.


def _labels_dense(adj: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Component labels of a (k, n) mask stack by frontier products.

    Each row grows a component from its smallest unlabeled vertex, one
    float32 product with the 0/1 adjacency matrix per step, for all rows at
    once; a row whose component stopped growing labels it with that seed
    and moves to its next one.  Every product entry is a count below 2**24,
    exact in float32, so the labels do not depend on how BLAS splits it.
    """
    n = masks.shape[1]
    labels = np.full(masks.shape, n, dtype=np.int64)
    todo = masks.copy()
    rows = np.flatnonzero(todo.any(axis=1))
    seeds = todo[rows].argmax(axis=1)
    reached = np.zeros((rows.size, n), dtype=bool)
    reached[np.arange(rows.size), seeds] = True
    while rows.size:
        avail = todo[rows]
        grown = ((reached.astype(np.float32) @ adj) > 0) & avail
        grown |= reached
        # stopped growing, or took up all that is left of the row's mask
        done = (grown == reached).all(axis=1) | (grown == avail).all(axis=1)
        reached = grown
        if not done.any():
            continue
        finished = rows[done]
        labels[finished] = np.where(reached[done], seeds[done, np.newaxis], labels[finished])
        todo[finished] &= ~reached[done]
        restart = np.flatnonzero(done)[todo[finished].any(axis=1)]
        seeds[restart] = todo[rows[restart]].argmax(axis=1)
        reached[restart] = False
        reached[restart, seeds[restart]] = True
        keep = ~done
        keep[restart] = True
        rows, seeds, reached = rows[keep], seeds[keep], reached[keep]
    return labels


def _labels_sparse(u: np.ndarray, v: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Component labels of a (k, n) mask stack by hooking and pointer jumping.

    Vertex x of row r is the node r*n + x of one forest.  Each round hooks
    the root at either end of every edge that still joins two trees to the
    smaller of the two roots, then jumps pointers until every node points
    at a root (Shiloach & Vishkin, J. Algorithms 3, 1982).  Roots only ever
    point lower, so each component ends with its smallest vertex as root.
    """
    k, n = masks.shape
    chunk = max(1, _SPARSE_CHUNK_EDGES // max(1, u.size))
    if k > chunk:
        return np.concatenate([
            _labels_sparse(u, v, masks[i:i + chunk]) for i in range(0, k, chunk)
        ])
    offsets = np.arange(k, dtype=np.int64)[:, np.newaxis] * n
    inside = masks[:, u] & masks[:, v]
    eu = (offsets + u)[inside]
    ev = (offsets + v)[inside]
    parent = np.arange(k * n, dtype=np.int64)
    while eu.size:
        pu, pv = parent[eu], parent[ev]
        cross = pu != pv
        eu, ev, pu, pv = eu[cross], ev[cross], pu[cross], pv[cross]
        low = np.minimum(pu, pv)
        np.minimum.at(parent, pu, low)
        np.minimum.at(parent, pv, low)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    return np.where(masks, parent.reshape(k, n) - offsets, n)


def _census(
    signs: np.ndarray, label: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, bool, np.ndarray, np.ndarray]:
    """Census of a (k, n) sign stack: the (7, k) table of NodalCensus's
    array fields in order, whether the graph is connected, and the (k, n)
    masks of P and N.

    One label call covers the masks sign >= 0, sign <= 0, sign = +1 and
    sign = -1 of every row, and one all-true row for connectivity.  A
    component's label is its smallest vertex, so a root is a vertex that
    labels itself, and the per-component tallies below sit at the roots.
    """
    k, n = signs.shape
    pos, neg, zero = signs > 0, signs < 0, signs == 0
    masks = np.concatenate([~neg, ~pos, pos, neg, np.ones((1, n), dtype=bool)])
    labels = label(masks)
    nonneg, nonpos, strict_pos, strict_neg = (labels[i * k:(i + 1) * k] for i in range(4))
    vertex = np.arange(n)
    base = np.arange(k)[:, np.newaxis] * (n + 1)

    def tally(lab: np.ndarray, where: np.ndarray) -> np.ndarray:
        # [row, root] -> vertices of that component inside `where`; column n
        # gathers the vertices outside the labeled mask
        return np.bincount((lab + base)[where], minlength=k * (n + 1)).reshape(k, n + 1)

    everywhere = np.ones((k, n), dtype=bool)
    nonneg_size = tally(nonneg, everywhere)[:, :n]
    nonpos_size = tally(nonpos, everywhere)[:, :n]
    pos_in = tally(nonneg, pos)[:, :n]
    neg_in_full = tally(nonpos, neg)
    neg_in = neg_in_full[:, :n]
    nonneg_root = nonneg == vertex
    nonpos_root = nonpos == vertex
    # an all-zero component of sign >= 0 whose sign <= 0 component is
    # all-zero too is a whole component of G: a sign-0 weak domain, and the
    # same vertex set, with the same root, on both sides
    closed = (
        nonneg_root & (pos_in == 0)
        & (np.take_along_axis(neg_in_full, nonpos, axis=1) == 0)
    )
    weak = (
        (nonneg_root & (pos_in > 0)).sum(axis=1)
        + (nonpos_root & (neg_in > 0)).sum(axis=1)
        + closed.sum(axis=1)
    )
    strong = (strict_pos == vertex).sum(axis=1) + (strict_neg == vertex).sum(axis=1)

    def pick(lab, candidate, size, strict):
        # largest, then most strictly signed, then smallest root
        key = np.where(candidate, (size * (n + 1) + strict) * (n + 1) + (n - vertex), -1)
        root = key.argmax(axis=1)
        found = key[np.arange(k), root] >= 0
        return (lab == root[:, np.newaxis]) & found[:, np.newaxis]

    in_p = pick(nonneg, nonneg_root & ((pos_in > 0) | closed), nonneg_size, pos_in)
    in_n = pick(nonpos, nonpos_root & ((neg_in > 0) | closed), nonpos_size, neg_in)
    covered = in_p | in_n
    table = np.stack([
        weak, strong, in_p.sum(axis=1), in_n.sum(axis=1), n - covered.sum(axis=1),
        zero.sum(axis=1), (zero & ~covered).sum(axis=1),
    ])
    return table, bool((labels[-1] == 0).all()), in_p, in_n


def write_domains_csv(partition: DomainPartition, stream: IO[str]) -> None:
    """One row per domain: kind, sign, size, semicolon-joined sorted vertices."""
    for verts, sign in partition.domains:
        stream.write(
            f"{partition.kind},{_SIGN_LABEL[sign]},{len(verts)},"
            + ";".join(str(v) for v in verts)
            + "\n"
        )


def summary_dict(summary: NodalSummary) -> dict:
    return {
        "P_size": len(summary.positive_part),
        "N_size": len(summary.negative_part),
        "E_size": len(summary.exceptional),
        "Z_size": len(summary.zeros),
        "weak_count": summary.weak_count,
        "strong_count": summary.strong_count,
        "E_cap_Z": summary.exceptional_zeros,
    }


def write_summary_json(summary: NodalSummary, stream: IO[str]) -> None:
    json.dump(summary_dict(summary), stream, indent=1, sort_keys=True)
    stream.write("\n")
