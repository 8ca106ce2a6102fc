"""Graph data type, connected components, random samplers, and edge-list I/O.

A Graph on vertices 0..n-1 is two read-only int64 arrays u < v, one entry
per edge, sorted by (u, v), and they are the graph's one representation.
The samplers and read_graph hand them in; the matrix builders, degrees,
write_graph and the labeler read them.  write_graph formats the ids with
the spectrum CSV's array formatter (_text), '%d' byte for byte, and
read_graph reads text in that layout (decimal digits, blanks and newlines,
two tokens a line) in one np.fromstring call after a check of its bytes;
any other text goes to a line parser that names the line at fault.
Graph.from_edges and read_graph share one vectorized edge check: per pair,
in this order, no self-loop, both ends in range, u < v, and no repeat, found
by sorting the keys u*n + v and comparing neighbours; keys that already
strictly ascend, as write_graph writes them, are neither sorted nor split
back into u and v.  The first bad pair in input order is the one
reported.  The samplers skip it: their arrays hold the invariants by
construction.  Every constructor refuses n above MAX_VERTICES, where
those int64 keys would wrap.

connected_components and the nodal layer share one labeler, _label.  The
nodal census reads connectivity off its own sign rows and calls
connected_components only when none of them proves it (see nodal).  _label
takes a stack of class rows, vertex classes in {-1, 0, 1}, where an edge
joins two vertices of one nonzero class, and names each component by its
smallest vertex: a sign row labels its positive and negative components in
one row, and a vertex mask is the one-class case.  The census labels k + 2z
class rows for k eigenvectors, z of them with a zero coordinate, in one
call (see nodal), and _label gives its backend a block of rows at a time.
_components turns one row of labels into vertex lists.  Graphs of mean
degree at least DENSE_DEGREE_OVER_LOG_N * ln n split each row into its two
sign masks and grow components from a seed's own adjacency row by 0/1
float32 products with the adjacency matrix, exact integer counts, so the
labels do not depend on how BLAS splits a product; sparser graphs make
vertex x of row r the node r*n + x of one forest, hook the higher root of
every live edge to the least root across from it, shortcut the whole
forest to its roots, and drop the edges inside one tree, round by round.

Samplers draw from G(n,p), from the uniform simple d-regular distribution
(configuration model with full rejection), and from the centered Bernoulli
matrix ensembles: entries take the value p-1 with probability p and the
value p otherwise, so every entry has mean zero and variance p(1-p).

All randomness flows through RngStream: a (seed, label, index) triple that
fixes the generated value sequence, so identical triples reproduce identical
samples bit for bit no matter the order or thread in which they are drawn.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

import numpy as np

from . import _text

__all__ = [
    "Graph",
    "GraphParseError",
    "ParameterError",
    "RngStream",
    "SamplingError",
    "adjacency_matrix",
    "check_regular",
    "connected_components",
    "laplacian_matrix",
    "read_graph",
    "sample_gnp",
    "sample_regular",
    "sample_sym_xp_matrix",
    "sample_xp_matrix",
    "substream",
    "write_graph",
]

REGULAR_RESTART_BUDGET = 10_000

# the largest n with n*n < 2**63, so the edge check's int64 keys u*n + v
# cannot wrap
MAX_VERTICES = 3_037_000_499


class SamplingError(RuntimeError):
    """Raised when a rejection sampler exhausts its restart budget."""


class GraphParseError(ValueError):
    """Raised on malformed edge-list input; the message carries the line number."""


class ParameterError(ValueError):
    """Raised when an argument lies outside its stated range; the command
    line reports it as a usage error."""


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream identified by (seed, label, index).

    The label is hashed into a 64-bit key and combined with the index as a
    Philox spawn key, so distinct labels or indices yield statistically
    independent streams while identical triples replay the same sequence.
    A negative seed or index is refused.
    """

    seed: int
    label: str = ""
    index: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        if self.index < 0:
            raise ParameterError(f"substream index must be nonnegative, got {self.index}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        label_key = int.from_bytes(
            hashlib.blake2b(self.label.encode("utf-8"), digest_size=8).digest(), "big"
        )
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(label_key, self.index))
        return np.random.Generator(np.random.Philox(seq))


def substream(seed: int, label: str, index: int = 0) -> RngStream:
    """Derive the stream for (seed, label, index); see RngStream."""
    return RngStream(seed=seed, label=label, index=index)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph: vertex count and the edge arrays u, v.

    Edge i joins u[i] < v[i]; the pairs are sorted by (u, v), no pair
    repeats, and construction makes the arrays read-only.  Construct through
    from_edges, which checks these invariants, as read_graph does.
    sample_gnp and sample_regular construct directly from arrays that hold
    them by construction: the kept draws in row-major order, and the sorted
    keys of a try that passed the acceptance test.
    """

    n: int
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        self.u.flags.writeable = False
        self.v.flags.writeable = False

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray | Iterable[tuple[int, int]]) -> "Graph":
        """Graph on n vertices from an (m, 2) int array or any iterable of pairs,
        each pair in either order."""
        _check_vertex_count(n)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError(f"expected an (m, 2) array of vertex pairs, got shape {pairs.shape}")
        a, b = pairs.reshape(-1, 2).T
        return cls(n, *_checked_edges(n, np.minimum(a, b), np.maximum(a, b)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.u, other.u)
                and np.array_equal(self.v, other.v))

    @property
    def num_edges(self) -> int:
        return int(self.u.size)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.u, minlength=self.n) + np.bincount(self.v, minlength=self.n)


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise ParameterError(f"vertex count must be positive, got {n}")
    if n > MAX_VERTICES:
        raise ParameterError(f"vertex count must be at most {MAX_VERTICES}, got {n}")


def _check_edge_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"edge probability must lie in [0,1], got {p}")


class _EdgeError(ValueError):
    """An edge failed the check; index is its position in the input."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _repeats(ranked: np.ndarray) -> np.ndarray:
    """Whether each sorted key after the first repeats its predecessor."""
    return ranked[1:] == ranked[:-1]


def _checked_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u[i], v[i]) as sorted edge arrays once all pass the edge
    check (module docstring); else _EdgeError for the first bad pair."""
    keys = u * n + v
    # write_graph writes the keys in ascending order; such input needs no sort
    ascending = bool((keys[1:] > keys[:-1]).all())
    ranked = keys if ascending else np.sort(keys)
    checks = (
        (u == v, "self-loop at vertex {u}"),
        ((np.minimum(u, v) < 0) | (np.maximum(u, v) >= n), "edge ({u},{v}) out of range for n={n}"),
        (u > v, "edge ({u},{v}) not in u < v order"),
    )
    failed = np.logical_or.reduce([bad for bad, _ in checks], initial=False)
    if failed.any() or _repeats(ranked).any():
        # a stable sort keeps equal keys in input order, so every copy after
        # the first is a repeat; keys of failed pairs may collide with any
        # other key, but such a false repeat never precedes the failed pair
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(u.size, dtype=bool)
        repeat[order[1:]] = _repeats(keys[order])
        checks += ((repeat, "duplicate edge ({u},{v})"),)
        i = int((failed | repeat).argmax())
        message = next(text for bad, text in checks if bad[i])
        raise _EdgeError(i, message.format(u=int(u[i]), v=int(v[i]), n=n))
    if ascending:
        return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    return np.divmod(ranked, n)


def connected_components(g: Graph) -> list[list[int]]:
    """Connected components of g: sorted vertex lists, ordered by smallest vertex."""
    return _components(_label(g, np.ones((1, g.n), dtype=bool))[0])


def _components(labels: np.ndarray) -> list[list[int]]:
    """The vertex lists of one row of labels, as the labelers below name
    them, ordered by label and each sorted; label n marks no component."""
    # a label is the component's smallest vertex, so a stable sort by label
    # lists the components in order, each one sorted
    verts = np.argsort(labels, kind="stable")[:np.count_nonzero(labels < labels.size)]
    cuts = np.flatnonzero(np.diff(labels[verts])) + 1
    return [part.tolist() for part in np.split(verts, cuts)] if verts.size else []


# The dense labeler runs on graphs whose mean degree 2m/n is at least
# DENSE_DEGREE_OVER_LOG_N * ln n, that is twice the connectivity threshold
# of G(n,p); sparser graphs split the sign rows into many small components,
# each of which costs the dense labeler one or more full products.  The
# census of one whole G(n,p) adjacency spectrum, in ms, with each labeler
# forced (BLAS on one thread, shared 2-vCPU Xeon, OpenBLAS 0.3.31; its eigh
# took 7-10 ms at n=300 and 146-174 ms at n=1000):
#
#   mean degree        6     8    10    13    16    20    25    30
#   n=300   dense     89    26    12   7.3   5.7   5.0   4.3   4.1
#           sparse    18    11   8.1   9.6    16    20    22    29
#   n=1000  dense   6381  1055   601   343   282   209   164   156
#           sparse   187    72    71   101   134   123   163   196
#
# They break even between mean degree 10 and 13 at n=300 (2 ln n = 11.4)
# but near 25 at n=1000 (2 ln n = 13.8), so at n=1000 the rule gives mean
# degree 13.8 to 25 to the dense labeler at up to 2.1x the sparse one's
# time (282 against 134 ms at mean degree 16).  The rule stays until the
# dense labeler gets a block width of its own, since that moves the
# break-even as well.
DENSE_DEGREE_OVER_LOG_N = 2.0


def _backend(g: Graph) -> Callable[[np.ndarray], np.ndarray]:
    """The labeler for g's edge density, classes -> labels, unblocked."""
    if 2 * g.num_edges >= DENSE_DEGREE_OVER_LOG_N * math.log(g.n) * g.n:
        return functools.partial(_labels_dense, adjacency_matrix(g, np.float32))
    return functools.partial(_labels_sparse, g.u, g.v)


# working-memory bound: a backend call takes at most this many (row, vertex)
# cells, max(1, _LABEL_BLOCK_CELLS // n) class rows (16 at n=1000).  Larger
# blocks pay only at large n: a census of a zero-free spectrum (BLAS on one
# thread, 2-vCPU Xeon) took 4.4-4.6, 4.8-5.0 and 4.5-4.7 ms at 1 << 14,
# 1 << 15 and 1 << 16 on G(200, 1/2), 13.3-14.4, 12.9-13.8 and 14.3-15.5 ms
# on 3-regular graphs with n=300, and 193, 149 and 126 ms on G(1000, 1/2).
_LABEL_BLOCK_CELLS = 1 << 14


def _label(g: Graph, classes: np.ndarray) -> np.ndarray:
    """The labels of a class stack of any height, a block of rows per backend call."""
    backend, rows = _backend(g), max(1, _LABEL_BLOCK_CELLS // g.n)
    labels = np.empty(classes.shape, dtype=np.int64)
    for i in range(0, len(classes), rows):
        labels[i:i + rows] = backend(classes[i:i + rows])
    return labels


# Both labelers take a (k, n) stack of vertex classes, int8 in {-1, 0, 1}
# or bool, and return (k, n) labels.  In row r an edge joins x and y when
# classes[r, x] == classes[r, y] != 0, so a sign row labels its positive and
# its negative components at once and a mask is the one-class case:
# labels[r, x] is the smallest vertex of x's component, and n where
# classes[r, x] is 0.


def _labels_dense(adj: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Component labels of a (k, n) class stack by frontier products.

    The stack is split into its masks classes > 0 and classes < 0.  Each
    mask grows a component from its smallest unlabeled vertex, for all
    masks at once (an empty mask takes no part): the first step, at the
    start and at every restart, gathers the seed's own adjacency row inside
    the mask, and each later step is one float32 product with the 0/1
    adjacency matrix.  A mask whose component stopped growing labels it
    with that seed and moves to its next one.  Every product entry is a
    count below 2**24, exact in float32, so the labels do not depend on
    how BLAS splits it.  In G(200, 1/2) a sign mask is almost always one
    component of diameter 2, so the gathered row and one product reach it.
    """
    k, n = classes.shape
    todo = np.concatenate([classes > 0, classes < 0])
    labels = np.full(todo.shape, n, dtype=np.int64)

    def first_reach(rows, seeds):
        # the seed and its neighbours inside the mask
        reach = (adj[seeds] > 0) & todo[rows]
        reach[np.arange(seeds.size), seeds] = True
        return reach

    rows = np.flatnonzero(todo.any(axis=1))
    seeds = todo[rows].argmax(axis=1)
    reached = first_reach(rows, seeds)
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
        # reached vertices are unlabeled, that is n, until now
        labels[finished] -= reached[done] * (n - seeds[done, np.newaxis])
        todo[finished] &= ~reached[done]
        restart = np.flatnonzero(done)[todo[finished].any(axis=1)]
        seeds[restart] = todo[rows[restart]].argmax(axis=1)
        reached[restart] = first_reach(rows[restart], seeds[restart])
        keep = ~done
        keep[restart] = True
        rows, seeds, reached = rows[keep], seeds[keep], reached[keep]
    # a vertex has a label below n in at most one of its row's two masks
    return np.minimum(labels[:k], labels[k:])


def _labels_sparse(u: np.ndarray, v: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Component labels of a (k, n) class stack by hooking and pointer jumping.

    Vertex x of row r is the node r*n + x of one forest, so row r's labels
    are its n parents less r*n, and edge (x, y) is live in row r when it
    joins two vertices of one class there.  Each round hooks the higher
    root of every live edge that still joins two trees to the least lower
    root it meets, in one np.minimum.at; then the whole forest takes its
    grandparents until every node points at a root, and the edges now
    inside one tree are dropped (Shiloach & Vishkin, J. Algorithms 3,
    1982; the dropping as in FastSV, Zhang, Azad & Hu, SIAM PP 2020).
    Roots only ever point lower, and within a row nodes are in vertex
    order, so each component ends with its smallest vertex as root.  The
    minimum matters: a plain scatter parent[high] = low ran as fast on
    random graphs, but on a 2000-vertex star whose hub is its highest
    vertex it took 1999 rounds (43 ms) where the minimum takes 2 (0.16 ms).
    """
    k, n = classes.shape
    at_u = classes[:, u]
    live = np.flatnonzero((at_u == classes[:, v]) & (at_u != 0))
    base = np.arange(0, k * n, n)[:, np.newaxis]  # the node of row r, vertex 0
    eu, ev = (u + base).take(live), (v + base).take(live)
    parent = np.arange(k * n, dtype=np.int64)
    pu, pv = eu, ev  # every node starts as a root
    while eu.size:
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        grand = parent.take(parent)
        while not np.array_equal(grand, parent):
            parent, grand = grand, grand.take(grand)
        pu, pv = parent.take(eu), parent.take(ev)
        cross = np.flatnonzero(pu != pv)
        eu, ev, pu, pv = (ends.take(cross) for ends in (eu, ev, pu, pv))
    return np.where(classes != 0, parent.reshape(k, n) - base, n)


# working-memory bound: sample_gnp draws the coins of at most this many
# vertex pairs at a time, 2 MB of float64; the chunks continue one stream,
# so the graph does not depend on it
_GNP_CHUNK_DRAWS = 1 << 18


def sample_gnp(n: int, p: float, rng: RngStream) -> Graph:
    """Erdos-Renyi sample: each of the C(n,2) pairs kept with probability p.

    The endpoints p=0 and p=1 are allowed and give the empty and complete
    graph deterministically.
    """
    _check_vertex_count(n)
    _check_edge_probability(p)
    gen = rng.generator()
    # the pairs (u, v), u < v, in row-major order: (u, v) is number
    # start[u] + v - u - 1, and its coin is that draw of the stream
    rows = np.arange(n, dtype=np.int64)
    start = rows * (n - 1) - rows * (rows - 1) // 2
    pairs = n * (n - 1) // 2
    kept = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        i + np.flatnonzero(gen.random(min(_GNP_CHUNK_DRAWS, pairs - i)) < p)
        for i in range(0, pairs, _GNP_CHUNK_DRAWS)
    ])
    # kept draws ascend, so each row's kept pairs are one run of them, and
    # the pairs are distinct, in range and sorted by (u, v), with u < v:
    # Graph's invariants without the edge check
    u = np.repeat(rows, np.diff(np.searchsorted(kept, start), append=kept.size))
    return Graph(n, u, kept - start[u] + u + 1)


def check_regular(n: int, d: int) -> None:
    """Refuse (n, d) for which no simple d-regular graph on n vertices
    exists, or n above MAX_VERTICES."""
    _check_vertex_count(n)
    if d < 0 or d >= n:
        raise ParameterError(f"degree must satisfy 0 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise ParameterError(f"n*d must be even, got n={n}, d={d}")


def sample_regular(n: int, d: int, rng: RngStream) -> Graph:
    """Uniform simple d-regular graph via the configuration model.

    Half-edges are paired by a uniform permutation; any outcome containing a
    loop or a multi-edge is rejected wholesale and the pairing restarts, which
    preserves exact uniformity over simple d-regular graphs.  Exceeding the
    restart budget, REGULAR_RESTART_BUDGET, raises SamplingError, whose
    message states the expected number of restarts.  For d <= 5 and n >= 50
    the per-try acceptance probability is far from 0; at n=300 the budget
    fails on some seeds at d = 6 and seldom succeeds from d = 7.
    """
    check_regular(n, d)
    gen = rng.generator()
    stubs = np.repeat(np.arange(n), d)
    for _ in range(REGULAR_RESTART_BUDGET):
        perm = gen.permutation(stubs)
        a, b = perm[0::2], perm[1::2]  # the pairs (perm[2i], perm[2i+1])
        if (a == b).any():
            continue
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        if not _repeats(keys).any():
            # no loop and no repeat: the sorted keys are a simple graph
            return Graph(n, *np.divmod(keys, n))
    # the configuration model's per-try acceptance as n grows (Bender &
    # Canfield 1978); at n=300 it is close for d <= 5
    accept = min(1.0, math.exp(-(d * d - 1) / 4))
    raise SamplingError(
        f"no simple {d}-regular graph on {n} vertices within {REGULAR_RESTART_BUDGET} restarts"
        f" (a try is accepted with probability about exp(-(d^2-1)/4) = {accept:.2g},"
        f" so about {math.ceil(1 / accept)} restarts are expected)"
    )


def adjacency_matrix(g: Graph, dtype: type = np.float64) -> np.ndarray:
    """Dense 0/1 adjacency matrix with zero diagonal; exactly symmetric.

    The labeler takes it in float32; everything else in float64.
    """
    a = np.zeros((g.n, g.n), dtype=dtype)
    a[g.u, g.v] = 1.0
    a[g.v, g.u] = 1.0
    return a


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian: degree diagonal minus adjacency; row sums zero."""
    lap = adjacency_matrix(g)
    np.negative(lap, out=lap)  # zeros become -0.0, as in -adjacency_matrix(g)
    np.fill_diagonal(lap, g.degrees().astype(np.float64))
    return lap


def sample_xp_matrix(m: int, k: int, p: float, rng: RngStream) -> np.ndarray:
    """m-by-k matrix of independent centered Bernoulli entries (p-1 w.p. p, else p)."""
    if m < 1 or k < 1:
        raise ParameterError(f"matrix dimensions must be positive, got {m}x{k}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must lie in [0,1], got {p}")
    gen = rng.generator()
    return np.where(gen.random((m, k)) < p, p - 1.0, float(p))


def sample_sym_xp_matrix(k: int, p: float, rng: RngStream) -> np.ndarray:
    """Symmetric k-by-k matrix: i.i.d. centered Bernoulli above the diagonal,
    mirrored below, and every diagonal entry exactly p."""
    if k < 1:
        raise ParameterError(f"matrix dimension must be positive, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must lie in [0,1], got {p}")
    gen = rng.generator()
    a = np.full((k, k), float(p), dtype=np.float64)
    iu, ju = np.triu_indices(k, k=1)
    vals = np.where(gen.random(iu.size) < p, p - 1.0, float(p))
    a[iu, ju] = vals
    a[ju, iu] = vals
    return a


def write_graph(g: Graph, target: str | IO[str]) -> None:
    """Write the edge-list format: "n m" then one sorted "u v" line per edge.

    The edge lines are formatted by array code in blocks of about
    _text.BLOCK_CELLS vertex ids, each written as it is made.
    """
    if isinstance(target, str):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            write_graph(g, fh)
        return
    target.write(f"{g.n} {g.num_edges}\n")
    lines = _text.BLOCK_CELLS // 2
    seps = np.tile(np.frombuffer(b" \n", dtype=np.uint8), lines)
    for i in range(0, g.num_edges, lines):
        ids = np.column_stack((g.u[i:i + lines], g.v[i:i + lines]))
        target.write(_text.int_text(ids, seps[:ids.size]))


def read_graph(source: str | IO[str]) -> Graph:
    """Parse the edge-list format written by write_graph.

    Lines starting with '#' are treated as comments and skipped (command-line
    outputs prepend one).  Any structural defect raises GraphParseError with
    the offending physical line number.  Lines end at '\n', after the
    stream's own newline translation.

    A file in write_graph's layout (see _load_edge_array) is read in one
    np.fromstring call; anything else (comments past the leading block,
    leading or trailing blanks, a count mismatch, an unparsable field, a
    bad edge) goes to the line parser, which reads it by the same rules
    and names the line at fault.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    g = _load_edge_array(text)
    return g if g is not None else _parse_edge_lines(text.split("\n"))


# the bytes of write_graph's layout; a token of at most _MAX_DIGITS digits
# lies below 2^63, so np.fromstring reads it as int() does
_LAYOUT_BYTES = b"0123456789 \t\n"
_MAX_DIGITS = 18


def _load_edge_array(text: str) -> Graph | None:
    """The graph of text if the lines past the leading comment block have
    write_graph's layout and the edges pass the edge check; None otherwise.

    The layout: every line is digits, a run of spaces or tabs, then digits;
    lines are split by one or more newlines; no token is longer than
    _MAX_DIGITS digits.  Text of that layout holds exactly two tokens per
    line, each a decimal integer that fits int64, so one np.fromstring call
    reads the same pairs as the line parser.
    """
    start = 0
    while True:  # skip what the line parser skips before the header
        end = text.find("\n", start)
        line = (text[start:] if end < 0 else text[start:end]).strip()
        if line and not line.startswith("#"):
            break
        if end < 0:
            return None
        start = end + 1
    rest = text[start:]
    if not rest.isascii():
        return None
    data = rest.encode("ascii")
    if not data.endswith(b"\n"):
        data += b"\n"
    if data.translate(None, _LAYOUT_BYTES):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    digit = chars >= ord("0")  # past the byte check, every byte from "0" up is a digit
    newline = chars == ord("\n")
    # a blank next to a newline: a leading or trailing blank, or blanks on an
    # empty line
    if not digit[0] or ((newline[1:] != newline[:-1]) & ~digit[1:] & ~digit[:-1]).any():
        return None
    # the last byte of each run of digits or of separators, from the first
    # token's; the text ends in a newline, so a separator run comes last
    ends = np.flatnonzero(digit[1:] != digit[:-1])
    if ends[0] >= _MAX_DIGITS or (ends[2::2] - ends[1::2] > _MAX_DIGITS).any():
        return None
    # the byte after each token starts its separator run, all blanks or all
    # newlines: blanks after a line's first token, newlines after its second
    breaks = newline.take(ends[0::2] + 1)
    if breaks[0::2].any() or not breaks[1::2].all():
        return None
    rows = np.fromstring(data, dtype=np.int64, sep=" ").reshape(-1, 2)
    n, m = rows[0].tolist()
    edges = rows[1:]
    if not 1 <= n <= MAX_VERTICES or edges.shape[0] != m:
        return None
    try:
        u, v = _checked_edges(n, edges[:, 0], edges[:, 1])
    except _EdgeError:
        return None
    return Graph(n, u, v)


def _parse_edge_lines(raw_lines: Sequence[str]) -> Graph:
    """The line-by-line parser of read_graph, which names the first bad line."""
    numbered = [
        (i + 1, line.strip())
        for i, line in enumerate(raw_lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not numbered:
        raise GraphParseError("line 1: empty input, expected header 'n m'")

    def fields(lineno: int, text: str, what: str) -> tuple[int, int]:
        try:
            a, b = map(int, text.split())
            if max(abs(a), abs(b)) >= 1 << 63:  # the edge arrays are int64
                raise ValueError
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: expected two integers for {what}, got {text!r}"
            ) from None
        return a, b

    header_no, header = numbered[0]
    n, m = fields(header_no, header, "header")
    try:
        _check_vertex_count(n)
    except ParameterError as err:
        raise GraphParseError(f"line {header_no}: {err}") from None
    if m < 0:
        raise GraphParseError(f"line {header_no}: edge count must be nonnegative, got {m}")
    body = numbered[1:]
    if len(body) != m:
        raise GraphParseError(
            f"line {header_no}: header declares {m} edges but {len(body)} edge lines follow"
        )
    # reading stops at the first line that does not parse, but a defect in
    # an earlier edge line still wins, as it would line by line
    pairs: list[tuple[int, int]] = []
    unparsed = None
    for lineno, text in body:
        try:
            pairs.append(fields(lineno, text, "edge"))
        except GraphParseError as err:
            unparsed = err
            break
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    try:
        u, v = _checked_edges(n, edges[:, 0], edges[:, 1])
    except _EdgeError as err:
        raise GraphParseError(f"line {body[err.index][0]}: {err}") from None
    if unparsed is not None:
        raise unparsed
    return Graph(n, u, v)
