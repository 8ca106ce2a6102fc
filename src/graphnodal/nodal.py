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

The census and the weak lists read one labeling, _sign_labels: one pass of
the graph_core labeler over a stack of class rows names each component by
its smallest vertex, where an edge joins two vertices of one nonzero class.
The stack holds k + 2z class rows: the sign row of each of the k columns,
which names its positive and its negative components at once, and the masks
sign >= 0 and sign <= 0 only for the z columns with a zero (in the others
they are the strict masks).  nodal_census labels connectivity once, in one
all-true row of its own.
The weak-domain rule above marks which components are weak domains, from
component sizes tallied once and shared with the census.  nodal_census
counts, for every column of an eigenvector matrix at once, by array tallies
over those labels: weak and strong counts and the P/N/E/Z sizes.
nodal_summary is its one-column case.  weak_nodal_domains lists each kept
component of one column, strong_nodal_domains each component of its sign
row.  On a 3-regular graph with n=300 the census of all 300 adjacency
eigenvectors takes 17-18 ms against 12-15 ms for eigh (4-regular: 17-21
ms; BLAS on one thread, 2-vCPU Xeon).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np

# connected_components is not called here; perfbench's tracer test still
# looks the name up in this module, so it stays bound until that test moves
from .graph_core import Graph, _components, _labeler, connected_components  # noqa: F401

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


def _zero_tolerance(values: np.ndarray, tau: float | None):
    """The zero tolerance of each column of values (of values, if flat):
    tau, or DEFAULT_TAU_SCALE * the column's sup norm when tau is None.
    Refuses values that are not finite and a negative tau."""
    if not np.isfinite(values).all():
        raise ValueError("function values must be finite")
    if tau is None:
        return DEFAULT_TAU_SCALE * np.abs(values).max(axis=0, initial=0.0)
    tau = float(tau)
    if not tau >= 0.0:
        raise ValueError(f"zero tolerance must be nonnegative, got {tau}")
    return tau


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
        tau = float(_zero_tolerance(vals, tau))
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


def _check_lengths(g: Graph, f: SignedFunction) -> None:
    if len(f) != g.n:
        raise ValueError(f"function length {len(f)} != vertex count {g.n}")


def _canonical(kind: str, raw: list[tuple[list[int], int]]) -> DomainPartition:
    domains = tuple(sorted((tuple(verts), sign) for verts, sign in raw))
    return DomainPartition(kind=kind, domains=domains)


def weak_nodal_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    """All maximal connected sets with no two strictly opposite signs: the
    weak domains _sign_labels keeps, each with its sign."""
    _check_lengths(g, f)
    s = _sign_labels(f.signs[np.newaxis, :], _labeler(g))
    raw: list[tuple[list[int], int]] = []
    for labels, kept, sign in ((s.nonneg, s.weak_pos, 1), (s.nonpos, s.weak_neg, -1),
                               (s.nonneg, s.closed, 0)):
        row = labels[0]
        # one entry more for label n, outside the labeled mask
        inside = np.append(kept[0], False)[row]
        raw += [(comp, sign) for comp in _components(np.where(inside, row, row.size))]
    return _canonical("weak", raw)


def strong_nodal_domains(g: Graph, f: SignedFunction) -> DomainPartition:
    """Connected components of the strictly positive and strictly negative sets."""
    _check_lengths(g, f)
    row = _labeler(g)(f.signs[np.newaxis, :])[0]
    return _canonical("strong", [
        (comp, sign) for sign in (1, -1)
        for comp in _components(np.where(f.signs == sign, row, g.n))
    ])


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
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        nbr_mask[a] |= 1 << b
        nbr_mask[b] |= 1 << a

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
    table, in_p, in_n = _census(f.signs[np.newaxis, :], _labeler(g))
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
    label = _labeler(g)
    # columns go through in blocks, which bounds the working memory
    width = max(1, _CENSUS_BLOCK_ENTRIES // g.n)
    blocks = [vals[:, i:i + width] for i in range(0, max(1, vals.shape[1]), width)]
    table = np.concatenate([
        _census(_signs(block, _zero_tolerance(block, tau)).T, label)[0] for block in blocks
    ], axis=1)
    connected = bool((label(np.ones((1, g.n), dtype=bool)) == 0).all())
    return NodalCensus(*table, connected=connected)


# working-memory bound: nodal_census takes at most this many (vertex,
# column) pairs per block, and a label call at most three class rows per
# column of its block: at n=1000, mean degree 13 and a zero in every column,
# 48 rows over about 6400 edges, and the census allocates at most 12 MB at
# a time.  Larger blocks pay only at large n: timed in a trial loop (each
# census right after its eigendecompose, BLAS on one thread, 2-vCPU Xeon),
# 1 << 16 took 4.6 ms against 4.1 at n=200, p=1/2 and 15.9 ms against 14.7
# on 3-regular graphs with n=300, but 146 ms against 199 at n=1000, p=1/2.
_CENSUS_BLOCK_ENTRIES = 1 << 14


class _SignLabels(NamedTuple):
    """The labels of a (k, n) sign stack and its weak domains.

    A component's label is its smallest vertex; a root labels itself.  The
    (k, n) label rows are those of the masks sign >= 0 (nonneg) and
    sign <= 0 (nonpos), and of the sign rows themselves (strict), whose
    labels where the sign is +1 (-1) are those of the strictly positive
    (negative) set.  A row with no zero has the strict masks as its weak
    masks, so its nonneg and nonpos rows are its strict row, which also
    labels and sizes the components of the other sign; only roots of the
    mask's own sign are kept below.  nonneg_size (nonpos_size)
    counts the vertices of a component at its root, and pos_in (neg_in) its
    strictly positive (negative) ones.  The kept roots are the weak domains: a
    sign >= 0 component with a strictly positive vertex (weak_pos), the
    mirror image (weak_neg), and a whole component of G on which the row is
    zero (closed: a root of both labelings whose two components hold no
    strictly signed vertex, hence are the same set).  Any other sign >= 0
    or sign <= 0 component is all-zero and touches the opposite sign, so it
    lies inside a domain of that sign and is not maximal.
    """

    nonneg: np.ndarray
    nonpos: np.ndarray
    strict: np.ndarray
    nonneg_size: np.ndarray
    nonpos_size: np.ndarray
    pos_in: np.ndarray
    neg_in: np.ndarray
    weak_pos: np.ndarray
    weak_neg: np.ndarray
    closed: np.ndarray


def _sign_labels(signs: np.ndarray, label: Callable[[np.ndarray], np.ndarray]) -> _SignLabels:
    """Label a (k, n) sign stack in one label call, and keep its weak domains.

    The label call takes the k sign rows as class rows and the two weak
    masks of only the z rows that have a zero: k + 2z rows.
    """
    k, n = signs.shape
    pos, neg, zero = signs > 0, signs < 0, signs == 0
    z = np.flatnonzero(zero.any(axis=1))
    labels = label(np.concatenate([signs, ~neg[z], ~pos[z]]))
    strict = labels[:k]
    nonneg, nonpos = strict.copy(), strict.copy()
    nonneg[z], nonpos[z] = labels[k:].reshape(2, z.size, n)
    nonneg_size, nonpos_size = _tally(nonneg), _tally(nonpos)
    pos_in, neg_in = nonneg_size.copy(), nonpos_size.copy()
    pos_in[z] -= _tally(nonneg[z], zero[z])
    neg_in[z] -= _tally(nonpos[z], zero[z])
    vertex = np.arange(n)
    nonneg_root, nonpos_root = (nonneg == vertex) & ~neg, (nonpos == vertex) & ~pos
    weak_pos = nonneg_root & (pos_in > 0)
    weak_neg = nonpos_root & (neg_in > 0)
    closed = np.zeros((k, n), dtype=bool)
    closed[z] = nonneg_root[z] & nonpos_root[z] & (pos_in[z] == 0) & (neg_in[z] == 0)
    return _SignLabels(nonneg, nonpos, strict, nonneg_size, nonpos_size,
                       pos_in, neg_in, weak_pos, weak_neg, closed)


def _tally(labels: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """[row, root] -> vertices of that component (inside `where`, if given), a
    (k, n) array; vertices outside the labeled mask are not counted."""
    k, n = labels.shape
    keys = labels + np.arange(k)[:, np.newaxis] * (n + 1)
    keys = keys.ravel() if where is None else keys[where]
    return np.bincount(keys, minlength=k * (n + 1)).reshape(k, n + 1)[:, :n]


def _census(
    signs: np.ndarray, label: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Census of a (k, n) sign stack: the (7, k) table of NodalCensus's
    array fields but connected, in order, and the (k, n) masks of P and N,
    all tallied from _sign_labels at the roots."""
    k, n = signs.shape
    s = _sign_labels(signs, label)
    vertex = np.arange(n)
    weak = s.weak_pos.sum(axis=1) + s.weak_neg.sum(axis=1) + s.closed.sum(axis=1)
    strong = (s.strict == vertex).sum(axis=1)

    def pick(lab, size, candidate, strict):
        # largest, then most strictly signed, then smallest root
        key = np.where(candidate, (size * (n + 1) + strict) * (n + 1) + (n - vertex), -1)
        root = key.argmax(axis=1)
        found = key[np.arange(k), root] >= 0
        return (lab == root[:, np.newaxis]) & found[:, np.newaxis]

    in_p = pick(s.nonneg, s.nonneg_size, s.weak_pos | s.closed, s.pos_in)
    in_n = pick(s.nonpos, s.nonpos_size, s.weak_neg | s.closed, s.neg_in)
    covered = in_p | in_n
    zero = signs == 0
    table = np.stack([
        weak, strong, in_p.sum(axis=1), in_n.sum(axis=1), n - covered.sum(axis=1),
        zero.sum(axis=1), (zero & ~covered).sum(axis=1),
    ])
    return table, in_p, in_n


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
