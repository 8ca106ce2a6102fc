"""Weak and strong nodal domains, and the P/N/E/Z vertex decomposition.

A weak nodal domain of (G, f) is a maximal connected vertex set on which f
takes no two strictly opposite signs (f(x) f(y) >= 0 pairwise); a strong
domain is a maximal connected set on which f keeps one strict sign.  Signs
are taken relative to a zero tolerance tau: sign(v) = 0 iff |f(v)| <= tau.
Every entry point takes the values and tau themselves, a length-n vector or,
for nodal_census, an n-by-k matrix, and signs them in _sign_rows; tau=None
takes DEFAULT_TAU_SCALE times each column's sup norm, and tau=0 keeps exact
signs for rational test inputs.

Maximality has one subtle consequence for weak domains.  A connected block
of zero vertices that touches any strictly signed vertex is absorbed by that
side's domain and is not itself maximal, so the only sign-0 weak domains are
entire connected components of G on which f vanishes identically.  The
tests pin this down against a brute-force oracle that enumerates maximal
sets directly.

The census and the weak lists read one labeling, _sign_labels: one call of
graph_core._label over a stack of class rows names each component by its
smallest vertex, its root, where an edge joins two vertices of one
nonzero class.  The stack holds k + 2z class rows: the sign row of each of
the k columns, which names its positive and its negative components at
once, and the masks sign >= 0 and sign <= 0 only for the z columns with a
zero (in the others they are the strict masks).  The weak domains are
read off component sizes, tallied once for the sign rows and, for the weak
masks and their zeros, only in the z rows, as a list of (row, root) pairs:
for an eigenvector of G(n,p) about two per row, by the paper's theorem.
nodal_census counts, for every column of an eigenvector matrix at once,
weak and strong counts and the P/N/E/Z sizes from that list: P and N are
picked among the roots, and E and E cap Z follow from root sizes, with
vertex masks only for P cap N in the z rows.  It reads connectivity off
that table: a column with no zero and one strong domain, such as the
Perron vector of a connected graph, proves the graph connected, and only a
census with no such column calls graph_core.connected_components.
nodal_summary is the census's one-column case.  weak_nodal_domains lists
each kept component of one column, strong_nodal_domains each component of
its sign row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, NamedTuple, Sequence

import numpy as np

from ._text import write_csv
from .graph_core import Graph, ParameterError, _components, _label, connected_components

__all__ = [
    "DEFAULT_TAU_SCALE",
    "DomainPartition",
    "NodalCensus",
    "NodalSummary",
    "domains_dict",
    "nodal_census",
    "nodal_summary",
    "strong_nodal_domains",
    "weak_nodal_domains",
    "write_domains_csv",
    "summary_dict",
]

# default zero tolerance = DEFAULT_TAU_SCALE * ||f||_inf
DEFAULT_TAU_SCALE = 1e-9

_SIGN_LABEL = {1: "+", -1: "-", 0: "0"}


def _zero_tolerance(values: np.ndarray, tau: float | None):
    """The zero tolerance of each column of values (of values, if flat):
    tau, or DEFAULT_TAU_SCALE * the column's sup norm when tau is None.
    Refuses values that are not finite and a negative tau."""
    if not np.isfinite(values).all():
        raise ValueError("function values must be finite")
    if tau is None:
        top, bottom = values.max(axis=0, initial=0.0), values.min(axis=0, initial=0.0)
        return DEFAULT_TAU_SCALE * np.maximum(top, -bottom)  # no |values| temporary
    tau = float(tau)
    if not tau >= 0.0:
        raise ParameterError(f"zero tolerance must be nonnegative, got {tau}")
    return tau


def _sign_rows(g: Graph, values: Sequence[float] | np.ndarray, tau: float | None,
               ndim: int) -> np.ndarray:
    """The (k, n) int8 sign stack of a length-n vector (ndim 1, k = 1) or of
    the k columns of an n-by-k matrix (ndim 2): sign(values), with 0 wherever
    |values| <= the column's zero tolerance (see _zero_tolerance)."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != ndim or vals.shape[0] != g.n:
        shape = "a length-n vector" if ndim == 1 else "an n-by-k matrix"
        raise ValueError(f"expected {shape} with n={g.n}, got shape {vals.shape}")
    tol = _zero_tolerance(vals, tau)
    signs = (vals > tol).view(np.int8) - (vals < -tol).view(np.int8)
    return signs.reshape(g.n, -1).T


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


def _canonical(kind: str, raw: list[tuple[list[int], int]]) -> DomainPartition:
    domains = tuple(sorted((tuple(verts), sign) for verts, sign in raw))
    return DomainPartition(kind=kind, domains=domains)


def weak_nodal_domains(g: Graph, values: Sequence[float] | np.ndarray,
                       tau: float | None = None) -> DomainPartition:
    """All maximal connected sets with no two strictly opposite signs of the
    length-n vector values: the weak domains _sign_labels keeps, each with
    its sign."""
    s = _sign_labels(g, _sign_rows(g, values, tau, 1))
    raw: list[tuple[list[int], int]] = []
    d = s.domains
    for side, kept, sign in ((0, d.signed > 0, 1), (1, d.signed > 0, -1), (0, d.signed == 0, 0)):
        row = _row_labels(s, side)
        # one entry more for label n, outside the labeled mask
        inside = np.zeros(g.n + 1, dtype=bool)
        inside[d.root[kept & (d.side == side)]] = True
        raw += [(comp, sign) for comp in _components(np.where(inside[row], row, g.n))]
    return _canonical("weak", raw)


def strong_nodal_domains(g: Graph, values: Sequence[float] | np.ndarray,
                         tau: float | None = None) -> DomainPartition:
    """Connected components of the strictly positive and strictly negative
    sets of the length-n vector values."""
    signs = _sign_rows(g, values, tau, 1)
    row = _label(g, signs)[0]
    return _canonical("strong", [
        (comp, sign) for sign in (1, -1)
        for comp in _components(np.where(signs[0] == sign, row, g.n))
    ])


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


def nodal_summary(g: Graph, values: Sequence[float] | np.ndarray,
                  tau: float | None = None) -> NodalSummary:
    """The P/N/E/Z decomposition of the length-n vector values: the
    one-column case of the census."""
    signs = _sign_rows(g, values, tau, 1)
    s = _sign_labels(g, signs)
    table, roots = _census(signs, s)
    weak, strong, *_, e_cap_z = table[:, 0].tolist()
    in_p, in_n = (_row_labels(s, side) == roots[side, 0] for side in (0, 1))
    covered = in_p | in_n
    return NodalSummary(
        positive_part=tuple(np.flatnonzero(in_p).tolist()),
        negative_part=tuple(np.flatnonzero(in_n).tolist()),
        exceptional=tuple(np.flatnonzero(~covered).tolist()),
        zeros=tuple(np.flatnonzero(signs[0] == 0).tolist()),
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

    def table(self) -> np.ndarray:
        """The (k, 7) array of columns (weak, strong, P, N, E, Z, E cap Z)."""
        return np.column_stack((
            self.weak_count, self.strong_count, self.p_size, self.n_size,
            self.e_size, self.z_size, self.e_cap_z,
        ))


def nodal_census(g: Graph, vectors: np.ndarray, tau: float | None = None) -> NodalCensus:
    """Census of every column of `vectors` (shape n-by-k) on g.

    Each column is signed on its own, so column i's entries equal those of
    nodal_summary(g, vectors[:, i], tau).
    """
    signs = _sign_rows(g, vectors, tau, 2)
    table, _ = _census(signs, _sign_labels(g, signs))
    # a column with no zero and one strong domain has every vertex in that
    # domain; only a census without one labels the graph again, after its
    # own labeling, so two dense adjacency matrices are never held at once
    proven = ((table[5] == 0) & (table[1] == 1)).any()
    connected = bool(proven) or len(connected_components(g)) == 1
    return NodalCensus(*table, connected=connected)


class _Domains(NamedTuple):
    """The weak domains of a sign stack, one entry per component root and
    side: side 0 for a domain without a strictly negative vertex, side 1
    for one without a strictly positive vertex; its row, its root (smallest
    vertex), its size and its strictly signed vertices."""

    side: np.ndarray
    row: np.ndarray
    root: np.ndarray
    size: np.ndarray
    signed: np.ndarray


class _SignLabels(NamedTuple):
    """The labels of a (k, n) sign stack and its weak domains.

    A component's label is its smallest vertex, its root.  strict labels
    the sign rows, whose labels where the sign is +1 (-1) are those of the
    strictly positive (negative) set; zero_rows lists the rows with a zero,
    and weak[0] (weak[1]) labels the masks sign >= 0 (sign <= 0) of those
    rows alone.  A row with no zero has the strict masks as its weak masks,
    so its strict row labels both.  strong counts each row's strict roots.
    The weak domains of side 0 are the sign >= 0 components with a strictly
    positive vertex and the whole components of G on which the row is zero
    (closed, signed 0: a root of both weak labelings whose two components
    hold no strictly signed vertex, hence are the same set); side 1 is the
    mirror image, so a closed component is on both sides.  Any other sign
    >= 0 or sign <= 0 component is all-zero and touches the opposite sign,
    so it lies inside a domain of that sign and is not maximal.
    """

    strict: np.ndarray
    zero_rows: np.ndarray
    weak: np.ndarray
    strong: np.ndarray
    domains: _Domains


def _sign_labels(g: Graph, signs: np.ndarray) -> _SignLabels:
    """Label a (k, n) sign stack in one _label call, and keep its weak domains.

    The call takes the k sign rows as class rows and the two weak masks of
    only the z rows that have a zero: k + 2z rows.  A root is a label its
    row's tally counts, so the domains are read off the tallies: once for
    the strict rows, and for the weak labels and their zeros only in the z
    rows.
    """
    k, n = signs.shape
    zero = signs == 0
    z = np.flatnonzero(zero.any(axis=1))
    labels = _label(g, np.concatenate([signs, signs[z] >= 0, signs[z] <= 0]))
    strict, weak = labels[:k], labels[k:].reshape(2, z.size, n)
    size = _tally(strict)
    row, root = _cells(size > 0)
    size = size[row, root]
    strong = np.bincount(row, minlength=k)
    # in a zero-free row every strict component is a weak domain
    domains = [signs[row, root] < 0, row, root, size, size]
    if z.size:
        free = ~np.isin(row, z)
        domains = [part[free] for part in domains]
        both = weak.reshape(2 * z.size, n)
        total = _tally(both)
        signed = total - _tally(both, np.tile(zero[z], (2, 1)))
        unsigned = (total > 0) & (signed == 0)
        closed = np.tile(unsigned[:z.size] & unsigned[z.size:], (2, 1))
        i, x = _cells((signed > 0) | closed)
        side = i >= z.size
        domains = [np.concatenate(pair) for pair in zip(
            domains, (side, z[i % z.size], x, total[i, x], signed[i, x]))]
    return _SignLabels(strict, z, weak, strong, _Domains(*domains))


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of each true cell of a 2-d mask, row by row: np.nonzero,
    which takes several times as long on these shapes."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _row_labels(s: _SignLabels, side: int) -> np.ndarray:
    """The labels of the mask sign >= 0 (side 0) or sign <= 0 (side 1) of
    a one-row stack."""
    return s.weak[side, 0] if s.zero_rows.size else s.strict[0]


def _tally(labels: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
    """[row, root] -> vertices of that component (inside `where`, if given), a
    (k, n) array; vertices outside the labeled mask are not counted."""
    k, n = labels.shape
    keys = labels + np.arange(k)[:, np.newaxis] * (n + 1)
    keys = keys.ravel() if where is None else keys[where]
    return np.bincount(keys, minlength=k * (n + 1)).reshape(k, n + 1)[:, :n]


def _census(signs: np.ndarray, s: _SignLabels) -> tuple[np.ndarray, np.ndarray]:
    """Census of a (k, n) sign stack from its labels s: the (7, k) table of
    NodalCensus's array fields but connected, in order, and the (2, k)
    roots of P and N (-1 where there is none).

    P (N) is the largest domain of side 0 (1), then the most strictly
    signed, then the one of smallest root.  P and N of a zero-free row are
    disjoint and hold no zero, so only the z rows with a zero count their
    zeros and P cap N, with vertex masks; everything else is read off the
    domains at their roots.
    """
    k, n = signs.shape
    d, z = s.domains, s.zero_rows
    group = d.side * k + d.row
    # keep the domains at their side and row's best of each key in turn;
    # roots differ within a row, so one is left per side and row
    keep = np.arange(group.size)
    for key in (d.size, d.signed, -d.root):
        best = np.full(2 * k, np.iinfo(np.int64).min)
        np.maximum.at(best, group[keep], key[keep])
        keep = keep[key[keep] == best[group[keep]]]
    picked = np.zeros((3, 2 * k), dtype=np.int64)
    picked[0] = -1
    picked[:, group[keep]] = d.root[keep], d.size[keep], d.signed[keep]
    (p_root, n_root), (p_size, n_size), (p_signed, n_signed) = picked.reshape(3, 2, k)
    # a closed component is on both sides but one domain
    weak = np.bincount(d.row[(d.side == 0) | (d.signed > 0)], minlength=k)
    zeros, p_cap_n = np.zeros((2, k), dtype=np.int64)
    zeros[z] = (signs[z] == 0).sum(axis=1)
    p_cap_n[z] = ((s.weak[0] == p_root[z, np.newaxis])
                  & (s.weak[1] == n_root[z, np.newaxis])).sum(axis=1)
    e_size = n - p_size - n_size + p_cap_n
    # Z outside P and N; the zeros of P cap N were taken away twice
    e_cap_z = zeros - (p_size - p_signed) - (n_size - n_signed) + p_cap_n
    table = np.stack([weak, s.strong, p_size, n_size, e_size, zeros, e_cap_z])
    return table, np.stack([p_root, n_root])


def write_domains_csv(partition: DomainPartition, stream: IO[str]) -> None:
    """One row per domain: kind, sign, size, semicolon-joined sorted vertices."""
    write_csv(((partition.kind, _SIGN_LABEL[sign], len(verts), ";".join(map(str, verts)))
               for verts, sign in partition.domains), stream)


def domains_dict(partition: DomainPartition) -> dict:
    return {
        "kind": partition.kind,
        "count": partition.count,
        "domains": [
            {"sign": _SIGN_LABEL[sign], "vertices": list(verts)}
            for verts, sign in partition.domains
        ],
    }


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
