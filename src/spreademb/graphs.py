"""Temporal contact networks, their static aggregation, and path counting."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import EmptyNetworkError, ParseError


@dataclass(frozen=True)
class EdgeListFormat:
    """Column layout of a contact edge-list file.

    ``columns`` is one of ``"ijt"`` (default), ``"tij"`` or ``"ijwt"``; the
    weight column of ``"ijwt"`` is ignored.  Only the ``"ijt"`` layout allows
    a missing time column (static input, every contact gets t=0).  Fields may
    be separated by whitespace or commas; lines starting with one of
    ``comment_prefixes`` are skipped.
    """

    columns: str = "ijt"
    comment_prefixes: tuple[str, ...] = ("#", "%")

    def __post_init__(self):
        if self.columns not in ("ijt", "tij", "ijwt"):
            raise ValueError(f"unsupported column layout {self.columns!r}")


class TemporalNetwork:
    """A set of time-stamped contacts over dense integer node ids.

    Contacts are bidirectional, sorted by timestamp, and may repeat:
    duplicate (i, j, t) entries occur in real data and are preserved.
    Instances are immutable after construction, apart from the per-node
    contact lists cached on first use, and safe to share across threads.
    """

    __slots__ = ("n_nodes", "src", "dst", "times", "labels", "label_to_id", "_contacts")

    def __init__(self, n_nodes, src, dst, times, labels=None):
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        times = np.ascontiguousarray(times, dtype=np.int64)
        if not (src.shape == dst.shape == times.shape) or src.ndim != 1:
            raise ValueError("src, dst and times must be 1-d arrays of equal length")
        if n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if len(src):
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n_nodes:
                raise ValueError("contact endpoints outside [0, n_nodes)")
            if np.any(src == dst):
                raise ValueError("self-loop contact")
            if times.min() < 0:
                raise ValueError("negative timestamp")
            if np.any(np.diff(times) < 0):
                raise ValueError("contacts must be sorted by timestamp")
        if labels is None:
            labels = tuple(str(i) for i in range(n_nodes))
        else:
            labels = tuple(labels)
            if len(labels) != n_nodes:
                raise ValueError("labels length must equal n_nodes")
        self.n_nodes = int(n_nodes)
        self.src = src
        self.dst = dst
        self.times = times
        self.labels = labels
        self.label_to_id = {lab: i for i, lab in enumerate(labels)}
        self._contacts = None

    def contact_lists(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bounds, times, partners): every node's contacts in both
        directions, node by node and sorted by time within a node; node i's
        are entries bounds[i] to bounds[i + 1] - 1.

        Built on the first call.  The three arrays are published in one
        assignment, so a concurrent first call at worst builds them twice.
        """
        lists = self._contacts
        if lists is None:
            node = np.concatenate([self.src, self.dst])
            partner = np.concatenate([self.dst, self.src])
            t2 = np.concatenate([self.times, self.times])
            order = np.lexsort((t2, node))
            lists = (np.searchsorted(node[order], np.arange(self.n_nodes + 1)),
                     t2[order], partner[order])
            self._contacts = lists
        return lists

    @classmethod
    def from_contacts(cls, contacts: Iterable[tuple[int, int, int]],
                      n_nodes: int | None = None, labels=None) -> "TemporalNetwork":
        """Build a network from (i, j, t) triples, sorting them by time."""
        triples = list(contacts)
        if triples:
            arr = np.asarray(triples, dtype=np.int64)
            order = np.argsort(arr[:, 2], kind="stable")
            arr = arr[order]
            src, dst, times = arr[:, 0], arr[:, 1], arr[:, 2]
            inferred = int(max(src.max(), dst.max())) + 1
        else:
            src = dst = times = np.empty(0, dtype=np.int64)
            inferred = 1
        if n_nodes is None:
            n_nodes = inferred
        return cls(n_nodes, src, dst, times, labels=labels)

    @property
    def n_contacts(self) -> int:
        return len(self.times)

    @property
    def horizon(self) -> int:
        """Largest timestamp T (0 for a contact-free network)."""
        return int(self.times[-1]) if len(self.times) else 0

    @property
    def n_timestamps(self) -> int:
        """Number of distinct contact timestamps."""
        return int(np.count_nonzero(np.diff(self.times))) + 1 if len(self.times) else 0

    @property
    def contacts(self) -> Iterator[tuple[int, int, int]]:
        for a, b, t in zip(self.src, self.dst, self.times):
            yield int(a), int(b), int(t)

    def contact_index(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, partners) of node i's contacts, sorted by time."""
        bounds, times, partners = self.contact_lists()
        lo, hi = bounds[i], bounds[i + 1]
        return times[lo:hi], partners[lo:hi]

    def contact_times(self, i: int) -> np.ndarray:
        return self.contact_index(i)[0]


def edge_keys(n_nodes: int, a, b) -> np.ndarray:
    """Key ``min(a, b) * n_nodes + max(a, b)`` of each unordered node pair.

    Keys sort like the (lo, hi) pairs they encode, so the sorted unique keys
    of an edge set list its edges in the row order of ``np.unique(axis=0)``.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.minimum(a, b) * n_nodes + np.maximum(a, b)


def unique_keys(keys) -> np.ndarray:
    """The distinct keys in ascending order.

    Equal to ``np.unique`` on integer keys; sorting and comparing neighbours
    is several times faster than its hashing on int64 keys.
    """
    keys = np.sort(keys)
    return keys[_run_starts(keys)]


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal sorted keys."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def key_pairs(keys, n_nodes: int) -> np.ndarray:
    """The (m, 2) array of (lo, hi) rows that ``edge_keys`` encoded."""
    return np.stack(np.divmod(np.asarray(keys, dtype=np.int64), n_nodes), axis=1)


def keys_in(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``keys`` that occur in the sorted array ``sorted_keys``."""
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[at] == keys


class StaticNetwork:
    """Unweighted undirected simple graph with CSR adjacency.

    ``members`` lists the node ids that actually belong to the graph; by
    default every id in [0, n_nodes) is a member.  Non-member ids simply
    have empty neighborhoods, which keeps id spaces aligned between a full
    network and sub-networks derived from it.
    """

    __slots__ = ("n_nodes", "members", "edges", "degree", "_indptr", "_nbrs")

    def __init__(self, n_nodes, edges, members=None):
        n_nodes = int(n_nodes)
        if n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                       dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if len(e):
            if e.min() < 0 or e.max() >= n_nodes:
                raise ValueError("edge endpoints outside [0, n_nodes)")
            if np.any(e[:, 0] == e[:, 1]):
                raise ValueError("self-loop edge")
        self._build(n_nodes, edge_keys(n_nodes, e[:, 0], e[:, 1]), members)

    @classmethod
    def from_keys(cls, n_nodes, keys, members=None) -> "StaticNetwork":
        """The graph on the node pairs with these ``edge_keys``; repeats collapse.

        The keys are trusted: they must encode loop-free pairs of ids in
        [0, n_nodes), as keys of validated contacts or edges do.
        """
        g = cls.__new__(cls)
        g._build(int(n_nodes), keys, members)
        return g

    def _build(self, n_nodes, keys, members):
        keys = unique_keys(keys)
        self.n_nodes = n_nodes
        self.edges = key_pairs(keys, n_nodes)
        lo, hi = self.edges[:, 0], self.edges[:, 1]
        if members is None:
            self.members = np.arange(n_nodes, dtype=np.int64)
        else:
            self.members = np.unique(np.asarray(members, dtype=np.int64))
            if len(self.members) and (self.members[0] < 0 or self.members[-1] >= n_nodes):
                raise ValueError("member ids outside [0, n_nodes)")
        # each edge in both directions, as end * n + neighbour sorted once
        ends, self._nbrs = np.divmod(np.sort(np.concatenate([keys, hi * n_nodes + lo])),
                                     n_nodes)
        self._indptr = np.searchsorted(ends, np.arange(n_nodes + 1))
        self.degree = np.diff(self._indptr)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, nbrs): node i's sorted neighbours are nbrs[indptr[i]:indptr[i + 1]]
        (views, do not mutate)."""
        return self._indptr, self._nbrs

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (a view, do not mutate)."""
        return self._nbrs[self._indptr[i]:self._indptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        k = np.searchsorted(nb, v)
        return k < len(nb) and nb[k] == v


@dataclass(frozen=True)
class NetworkStats:
    """The summary statistics reported for each dataset."""

    n_nodes: int
    n_timestamps: int
    n_contacts: int
    n_edges: int
    link_density: float
    avg_degree: float
    clustering_coefficient: float

    CSV_HEADER = ("dataset,n_nodes,n_timestamps,n_contacts,n_edges,"
                  "link_density,avg_degree,clustering_coefficient")

    def csv_row(self, dataset: str) -> str:
        return (f"{dataset},{self.n_nodes},{self.n_timestamps},{self.n_contacts},"
                f"{self.n_edges},{self.link_density:.4f},{self.avg_degree:.2f},"
                f"{self.clustering_coefficient:.4f}")


def _parse_time(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        pass
    try:
        x = float(token)
    except ValueError:
        raise ParseError(f"timestamp {token!r} is not a number", line) from None
    if x != int(x):
        raise ParseError(f"timestamp {token!r} is not an integer", line)
    return int(x)


def load_temporal(source, fmt: EdgeListFormat | None = None) -> TemporalNetwork:
    """Load a temporal network from an edge-list stream or file path.

    Node labels are remapped to dense ids in order of first appearance,
    self-loop contacts are dropped, and contacts are sorted by timestamp.
    Duplicate (i, j, t) contacts are kept.

    Raises ParseError (with the offending line number) on malformed input
    and EmptyNetworkError when no usable contact remains.
    """
    fmt = fmt or EdgeListFormat()
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
    else:
        with open(os.fspath(source), "rb") as fh:
            data = fh.read().decode("utf-8")

    triples: list[tuple[str, str, int]] = []
    for line_no, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(fmt.comment_prefixes):
            continue
        tokens = line.replace(",", " ").split()
        if fmt.columns == "ijt":
            if len(tokens) == 2:
                li, lj, t = tokens[0], tokens[1], 0
            elif len(tokens) == 3:
                li, lj = tokens[0], tokens[1]
                t = _parse_time(tokens[2], line_no)
            else:
                raise ParseError(f"expected 2 or 3 fields, got {len(tokens)}", line_no)
        elif fmt.columns == "tij":
            if len(tokens) != 3:
                raise ParseError(f"expected 3 fields, got {len(tokens)}", line_no)
            t = _parse_time(tokens[0], line_no)
            li, lj = tokens[1], tokens[2]
        else:  # ijwt
            if len(tokens) != 4:
                raise ParseError(f"expected 4 fields, got {len(tokens)}", line_no)
            li, lj = tokens[0], tokens[1]
            t = _parse_time(tokens[3], line_no)
        if t < 0:
            raise ParseError(f"negative timestamp {t}", line_no)
        if li == lj:
            continue  # self-loop contact
        triples.append((li, lj, t))

    if not triples:
        raise EmptyNetworkError("no contacts after cleaning")

    label_to_id: dict[str, int] = {}
    for li, lj, _ in triples:
        label_to_id.setdefault(li, len(label_to_id))
        label_to_id.setdefault(lj, len(label_to_id))
    labels = tuple(label_to_id)
    src = np.fromiter((label_to_id[li] for li, _, _ in triples), np.int64, len(triples))
    dst = np.fromiter((label_to_id[lj] for _, lj, _ in triples), np.int64, len(triples))
    times = np.fromiter((t for _, _, t in triples), np.int64, len(triples))
    order = np.argsort(times, kind="stable")
    return TemporalNetwork(len(labels), src[order], dst[order], times[order], labels=labels)


def aggregate(tn: TemporalNetwork) -> StaticNetwork:
    """Static aggregation: nodes i, j are linked iff they share >=1 contact."""
    return StaticNetwork.from_keys(tn.n_nodes, edge_keys(tn.n_nodes, tn.src, tn.dst))


# Upper bound on the wedges or walk steps expanded at once; it bounds the
# size of every temporary array of the triangle and walk counters.
CHUNK = 1 << 16


def _chunks(cost: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive (start, stop) ranges of items whose costs sum to at most
    ``CHUNK``; an item costing more than that gets a range of its own."""
    cum = np.cumsum(cost)
    start = 0
    while start < len(cum):
        base = int(cum[start - 1]) if start else 0
        stop = max(int(np.searchsorted(cum, base + CHUNK, side="right")), start + 1)
        yield start, stop
        start = stop


def _neighbour_slots(g: StaticNetwork, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the CSR neighbour array of every neighbour of each node,
    node by node, and the nodes' degrees."""
    deg = g.degree[nodes]
    first = np.cumsum(deg) - deg
    return np.arange(int(deg.sum())) + np.repeat(g._indptr[nodes] - first, deg), deg


def _triangle_counts(g: StaticNetwork) -> np.ndarray:
    """Number of triangles through each node.

    Every edge points from its lower to its higher (degree, id) end; each
    triangle is then the one wedge of out-neighbours at its lowest vertex
    that an edge closes (Latapy, TCS 2008), so O(m^1.5) wedges are
    checked.  Wedges are generated and looked up in chunks.
    """
    n = g.n_nodes
    a, b = g.edges[:, 0], g.edges[:, 1]
    up = g.degree[a] <= g.degree[b]   # a < b breaks degree ties
    src = np.where(up, a, b)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], np.where(up, b, a)[order]
    # a wedge is a pair of slots p < q in the out-list of one source
    later = np.searchsorted(src, src, side="right") - np.arange(len(src)) - 1
    keys = edge_keys(n, a, b)
    counts = np.zeros(n, dtype=np.int64)
    for start, stop in _chunks(later):
        slots, reps = np.arange(start, stop), later[start:stop]
        p = np.repeat(slots, reps)
        # the w-th wedge of slot p pairs it with slot p + 1 + w
        q = np.arange(len(p)) + np.repeat(slots + 1 - (np.cumsum(reps) - reps), reps)
        closed = keys_in(edge_keys(n, dst[p], dst[q]), keys)
        counts += np.bincount(np.concatenate([src[p[closed]], dst[p[closed]], dst[q[closed]]]),
                              minlength=n)
    return counts


def average_clustering(g: StaticNetwork) -> float:
    """Mean over member nodes of the fraction of neighbour pairs that are
    linked; nodes of degree < 2 count as 0."""
    if len(g.members) == 0:
        return 0.0
    k = g.degree[g.members]
    local = np.zeros(len(k))
    np.divide(2 * _triangle_counts(g)[g.members], k * (k - 1), out=local, where=k >= 2)
    return float(np.mean(local))


def stats(tn: TemporalNetwork, g: StaticNetwork) -> NetworkStats:
    """Dataset summary row; g must be the static aggregation of tn."""
    n = g.n_nodes
    if n < 2:
        raise ValueError("density undefined for fewer than 2 nodes")
    m = g.n_edges
    return NetworkStats(
        n_nodes=n,
        n_timestamps=tn.n_timestamps,
        n_contacts=tn.n_contacts,
        n_edges=m,
        link_density=2.0 * m / (n * (n - 1)),
        avg_degree=2.0 * m / n,
        clustering_coefficient=average_clustering(g),
    )


def _walks(g: StaticNetwork, sources: np.ndarray, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Walks of ``steps`` steps from each source, by source and end node.

    Returns the sorted keys ``k * n_nodes + end`` (k the source's position
    in ``sources``) of every reachable (source, end) and the number of
    walks to each, exactly in int64.
    """
    n = g.n_nodes
    keys = np.arange(len(sources), dtype=np.int64) * n + sources
    counts = np.ones(len(sources), dtype=np.int64)
    for step in range(steps):
        owner, node = np.divmod(keys, n)
        slots, deg = _neighbour_slots(g, node)
        keys = np.repeat(owner * n, deg) + g._nbrs[slots]
        counts = np.repeat(counts, deg)
        if step and len(keys):
            # later steps reach a node along several walks: sum their counts
            order = np.argsort(keys)
            keys, counts = keys[order], counts[order]
            first = np.flatnonzero(_run_starts(keys))
            keys, counts = keys[first], np.add.reduceat(counts, first)
    return keys, counts


def walk_counts(g: StaticNetwork, pairs: np.ndarray, length: int) -> np.ndarray:
    """Number of length-``length`` walks between the ends of each pair, the
    (i, j) entries of the adjacency matrix power, exactly in int64.

    Meets in the middle, A^l[i, j] = sum_m A^a[i, m] A^(l-a)[j, m]: walks of
    l - l//2 steps from one end are joined with walks of l//2 steps from the
    other on their end node m.  The longer half starts from the end that
    reaches fewer walk steps, and pairs are processed in chunks of at most
    ``CHUNK`` expanded steps.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    long_steps, short_steps = length - length // 2, length // 2
    # reach[h][i]: walk steps expanded h steps out from i, an upper bound
    reach = [np.ones(g.n_nodes, dtype=np.int64)]
    for _ in range(long_steps):
        cum = np.concatenate([[0], np.cumsum(reach[-1][g._nbrs])])
        reach.append(cum[g._indptr[1:]] - cum[g._indptr[:-1]])
    far, near = reach[long_steps], reach[short_steps]
    a, b = pairs[:, 0], pairs[:, 1]
    swap = far[a] + near[b] > far[b] + near[a]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    out = np.zeros(len(pairs), dtype=np.int64)
    for start, stop in _chunks(far[a] + near[b]):
        left, left_counts = _walks(g, a[start:stop], long_steps)
        right, right_counts = _walks(g, b[start:stop], short_steps)
        met = keys_in(right, left)
        at = np.searchsorted(left, right[met])
        np.add.at(out, start + right[met] // g.n_nodes, left_counts[at] * right_counts[met])
    return out


def walk_counts_from(g: StaticNetwork, i: int, length: int) -> np.ndarray:
    """Number of length-`length` walks from node i to every node.

    Equals row i of the adjacency matrix raised to the given power.
    """
    ends, counts = _walks(g, np.array([i], dtype=np.int64), length)
    row = np.zeros(g.n_nodes, dtype=np.int64)
    row[ends] = counts
    return row


def count_l_paths(g: StaticNetwork, i: int, j: int, l: int) -> int:
    """Number of l-link connections between i and j (walk count, A^l entry).

    For l=2 this is exactly the number of common neighbors.
    """
    if l not in (2, 3, 4):
        raise ValueError(f"l must be one of 2, 3, 4; got {l}")
    if i == j:
        raise ValueError("endpoints must differ")
    if not (0 <= i < g.n_nodes and 0 <= j < g.n_nodes):
        raise ValueError("node id outside [0, n_nodes)")
    return int(walk_counts(g, [(i, j)], l)[0])
