"""Seeded input generators for the benchmark.

Every generator is a pure function of its seed and size arguments, so one
seed always yields byte-identical inputs.  The program under test receives
only what these functions produce: an in-memory contact list for the
planted partition, an edge-list file for the heavy-tailed networks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

CHUNK_ROWS = 65536   # contacts formatted per write of an edge-list file


@dataclass(frozen=True)
class Contacts:
    """A generated temporal network as contact arrays sorted by time."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    times: np.ndarray

    def shape(self) -> dict:
        """Counts a correct loader and ``stats`` must reproduce."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        keys = np.unique(lo * self.n_nodes + hi)
        degree = np.bincount(np.concatenate([keys // self.n_nodes, keys % self.n_nodes]),
                             minlength=self.n_nodes)
        return {
            "n_nodes": int(self.n_nodes),
            "n_contacts": int(len(self.times)),
            "n_edges": int(len(keys)),
            "n_timestamps": int(len(np.unique(self.times))),
            "max_degree": int(degree.max()),
        }

    def edge_list_chunks(self):
        """The ``ijt`` edge-list file content, one contact per line, in chunks."""
        table = np.stack([self.src, self.dst, self.times], axis=1)
        for k in range(0, len(table), CHUNK_ROWS):
            chunk = table[k:k + CHUNK_ROWS]
            yield (("%d %d %d\n" * len(chunk)) % tuple(chunk.ravel().tolist())).encode("ascii")

    def write_edge_list(self, path) -> str:
        """Write the edge-list file and return the sha256 of its bytes."""
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for chunk in self.edge_list_chunks():
                digest.update(chunk)
                fh.write(chunk)
        return digest.hexdigest()

    def sha256(self) -> str:
        """sha256 of the edge-list bytes, for inputs never written to disk."""
        digest = hashlib.sha256()
        for chunk in self.edge_list_chunks():
            digest.update(chunk)
        return digest.hexdigest()


def _sorted_by_time(n_nodes, src, dst, times) -> Contacts:
    order = np.argsort(times, kind="stable")
    return Contacts(int(n_nodes), src[order].astype(np.int64),
                    dst[order].astype(np.int64), times[order].astype(np.int64))


def planted_partition(seed: int, n: int) -> Contacts:
    """Two equal blocks linked with probability 0.2 inside and 0.02 across;
    every edge carries 1-3 timestamps uniform over [0, 1000)."""
    rng = np.random.default_rng([seed, 1])
    lo, hi = np.triu_indices(n, k=1)
    same = (lo < n // 2) == (hi < n // 2)
    keep = rng.random(len(lo)) < np.where(same, 0.2, 0.02)
    lo, hi = lo[keep], hi[keep]
    reps = rng.integers(1, 4, size=len(lo))
    src, dst = np.repeat(lo, reps), np.repeat(hi, reps)
    times = rng.integers(0, 1000, size=len(src))
    return _sorted_by_time(n, src, dst, times)


def heavy_tailed(seed: int, n_nodes: int, n_contacts: int) -> Contacts:
    """Chung-Lu-style temporal network with repeated contacts per edge.

    Node i has weight (i + 1) ** -0.6 (degree exponent 1 + 1/0.6).  Every
    node first links to one weight-drawn partner (its successor if it drew
    itself), so none is isolated; then 0.31 * n_contacts more weight-drawn
    endpoint pairs are added and duplicates merged, which leaves about 3
    contacts per edge.  Each distinct edge gets one contact, the remaining
    contacts go to uniformly drawn edges, and all timestamps are uniform
    over n_contacts / 100 slots, so many contacts share a timestamp.
    Exactly ``n_contacts`` contacts are returned.
    """
    rng = np.random.default_rng([seed, 2])
    weight = (np.arange(n_nodes) + 1.0) ** -0.6
    cdf = np.cumsum(weight)
    cdf /= cdf[-1]
    n_draws = int(0.31 * n_contacts)
    a = np.concatenate([np.arange(n_nodes), np.searchsorted(cdf, rng.random(n_draws))])
    b = np.searchsorted(cdf, rng.random(n_nodes + n_draws))
    first = np.arange(n_nodes)
    b[:n_nodes] = np.where(b[:n_nodes] == first, (first + 1) % n_nodes, b[:n_nodes])
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    keys = np.unique(lo * n_nodes + hi)
    if len(keys) > n_contacts:
        raise ValueError("more distinct edges than contacts requested")
    edge_of = np.concatenate([np.arange(len(keys)),
                              rng.integers(0, len(keys), size=n_contacts - len(keys))])
    lo, hi = keys[edge_of] // n_nodes, keys[edge_of] % n_nodes
    flip = rng.random(n_contacts) < 0.5
    src, dst = np.where(flip, hi, lo), np.where(flip, lo, hi)
    times = rng.integers(0, max(1, n_contacts // 100), size=n_contacts)
    return _sorted_by_time(n_nodes, src, dst, times)
