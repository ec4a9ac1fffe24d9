"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from spreademb import (EmbeddingMatrix, PairStream, StaticNetwork, TemporalNetwork,
                       TrainConfig, TrainingDiverged)
from spreademb.skipgram import _FINITE_CHECK_EVERY, _draw_negatives, noise_cdf

# chi-squared 0.99 quantiles from standard tables, keyed by degrees of freedom
CHI2_99 = {1: 6.6349, 2: 9.2103, 3: 11.3449, 4: 13.2767, 5: 15.0863,
           6: 16.8119, 7: 18.4753, 9: 21.6660, 11: 24.7250}


def chi2_stat(observed, expected) -> float:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(((observed - expected) ** 2 / expected).sum())


def er_graph(n: int, p: float, seed: int) -> StaticNetwork:
    rng = np.random.default_rng(seed)
    lo, hi = np.triu_indices(n, k=1)
    keep = rng.random(len(lo)) < p
    return StaticNetwork(n, np.stack([lo[keep], hi[keep]], axis=1))


def dense_adjacency(g: StaticNetwork) -> np.ndarray:
    a = np.zeros((g.n_nodes, g.n_nodes), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return a


def random_temporal(n: int, n_contacts: int, t_range: int, seed: int) -> TemporalNetwork:
    rng = np.random.default_rng(seed)
    contacts = []
    while len(contacts) < n_contacts:
        i, j = rng.integers(0, n, 2)
        if i != j:
            contacts.append((int(i), int(j), int(rng.integers(0, t_range))))
    return TemporalNetwork.from_contacts(contacts, n_nodes=n)


def planted_partition_temporal(n=200, p_in=0.2, p_out=0.02, seed=42,
                               t_range=1000) -> TemporalNetwork:
    """Two equal blocks; each edge carries 1-3 uniform-random timestamps."""
    rng = np.random.default_rng(seed)
    half = n // 2
    contacts = []
    for i in range(n):
        for j in range(i + 1, n):
            same = (i < half) == (j < half)
            if rng.random() < (p_in if same else p_out):
                for _ in range(int(rng.integers(1, 4))):
                    contacts.append((i, j, int(rng.integers(0, t_range))))
    return TemporalNetwork.from_contacts(contacts, n_nodes=n)


def naive_static_si(g: StaticNetwork, seed: int, beta: float,
                    rng: np.random.Generator) -> dict[int, int]:
    """Literal per-edge SI simulation (independent oracle): each step every
    infected-susceptible adjacency is a separate Bernoulli trial and the
    parent is uniform over that step's successful infectors.  Returns the
    child -> parent map."""
    infected = {seed}
    parent: dict[int, int] = {}
    while True:
        boundary = [v for v in range(g.n_nodes)
                    if v not in infected and any(u in infected for u in g.neighbors(v))]
        if not boundary:
            return parent
        new = {}
        for v in boundary:
            successes = [int(u) for u in g.neighbors(v)
                         if u in infected and rng.random() < beta]
            if successes:
                new[v] = successes[int(rng.integers(len(successes)))]
        for v, u in new.items():
            infected.add(v)
            parent[v] = u


def exact_temporal_si_distribution(contacts, seed: int, t_start: int,
                                   beta: float) -> dict[frozenset, float]:
    """Exact distribution of the final infected set for temporal SI with
    same-timestamp batch semantics, by enumerating every trial outcome."""
    from collections import defaultdict
    from itertools import product

    batches: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i, j, t in contacts:
        if t >= t_start:
            batches[t].append((i, j))
    dist = {frozenset([seed]): 1.0}
    for t in sorted(batches):
        new_dist: dict[frozenset, float] = defaultdict(float)
        for infected, prob in dist.items():
            eligible = []
            for a, b in batches[t]:
                if (a in infected) != (b in infected):
                    eligible.append(b if a in infected else a)
            if not eligible:
                new_dist[infected] += prob
                continue
            for bits in product((0, 1), repeat=len(eligible)):
                q = prob
                targets = set()
                for target, bit in zip(eligible, bits):
                    q *= beta if bit else (1.0 - beta)
                    if bit:
                        targets.add(target)
                new_dist[frozenset(infected | targets)] += q
        dist = dict(new_dist)
    return dist


def brute_force_auc(scores, labels) -> float:
    """All-pairs Mann-Whitney comparison, ties counted one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for s in pos:
        for t in neg:
            if s > t:
                total += 1.0
            elif s == t:
                total += 0.5
    return total / (len(pos) * len(neg))


def naive_average_clustering(g: StaticNetwork) -> float:
    """Mean local clustering by intersecting each member's neighbour list
    with each neighbour's (independent oracle)."""
    def local(i: int) -> float:
        nbrs = g.neighbors(i)
        k = len(nbrs)
        if k < 2:
            return 0.0
        links = 0
        for u in nbrs:
            links += len(np.intersect1d(nbrs, g.neighbors(u), assume_unique=True))
        return links / (k * (k - 1))  # each triangle edge counted twice

    if len(g.members) == 0:
        return 0.0
    return float(np.mean([local(int(i)) for i in g.members]))


def naive_walk_counts_from(g: StaticNetwork, i: int, length: int) -> np.ndarray:
    """Row i of A**length by propagating a frontier one node at a time
    (independent oracle)."""
    v = np.zeros(g.n_nodes, dtype=np.int64)
    v[i] = 1
    for _ in range(length):
        nxt = np.zeros(g.n_nodes, dtype=np.int64)
        for u in np.nonzero(v)[0]:
            nxt[g.neighbors(u)] += v[u]
        v = nxt
    return v


def reference_csr(n: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, indptr, neighbours) of the simple graph on `edges`, built with
    row-wise unique and lexsort (independent oracle)."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = np.unique(np.stack([e.min(axis=1), e.max(axis=1)], axis=1), axis=0)
    ends = np.concatenate([e[:, 0], e[:, 1]])
    nbrs = np.concatenate([e[:, 1], e[:, 0]])
    order = np.lexsort((nbrs, ends))
    return e, np.searchsorted(ends[order], np.arange(n + 1)), nbrs[order]


def reference_train(pairs: PairStream, cfg: TrainConfig) -> EmbeddingMatrix:
    """Oracle for skipgram.train: the per-pair numpy loop it replaced.

    Same initialisation, negative draws, learning rates, divergence checks and
    messages; each update reads the pre-update context rows and scatter-adds
    into V with np.add.at when noise draws repeat.
    """
    arr = pairs.to_array()
    n_pairs = len(arr)
    if n_pairs == 0:
        raise ValueError("pair stream is empty")
    n = pairs.n_nodes
    d = cfg.dim
    rng = np.random.default_rng(cfg.rng_seed)
    u = (rng.random((n, d)) - 0.5) / d
    v = np.zeros((n, d))
    cdf = noise_cdf(pairs.counts)
    k = cfg.negatives
    labels = np.zeros(k + 1)
    labels[0] = 1.0
    lr0, lr1 = cfg.lr_initial, cfg.lr_final
    total = n_pairs * cfg.epochs
    centers = arr[:, 0].tolist()
    contexts = arr[:, 1]
    ctx_buf = np.empty((k + 1, d))
    g_buf = np.empty(k + 1)
    gu_buf = np.empty(d)
    upd_buf = np.empty((k + 1, d))
    g_col = g_buf[:, None]
    dot = np.dot
    step = 0
    with np.errstate(over="ignore"):
        for _ in range(cfg.epochs):
            rows_all = np.empty((n_pairs, k + 1), dtype=np.intp)
            rows_all[:, 0] = contexts
            rows_all[:, 1:] = _draw_negatives(cdf, contexts, k, rng)
            # a pair needs scatter-add only if its noise draws repeat
            sorted_negs = np.sort(rows_all[:, 1:], axis=1)
            has_dup = (np.diff(sorted_negs, axis=1) == 0).any(axis=1).tolist()
            lrs = (lr0 + (lr1 - lr0) * (np.arange(step, step + n_pairs) / total)).tolist()
            step += n_pairs
            for t in range(n_pairs):
                i = centers[t]
                rows = rows_all[t]
                ui = u[i]
                v.take(rows, axis=0, out=ctx_buf)  # pre-update context rows
                dot(ctx_buf, ui, out=g_buf)
                np.negative(g_buf, out=g_buf)
                np.exp(g_buf, out=g_buf)
                g_buf += 1.0
                np.reciprocal(g_buf, out=g_buf)         # sigmoid(dots)
                np.subtract(labels, g_buf, out=g_buf)
                g_buf *= lrs[t]
                dot(g_buf, ctx_buf, out=gu_buf)
                np.multiply(g_col, ui, out=upd_buf)
                if has_dup[t]:
                    np.add.at(v, rows, upd_buf)
                else:
                    v[rows] += upd_buf
                ui += gu_buf
                if not (t + 1) % _FINITE_CHECK_EVERY and not np.isfinite(ui).all():
                    raise TrainingDiverged(
                        f"non-finite embedding near update {step - n_pairs + t}; "
                        f"lr_initial={lr0} is probably too high")
    u[pairs.counts == 0] = 0.0
    if not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
        raise TrainingDiverged(
            f"non-finite embeddings after training; lr_initial={lr0} is probably too high")
    return EmbeddingMatrix(u, v)
