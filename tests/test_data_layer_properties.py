"""Property tests of the key-based data layer against loop oracles."""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (eager_contact_lists, naive_average_clustering,
                     naive_walk_counts_from, reference_csr)
from spreademb import (InsufficientNegativesError, StaticNetwork,
                       TemporalNetwork, make_split, score_lpath)
from spreademb import graphs
from spreademb.evaluation import _dense_walk_matrix, contacted_pairs
from spreademb.graphs import average_clustering, walk_counts_from

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def edge_lists(draw, max_nodes=30):
    """(n_nodes, raw edges): Erdos-Renyi or heavy-tailed, with repeated and
    reversed edges, isolated nodes at random ids, and degree-0/1 nodes."""
    n_used = draw(st.integers(1, max_nodes))
    n_nodes = n_used + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        lo, hi = np.triu_indices(n_used, k=1)
        keep = rng.random(len(lo)) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
        a, b = lo[keep], hi[keep]
        flip = rng.random(len(a)) < 0.5
        a, b = np.where(flip, b, a), np.where(flip, a, b)
    else:
        weight = (np.arange(n_used) + 1.0) ** -0.9
        m = draw(st.integers(0, 4 * n_used))
        a = rng.choice(n_used, size=m, p=weight / weight.sum())
        b = rng.choice(n_used, size=m, p=weight / weight.sum())
        a, b = a[a != b], b[a != b]
    ids = rng.permutation(n_nodes)[:n_used]   # isolated ids fall anywhere
    return n_nodes, np.stack([ids[a], ids[b]], axis=1).reshape(-1, 2)


@st.composite
def static_graphs(draw):
    n_nodes, edges = draw(edge_lists())
    members = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        members = np.flatnonzero(rng.random(n_nodes) < 0.6)
    return StaticNetwork(n_nodes, edges, members=members)


@SETTINGS
@given(edge_lists())
def test_static_network_matches_unique_and_lexsort_reference(case):
    n_nodes, raw = case
    g = StaticNetwork(n_nodes, raw)
    edges, indptr, nbrs = reference_csr(n_nodes, raw)
    for got, want in ((g.edges, edges), (g._indptr, indptr), (g._nbrs, nbrs)):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(g.degree, np.diff(indptr))


@SETTINGS
@given(static_graphs(), st.sampled_from([1, 5, 64, graphs.CHUNK]))
def test_average_clustering_equals_intersection_oracle(g, chunk):
    with mock.patch.object(graphs, "CHUNK", chunk):
        assert average_clustering(g) == naive_average_clustering(g)


@SETTINGS
@given(static_graphs(), st.sampled_from([1, 5, 64, graphs.CHUNK]))
def test_lpath_scores_equal_frontier_oracle_on_both_branches(g, chunk):
    n = g.n_nodes
    pairs = np.array([(i, j) for i in range(n) for j in range(n) if i != j],
                     dtype=np.int64).reshape(-1, 2)
    for l in (2, 3, 4):
        oracle = np.array([naive_walk_counts_from(g, i, l) for i in range(n)])
        want = oracle[pairs[:, 0], pairs[:, 1]]
        with mock.patch.object(graphs, "CHUNK", chunk):
            sparse = score_lpath(g, pairs, l)   # small n: the walk-count branch
        assert sparse.dtype == np.int64
        assert np.array_equal(sparse, want)
        dense = _dense_walk_matrix(g, l)[pairs[:, 0], pairs[:, 1]].astype(np.int64)
        assert np.array_equal(dense, want)


@SETTINGS
@given(static_graphs(), st.integers(0, 5), st.data())
def test_walk_counts_from_equals_frontier_oracle(g, length, data):
    i = data.draw(st.integers(0, g.n_nodes - 1))
    assert np.array_equal(walk_counts_from(g, i, length),
                          naive_walk_counts_from(g, i, length))


@st.composite
def temporal_networks(draw):
    n = draw(st.integers(3, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_contacts = draw(st.integers(2, 3 * n * n))
    a = rng.integers(0, n, size=n_contacts)
    b = rng.integers(0, n, size=n_contacts)
    keep = a != b
    times = rng.integers(0, 20, size=int(keep.sum()))
    order = np.argsort(times, kind="stable")
    return TemporalNetwork(n, a[keep][order], b[keep][order], times[order])


def as_pair_set(pairs) -> set:
    return {(min(int(i), int(j)), max(int(i), int(j))) for i, j in pairs}


@SETTINGS
@given(temporal_networks(), st.integers(0, 2**63 - 1))
def test_make_split_invariants_hold(tn, seed):
    contacted = as_pair_set(contacted_pairs(tn))
    assume(len(contacted) >= 2)
    try:
        split = make_split(tn, seed)
    except InsufficientNegativesError:
        n = tn.n_nodes
        assert n * (n - 1) // 2 - len(contacted) < len(contacted) - int(0.75 * len(contacted))
        return
    train_pairs = contacted_pairs(split.train_temporal)
    train = as_pair_set(train_pairs)
    pos = split.pairs[split.labels == 1]
    neg = split.pairs[split.labels == 0]
    assert len(train_pairs) == int(0.75 * len(contacted))
    assert len(pos) == len(neg) == len(contacted) - len(train)
    assert np.all(split.pairs[:, 0] < split.pairs[:, 1])
    assert len(as_pair_set(pos)) == len(pos) and len(as_pair_set(neg)) == len(neg)
    assert train | as_pair_set(pos) == contacted
    assert not train & as_pair_set(pos)
    assert not as_pair_set(neg) & contacted
    # the training network keeps every contact of every training pair
    kept = sum(1 for i, j, _ in tn.contacts if (min(i, j), max(i, j)) in train)
    assert split.train_temporal.n_contacts == kept
    assert np.array_equal(split.train_static.edges, train_pairs)


@SETTINGS
@given(temporal_networks())
def test_lazy_contact_lists_equal_eager_reference(tn):
    assert tn._contacts is None
    for got, want in zip(tn.contact_lists(), eager_contact_lists(tn)):
        assert np.array_equal(got, want)
