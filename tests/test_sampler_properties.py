"""Property tests of the samplers: the compiled SI kernel against the Python
oracles it replaced, and the budget bound of all six corpus samplers."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (reference_extract_paths, reference_sample_corpus,
                     reference_si_spread_static, reference_si_spread_temporal)
from spreademb import (SpreadConfig, StaticNetwork, TemporalNetwork, TrajectoryTree,
                       WalkConfig, aggregate, ctdne_corpus, deepwalk_corpus,
                       extract_paths, node2vec_corpus, sample_corpus, si_spread_static,
                       si_spread_temporal)
from spreademb.spreading import MAX_SPREAD_STEPS

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

betas = st.one_of(st.just(1.0), st.sampled_from([0.05, 0.3, 0.7]), st.floats(0.01, 1.0))


@st.composite
def static_graphs(draw):
    """Erdos-Renyi graphs, paths and stars (one-leaf trees and one-candidate
    parents), with isolated nodes at the end of the id range."""
    n_used = draw(st.integers(1, 25))
    n_nodes = n_used + draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["er", "path", "star"]))
    if kind == "er":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        lo, hi = np.triu_indices(n_used, k=1)
        keep = rng.random(len(lo)) < draw(st.sampled_from([0.05, 0.2, 0.6]))
        edges = np.stack([lo[keep], hi[keep]], axis=1)
    elif kind == "path":
        edges = [(i, i + 1) for i in range(n_used - 1)]
    else:
        edges = [(0, i) for i in range(1, n_used)]
    return StaticNetwork(n_nodes, edges)


@st.composite
def temporal_networks(draw):
    """Random contacts over few timestamps (large same-time batches in which
    several nodes each have several infectors, repeated contacts), with
    nodes that have no contact."""
    n_nodes = draw(st.integers(2, 20))
    n_used = draw(st.integers(2, n_nodes))
    n_contacts = draw(st.integers(1, 300))
    t_range = draw(st.sampled_from([1, 2, 3, 5, 25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, n_used, n_contacts)
    b = (a + rng.integers(1, n_used, n_contacts)) % n_used
    contacts = zip(a.tolist(), b.tolist(), rng.integers(0, t_range, n_contacts).tolist())
    return TemporalNetwork.from_contacts(contacts, n_nodes=n_nodes)


def generator_pair(seed: int, buffered: bool):
    """Two generators in one state; with ``buffered`` a uint32 draw leaves
    half of a 64-bit output waiting in the bit generator."""
    pair = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        for rng in pair:
            rng.integers(1000, dtype=np.uint32)
    return pair


def same_tree(a: TrajectoryTree, b: TrajectoryTree) -> bool:
    return (a.root, a.order, list(a.parent.items())) == (b.root, b.order, list(b.parent.items()))


@SETTINGS
@given(static_graphs(), st.data(), betas, st.sampled_from([1, 2, 3, MAX_SPREAD_STEPS]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_static_spread_matches_oracle(g, data, beta, max_steps, buffered, seed):
    root = data.draw(st.integers(0, g.n_nodes - 1))
    got_rng, want_rng = generator_pair(seed, buffered)
    got = si_spread_static(g, root, beta, got_rng, max_steps)
    want = reference_si_spread_static(g, root, beta, want_rng, max_steps)
    assert same_tree(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@SETTINGS
@given(temporal_networks(), st.data(), betas, st.booleans(), st.integers(0, 2**32 - 1))
def test_temporal_spread_matches_oracle(tn, data, beta, buffered, seed):
    root = data.draw(st.integers(0, tn.n_nodes - 1))
    t_start = data.draw(st.integers(0, tn.horizon))
    got_rng, want_rng = generator_pair(seed, buffered)
    got = si_spread_temporal(tn, root, t_start, beta, got_rng)
    want = reference_si_spread_temporal(tn, root, t_start, beta, want_rng)
    assert same_tree(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@SETTINGS
@given(static_graphs(), st.data(), betas, st.integers(1, 30), st.integers(1, 6),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_extract_paths_matches_oracle(g, data, beta, n_paths, max_len, buffered, seed):
    root = data.draw(st.integers(0, g.n_nodes - 1))
    tree = reference_si_spread_static(g, root, beta, np.random.default_rng(seed))
    got_rng, want_rng = generator_pair(seed + 1, buffered)
    got = extract_paths(tree, n_paths, max_len, got_rng)
    assert got == reference_extract_paths(tree, n_paths, max_len, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@SETTINGS
@given(st.data(), st.sampled_from(["sine", "tsine1", "tsine2"]), st.booleans(), betas,
       st.integers(1, 3), st.integers(2, 8), st.sampled_from([None, 1, 7, 500]),
       st.integers(0, 2**32 - 1))
def test_sample_corpus_matches_oracle(data, mode, distinct, beta, x, max_len, quota_scale,
                                      seed):
    net = data.draw(static_graphs() if mode == "sine" else temporal_networks())
    cfg = SpreadConfig(beta=beta, budget_multiplier=x, quota_scale=quota_scale,
                       max_path_len=max_len, rng_seed=seed, tsine1_distinct_times=distinct)
    assert sample_corpus(net, cfg, mode) == reference_sample_corpus(net, cfg, mode)


def steps_along(paths, g: StaticNetwork) -> bool:
    return all(g.has_edge(a, b) for p in paths for a, b in zip(p, p[1:]))


@SETTINGS
@given(temporal_networks(), st.sampled_from(["sine", "tsine1", "tsine2", "deepwalk",
                                             "node2vec", "ctdne"]),
       betas, st.integers(1, 3), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_every_sampler_meets_its_budget_on_edges(tn, sampler, beta, x, max_len, seed):
    g = aggregate(tn)
    if sampler in ("sine", "tsine1", "tsine2"):
        cfg = SpreadConfig(beta=beta, budget_multiplier=x, max_path_len=max_len, rng_seed=seed)
        corpus = sample_corpus(g if sampler == "sine" else tn, cfg, sampler)
    else:
        cfg = WalkConfig(walk_length=max_len, budget_multiplier=x, p=0.5, q=2.0,
                         rng_seed=seed)
        walk = {"deepwalk": deepwalk_corpus, "node2vec": node2vec_corpus,
                "ctdne": ctdne_corpus}[sampler]
        corpus = walk(tn if sampler == "ctdne" else g, cfg)
    budget = tn.n_nodes * x
    assert budget <= corpus.total_length < budget + max_len
    assert all(1 <= len(p) <= max_len for p in corpus.paths)
    assert steps_along(corpus.paths, g)
