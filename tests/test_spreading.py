from collections import Counter

import numpy as np
import pytest

from helpers import (CHI2_99, chi2_stat, er_graph, exact_temporal_si_distribution,
                     naive_static_si, random_temporal)
from spreademb import (SpreadConfig, StaticNetwork, TemporalNetwork, aggregate,
                       extract_paths, path_quota, sample_corpus,
                       seed_time_tsine1, seed_time_tsine2, si_spread_static,
                       si_spread_temporal)
from spreademb.spreading import TrajectoryTree


def complete_graph(n):
    return StaticNetwork(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    return StaticNetwork(n, [(i, i + 1) for i in range(n - 1)])


def test_static_beta_one_on_k5_is_depth_one():
    rng = np.random.default_rng(0)
    tree = si_spread_static(complete_graph(5), 0, 1.0, rng)
    assert tree.infected_set == {0, 1, 2, 3, 4}
    assert all(parent == 0 and t == 1 for parent, t in tree.parent.values())


def test_static_forced_zero_successes_leaves_seed_only():
    rng = np.random.default_rng(1)
    tree = si_spread_static(path_graph(4), 0, 1e-12, rng, max_steps=50)
    assert tree.infected_set == {0}
    assert tree.parent == {}


def test_static_connected_graph_always_fully_infected():
    g = path_graph(4)
    rng = np.random.default_rng(2)
    for _ in range(300):
        tree = si_spread_static(g, 0, 0.5, rng)
        assert len(tree.infected_set) == 4


def test_static_tree_edges_are_graph_edges_and_times_increase():
    g = er_graph(30, 0.15, seed=9)
    rng = np.random.default_rng(3)
    infected_time = {}
    for _ in range(20):
        seed = int(rng.integers(30))
        tree = si_spread_static(g, seed, 0.3, rng)
        infected_time = {tree.root: 0}
        for child, (parent, t) in tree.parent.items():
            assert g.has_edge(parent, child)
            infected_time[child] = t
        for child, (parent, t) in tree.parent.items():
            assert infected_time[parent] < t


def test_static_parent_distribution_matches_naive_simulator():
    # triangle, seed 0: outcome = frozen (child, parent) pairs
    g = StaticNetwork(3, [(0, 1), (1, 2), (0, 2)])
    n_runs = 20000
    rng = np.random.default_rng(4)
    ours = Counter()
    for _ in range(n_runs):
        tree = si_spread_static(g, 0, 0.35, rng)
        ours[tuple(sorted((c, p) for c, (p, _) in tree.parent.items()))] += 1
    rng = np.random.default_rng(5)
    naive = Counter()
    for _ in range(n_runs):
        parent = naive_static_si(g, 0, 0.35, rng)
        naive[tuple(sorted(parent.items()))] += 1
    for key in set(ours) | set(naive):
        f1 = ours[key] / n_runs
        f2 = naive[key] / n_runs
        p = (f1 + f2) / 2
        bound = 5 * np.sqrt(max(p * (1 - p), 1e-9) * 2 / n_runs)
        assert abs(f1 - f2) <= bound, (key, f1, f2)


@pytest.mark.parametrize("beta", [0.0, -0.2, 1.5, float("nan")])
def test_spreads_reject_beta_outside_unit_interval(beta):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="beta"):
        si_spread_static(path_graph(30), 0, beta, rng)
    tn = TemporalNetwork.from_contacts([(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError, match="beta"):
        si_spread_temporal(tn, 0, 0, beta, rng)


def test_extract_paths_rejects_max_path_len_below_one():
    tree = TrajectoryTree(0, {1: (0, 1)}, [0, 1])
    with pytest.raises(ValueError, match="max_path_len"):
        extract_paths(tree, 3, 0, np.random.default_rng(0))


def test_extract_paths_rejects_trees_out_of_infection_order():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="precede"):   # 1 and 2 infect each other
        extract_paths(TrajectoryTree(0, {1: (2, 1), 2: (1, 1)}, [0, 1, 2]), 3, 5, rng)
    with pytest.raises(ValueError, match="root"):
        extract_paths(TrajectoryTree(1, {1: (0, 1)}, [0, 1]), 3, 5, rng)


def test_temporal_chain_beta_one():
    tn = TemporalNetwork.from_contacts([(0, 1, 1), (1, 2, 2)])
    tree = si_spread_temporal(tn, 0, 0, 1.0, np.random.default_rng(0))
    assert tree.infected_set == {0, 1, 2}
    assert tree.parent == {1: (0, 1), 2: (1, 2)}


def test_temporal_respects_contact_order():
    tn = TemporalNetwork.from_contacts([(1, 2, 1), (0, 1, 2)])
    tree = si_spread_temporal(tn, 0, 0, 1.0, np.random.default_rng(0))
    assert tree.infected_set == {0, 1}


def test_temporal_seed_transmits_at_start_time():
    tn = TemporalNetwork.from_contacts([(0, 1, 5)])
    tree = si_spread_temporal(tn, 0, 5, 1.0, np.random.default_rng(0))
    assert tree.infected_set == {0, 1}


def test_temporal_same_timestamp_no_relay():
    tn = TemporalNetwork.from_contacts([(0, 1, 5), (1, 2, 5)])
    tree = si_spread_temporal(tn, 0, 0, 1.0, np.random.default_rng(0))
    assert tree.infected_set == {0, 1}


def test_temporal_t_start_domain():
    tn = TemporalNetwork.from_contacts([(0, 1, 5)])
    with pytest.raises(ValueError):
        si_spread_temporal(tn, 0, 6, 0.5, np.random.default_rng(0))


def test_temporal_matches_exact_enumeration():
    contacts = [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 3), (3, 4, 4)]
    tn = TemporalNetwork.from_contacts(contacts)
    beta = 0.5
    exact = exact_temporal_si_distribution(contacts, 0, 0, beta)
    n_runs = 20000
    rng = np.random.default_rng(6)
    freq = Counter()
    for _ in range(n_runs):
        tree = si_spread_temporal(tn, 0, 0, beta, rng)
        freq[frozenset(tree.infected_set)] += 1
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    for outcome, p in exact.items():
        f = freq[outcome] / n_runs
        bound = 5 * np.sqrt(max(p * (1 - p), 1e-9) / n_runs)
        assert abs(f - p) <= bound, (set(outcome), p, f)
    assert set(freq) <= set(exact)


def test_tsine1_multiset_frequencies():
    tn = TemporalNetwork.from_contacts([(0, 1, 3), (0, 2, 3), (0, 3, 7)])
    rng = np.random.default_rng(7)
    draws = [seed_time_tsine1(tn, 0, rng) for _ in range(30000)]
    freq3 = draws.count(3) / len(draws)
    assert abs(freq3 - 2 / 3) < 4 * np.sqrt((2 / 3) * (1 / 3) / 30000)
    draws = [seed_time_tsine1(tn, 0, rng, distinct_times=True) for _ in range(30000)]
    freq3 = draws.count(3) / len(draws)
    assert abs(freq3 - 0.5) < 4 * np.sqrt(0.25 / 30000)


def test_tsine1_single_contact_and_isolated():
    tn = TemporalNetwork.from_contacts([(0, 1, 5)], n_nodes=3)
    rng = np.random.default_rng(8)
    assert all(seed_time_tsine1(tn, 0, rng) == 5 for _ in range(10))
    with pytest.raises(ValueError):
        seed_time_tsine1(tn, 2, rng)


def test_tsine2_first_contact():
    tn = TemporalNetwork.from_contacts([(0, 1, 9), (0, 2, 2), (0, 3, 4)])
    assert seed_time_tsine2(tn, 0) == 2
    single = TemporalNetwork.from_contacts([(0, 1, 0)])
    assert seed_time_tsine2(single, 0) == 0
    # node appearing only as the second endpoint still has the contact
    second = TemporalNetwork.from_contacts([(5, 4, 7)], n_nodes=6)
    assert seed_time_tsine2(second, 4) == 7
    with pytest.raises(ValueError):
        seed_time_tsine2(TemporalNetwork.from_contacts([(0, 1, 1)], n_nodes=3), 2)


def test_path_quota_star_and_regular():
    star = StaticNetwork(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert path_quota(star, 0, 16) == 8
    assert path_quota(star, 1, 16) == 2
    cycle = StaticNetwork(6, [(i, (i + 1) % 6) for i in range(6)])
    for i in range(6):
        assert path_quota(cycle, i, 60) == 10
        assert path_quota(cycle, i, 1) == 1
    edgeless = StaticNetwork(4, [])
    assert path_quota(edgeless, 0, 100) == 1
    # ties round up: degree share 1/2 of scale 3 -> 1.5 -> 2
    pair = StaticNetwork(2, [(0, 1)])
    assert path_quota(pair, 0, 3) == 2


def test_extract_paths_singleton_and_truncation():
    rng = np.random.default_rng(9)
    single = TrajectoryTree(7, {}, [7])
    assert extract_paths(single, 3, 20, rng) == [[7], [7], [7]]
    chain_parent = {i: (i - 1, i) for i in range(1, 25)}
    chain = TrajectoryTree(0, chain_parent, list(range(25)))
    for path in extract_paths(chain, 5, 20, rng):
        assert path == list(range(20))


def test_extract_paths_leaf_uniformity():
    # balanced binary tree of depth 3: nodes 0..14, leaves 7..14
    parent = {i: ((i - 1) // 2, (i - 1).bit_length()) for i in range(1, 15)}
    tree = TrajectoryTree(0, parent, list(range(15)))
    assert sorted(tree.leaves()) == list(range(7, 15))
    rng = np.random.default_rng(10)
    n_draws = 10000
    counts = Counter()
    for path in extract_paths(tree, n_draws, 20, rng):
        counts[path[-1]] += 1
    stat = chi2_stat([counts[leaf] for leaf in range(7, 15)], [n_draws / 8] * 8)
    assert stat < CHI2_99[7]


def test_sample_corpus_budget_bound():
    g = er_graph(100, 0.08, seed=12)
    cfg = SpreadConfig(beta=0.4, budget_multiplier=1, max_path_len=20, rng_seed=13)
    corpus = sample_corpus(g, cfg, "sine")
    assert 100 <= corpus.total_length < 120
    assert corpus.total_length == sum(len(p) for p in corpus.paths)


def test_sample_corpus_beta_one_spans_connected_graph():
    g = complete_graph(8)
    cfg = SpreadConfig(beta=1.0, budget_multiplier=3, rng_seed=14)
    rng = np.random.default_rng(14)
    for _ in range(20):
        tree = si_spread_static(g, int(rng.integers(8)), 1.0, rng)
        assert len(tree.infected_set) == 8
    corpus = sample_corpus(g, cfg, "sine")
    assert corpus.total_length >= 24


def test_sample_corpus_deterministic():
    g = er_graph(40, 0.12, seed=15)
    cfg = SpreadConfig(beta=0.3, budget_multiplier=2, rng_seed=99)
    a = sample_corpus(g, cfg, "sine")
    b = sample_corpus(g, cfg, "sine")
    assert a.paths == b.paths and a.total_length == b.total_length


def test_sample_corpus_paths_start_at_seed_and_follow_edges():
    g = er_graph(40, 0.12, seed=16)
    corpus = sample_corpus(g, SpreadConfig(beta=0.3, budget_multiplier=3,
                                           rng_seed=17), "sine")
    for path in corpus.paths:
        for a, b in zip(path, path[1:]):
            assert g.has_edge(a, b)


def test_sample_corpus_tsine_modes_time_respecting():
    tn = random_temporal(30, 400, 60, seed=18)
    g = aggregate(tn)
    for mode in ("tsine1", "tsine2"):
        corpus = sample_corpus(tn, SpreadConfig(beta=0.6, budget_multiplier=2,
                                                rng_seed=19), mode)
        assert 60 <= corpus.total_length < 80
        for path in corpus.paths:
            for a, b in zip(path, path[1:]):
                assert g.has_edge(a, b)


def test_sample_corpus_isolated_seed_emits_singleton():
    tn = TemporalNetwork.from_contacts([(0, 1, 1), (1, 2, 2)], n_nodes=4)
    corpus = sample_corpus(tn, SpreadConfig(beta=1.0, budget_multiplier=5,
                                            rng_seed=20), "tsine2")
    assert any(path == [3] for path in corpus.paths)


def test_save_corpus_formats(tmp_path):
    from spreademb import TrajectoryCorpus, save_corpus
    corpus = TrajectoryCorpus([[0, 1, 2], [2, 0]], 5, 3)
    plain = tmp_path / "corpus.txt"
    save_corpus(corpus, plain)
    assert plain.read_text().splitlines() == ["0 1 2", "2 0"]
    labeled = tmp_path / "labeled.txt"
    save_corpus(corpus, labeled, labels=("a", "b", "c"))
    assert labeled.read_text().splitlines() == ["a b c", "c a"]


def test_spread_config_validation():
    with pytest.raises(ValueError):
        SpreadConfig(beta=0.0)
    with pytest.raises(ValueError):
        SpreadConfig(beta=1.2)
    with pytest.raises(ValueError):
        SpreadConfig(beta=0.5, budget_multiplier=0)
    with pytest.raises(ValueError):
        SpreadConfig(beta=0.5, max_path_len=1)


def test_trajectory_tree_invariants_temporal():
    tn = random_temporal(25, 300, 40, seed=21)
    rng = np.random.default_rng(22)
    contact_set = {(min(a, b), max(a, b), t) for a, b, t in tn.contacts}
    for _ in range(25):
        seed = int(rng.integers(25))
        times = tn.contact_times(seed)
        if len(times) == 0:
            continue
        t0 = seed_time_tsine2(tn, seed)
        tree = si_spread_temporal(tn, seed, t0, 0.7, rng)
        infected_at = {seed: t0 - 1}
        for child, (parent, t) in tree.parent.items():
            assert (min(parent, child), max(parent, child), t) in contact_set
            infected_at[child] = t
        for child, (parent, t) in tree.parent.items():
            assert infected_at[parent] < t  # strictly earlier infector
