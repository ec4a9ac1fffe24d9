import io

import numpy as np
import pytest

from helpers import dense_adjacency, eager_contact_lists, er_graph
from spreademb import (EdgeListFormat, EmptyNetworkError, ParseError,
                       StaticNetwork, TemporalNetwork, aggregate,
                       count_l_paths, load_temporal, make_split, score_lpath,
                       stats)
from spreademb.graphs import walk_counts_from


def test_load_hand_trace():
    tn = load_temporal(io.StringIO("a b 2\nb c 1\na b 2\n"))
    assert tn.n_nodes == 3
    assert tn.labels == ("a", "b", "c")
    assert list(tn.contacts) == [(1, 2, 1), (0, 1, 2), (0, 1, 2)]
    assert tn.label_to_id == {"a": 0, "b": 1, "c": 2}
    assert tn.horizon == 2
    assert tn.n_timestamps == 2


def test_load_self_loop_only_is_empty():
    with pytest.raises(EmptyNetworkError):
        load_temporal(io.StringIO("5 5 3\n"))


def test_load_drops_self_loops_keeps_rest():
    tn = load_temporal(io.StringIO("1 1 0\n1 2 4\n"))
    assert tn.n_nodes == 2
    assert list(tn.contacts) == [(0, 1, 4)]


def test_load_malformed_line_reports_number():
    with pytest.raises(ParseError) as exc:
        load_temporal(io.StringIO("a b 2\na b xx\n"))
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)
    with pytest.raises(ParseError):
        load_temporal(io.StringIO("only_one_token\n"))


def test_load_comments_commas_and_float_times():
    tn = load_temporal(io.StringIO("# header\n% other\n1,2,3\n2 3 4.0\n"))
    assert tn.n_nodes == 3
    assert list(tn.contacts) == [(0, 1, 3), (1, 2, 4)]
    with pytest.raises(ParseError):
        load_temporal(io.StringIO("1 2 3.5\n"))


def test_load_two_column_static_defaults_time_zero():
    tn = load_temporal(io.StringIO("1 2\n2 3\n"))
    assert all(t == 0 for _, _, t in tn.contacts)


def test_load_negative_time_rejected():
    with pytest.raises(ParseError):
        load_temporal(io.StringIO("1 2 -3\n"))


def test_load_empty_and_comment_only():
    with pytest.raises(EmptyNetworkError):
        load_temporal(io.StringIO(""))
    with pytest.raises(EmptyNetworkError):
        load_temporal(io.StringIO("# nothing\n"))


def test_load_alternate_layouts():
    tij = load_temporal(io.StringIO("7 a b\n2 b c\n"), EdgeListFormat(columns="tij"))
    assert list(tij.contacts) == [(1, 2, 2), (0, 1, 7)]
    ijwt = load_temporal(io.StringIO("a b 3.5 7\n"), EdgeListFormat(columns="ijwt"))
    assert list(ijwt.contacts) == [(0, 1, 7)]
    with pytest.raises(ValueError):
        EdgeListFormat(columns="jit")


def test_aggregate_dedups_contacts():
    tn = TemporalNetwork.from_contacts([(0, 1, 1), (0, 1, 5), (1, 2, 3)])
    g = aggregate(tn)
    assert sorted(map(tuple, g.edges)) == [(0, 1), (1, 2)]
    assert g.degree.tolist() == [1, 2, 1]


def test_aggregate_zero_contacts():
    g = aggregate(TemporalNetwork.from_contacts([], n_nodes=4))
    assert g.n_edges == 0
    assert g.n_nodes == 4


def test_degree_sequence_invariant_under_contact_shuffle():
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(120):
        i, j = rng.integers(0, 15, 2)
        if i != j:
            lines.append(f"n{i} n{j} {rng.integers(0, 40)}")
    a = load_temporal(io.StringIO("\n".join(lines)))
    shuffled = list(lines)
    rng.shuffle(shuffled)
    b = load_temporal(io.StringIO("\n".join(shuffled)))
    ga, gb = aggregate(a), aggregate(b)
    deg_a = {a.labels[i]: int(ga.degree[i]) for i in range(a.n_nodes)}
    deg_b = {b.labels[i]: int(gb.degree[i]) for i in range(b.n_nodes)}
    assert deg_a == deg_b


def test_stats_triangle_and_path():
    tri = TemporalNetwork.from_contacts([(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    s = stats(tri, aggregate(tri))
    assert s.clustering_coefficient == 1.0
    assert s.link_density == 1.0

    path = TemporalNetwork.from_contacts([(0, 1, 0), (1, 2, 1)])
    s = stats(path, aggregate(path))
    assert s.clustering_coefficient == 0.0
    assert s.avg_degree == pytest.approx(4 / 3)
    assert s.n_edges == 2
    assert s.n_timestamps == 2


def test_stats_requires_two_nodes():
    tn = TemporalNetwork.from_contacts([], n_nodes=1)
    with pytest.raises(ValueError):
        stats(tn, aggregate(tn))


def test_stats_csv_row_shape():
    tri = TemporalNetwork.from_contacts([(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    row = stats(tri, aggregate(tri)).csv_row("tri")
    assert row.split(",")[0] == "tri"
    assert len(row.split(",")) == 8


def test_count_l_paths_triangle_and_star():
    tri = StaticNetwork(3, [(0, 1), (1, 2), (0, 2)])
    assert count_l_paths(tri, 0, 1, 2) == 1
    star = StaticNetwork(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert count_l_paths(star, 1, 2, 2) == 1
    assert count_l_paths(star, 1, 2, 3) == 0


def test_count_l_paths_matches_dense_matrix_power():
    g = er_graph(20, 0.3, seed=11)
    a = dense_adjacency(g)
    for l in (2, 3, 4):
        power = np.linalg.matrix_power(a, l)
        for i in range(g.n_nodes):
            counts = walk_counts_from(g, i, l)
            for j in range(g.n_nodes):
                if i != j:
                    assert counts[j] == power[i, j]


def test_count_l_paths_domain_errors():
    tri = StaticNetwork(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        count_l_paths(tri, 0, 1, 5)
    with pytest.raises(ValueError):
        count_l_paths(tri, 1, 1, 2)


def test_l2_equals_common_neighbor_count():
    g = er_graph(25, 0.25, seed=5)
    for i in range(g.n_nodes):
        for j in range(i + 1, g.n_nodes):
            cn = len(np.intersect1d(g.neighbors(i), g.neighbors(j),
                                    assume_unique=True))
            assert count_l_paths(g, i, j, 2) == cn
            assert count_l_paths(g, j, i, 2) == cn  # symmetric


def test_static_network_rejects_bad_edges():
    with pytest.raises(ValueError):
        StaticNetwork(3, [(0, 0)])
    with pytest.raises(ValueError):
        StaticNetwork(3, [(0, 5)])
    g = StaticNetwork(4, [(0, 1), (1, 0), (1, 2)])  # duplicates collapse
    assert g.n_edges == 2
    assert 2 * g.n_edges == int(g.degree.sum())


def test_temporal_network_validation():
    with pytest.raises(ValueError):
        TemporalNetwork(2, [0], [0], [1])  # self loop
    with pytest.raises(ValueError):
        TemporalNetwork(2, [0], [1], [-1])  # negative time
    with pytest.raises(ValueError):
        TemporalNetwork(2, [0, 0], [1, 1], [5, 3])  # unsorted


def test_contact_index_bidirectional():
    tn = TemporalNetwork.from_contacts([(5, 4, 7), (0, 4, 2)], n_nodes=6)
    times, partners = tn.contact_index(4)
    assert times.tolist() == [2, 7]
    assert partners.tolist() == [0, 5]


def test_contact_lists_are_built_on_first_use():
    text = "".join(f"{i % 40} {(i * 7 + 3) % 40} {i % 9}\n" for i in range(120)
                   if i % 40 != (i * 7 + 3) % 40)
    tn = load_temporal(io.StringIO(text))
    split = make_split(tn, 5)
    aggregate(tn)
    score_lpath(split.train_static, split.pairs, 2)
    assert tn._contacts is None and split.train_temporal._contacts is None
    times, partners = tn.contact_index(3)
    lists = tn.contact_lists()
    assert tn.contact_lists() is lists   # built once
    for got, want in zip(lists, eager_contact_lists(tn)):
        assert np.array_equal(got, want)
    lo, hi = lists[0][3], lists[0][4]
    assert np.array_equal(times, lists[1][lo:hi]) and np.array_equal(partners, lists[2][lo:hi])
