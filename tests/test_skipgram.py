import shutil
import subprocess
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import CHI2_99, chi2_stat, reference_train
from spreademb import (EmbeddingMatrix, KernelBuildError, StaticNetwork,
                       TrainConfig, TrainingDiverged, TrajectoryCorpus,
                       WalkConfig, deepwalk_corpus, generate_pairs, objective,
                       objective_gradient, save_embeddings, softmax_prob, train)
from spreademb.skipgram import _sgns_epoch, noise_cdf, pair_gradients, pair_loss


def embedding(u):
    return EmbeddingMatrix(np.asarray(u, dtype=float))


def stream_of(paths, n_nodes, window=2):
    corpus = TrajectoryCorpus(paths, sum(len(p) for p in paths), n_nodes)
    return generate_pairs(corpus, window)


def test_softmax_uniform_for_zero_vectors():
    em = embedding(np.zeros((6, 2)))
    for j in range(6):
        assert softmax_prob(em, 0, j) == pytest.approx(1 / 6, abs=1e-12)


def test_softmax_rows_normalize():
    rng = np.random.default_rng(0)
    em = embedding(rng.normal(size=(7, 3)))
    for i in range(7):
        total = sum(softmax_prob(em, i, j) for j in range(7))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_softmax_against_arbitrary_precision():
    u = np.array([[0.3, -0.1], [0.2, 0.4], [-0.5, 0.1]])
    em = embedding(u)
    getcontext().prec = 50
    dots = [Decimal(str(float(u[0] @ u[k]))) for k in range(3)]
    exps = [d.exp() for d in dots]
    want = exps[1] / sum(exps)
    assert abs(softmax_prob(em, 0, 1) - float(want)) < 1e-12


def test_objective_zero_vectors_is_minus_p_log_n():
    em = embedding(np.zeros((6, 2)))
    pairs = np.array([[0, 1], [1, 2], [2, 3], [3, 4]])
    assert objective(em, pairs) == pytest.approx(-4 * np.log(6), abs=1e-9)


def test_objective_grouped_form_matches_per_pair_sum():
    rng = np.random.default_rng(1)
    em = embedding(rng.normal(scale=0.5, size=(8, 3)))
    pairs = rng.integers(0, 8, size=(40, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    per_pair = sum(np.log(softmax_prob(em, int(i), int(j))) for i, j in pairs)
    assert objective(em, pairs) == pytest.approx(per_pair, abs=1e-9)


def test_objective_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    n, d = 10, 4
    u = rng.normal(scale=0.3, size=(n, d))
    pairs = rng.integers(0, n, size=(60, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    grad = objective_gradient(embedding(u), pairs)
    h = 1e-5
    for i in range(n):
        for k in range(d):
            up = u.copy(); up[i, k] += h
            dn = u.copy(); dn[i, k] -= h
            fd = (objective(embedding(up), pairs) - objective(embedding(dn), pairs)) / (2 * h)
            denom = max(abs(fd), abs(grad[i, k]), 1e-8)
            assert abs(grad[i, k] - fd) / denom < 1e-4


def test_pair_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    u = rng.normal(scale=0.5, size=5)
    ctx = rng.normal(scale=0.5, size=(4, 5))
    gu, gctx = pair_gradients(u, ctx)
    h = 1e-6
    for k in range(5):
        up = u.copy(); up[k] += h
        dn = u.copy(); dn[k] -= h
        fd = (pair_loss(up, ctx) - pair_loss(dn, ctx)) / (2 * h)
        assert abs(gu[k] - fd) / max(abs(fd), 1e-8) < 1e-4
    for r in range(4):
        for k in range(5):
            up = ctx.copy(); up[r, k] += h
            dn = ctx.copy(); dn[r, k] -= h
            fd = (pair_loss(u, up) - pair_loss(u, dn)) / (2 * h)
            assert abs(gctx[r, k] - fd) / max(abs(fd), 1e-8) < 1e-4


def test_exact_gradient_ascent_is_monotone():
    rng = np.random.default_rng(4)
    n, d = 12, 3
    u = rng.normal(scale=0.2, size=(n, d))
    pairs = rng.integers(0, n, size=(50, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    prev = objective(embedding(u), pairs)
    for _ in range(100):
        u = u + 1e-3 * objective_gradient(embedding(u), pairs)
        cur = objective(embedding(u), pairs)
        assert cur >= prev - 1e-12
        prev = cur


def test_train_single_repeated_pair_separates():
    stream = stream_of([[0, 1]] * 400, 5, window=1)
    em = train(stream, TrainConfig(dim=2, negatives=1, epochs=10, rng_seed=5))
    v = em._v
    assert float(em.vector(0) @ v[1]) > 2.0  # sigmoid(.) > 0.88 and growing


def test_train_two_cliques_intra_beats_inter():
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(i + 6, j + 6) for i, j in edges]
    g = StaticNetwork(12, edges)
    wins = 0
    for seed in range(10):
        corpus = deepwalk_corpus(g, WalkConfig(walk_length=10, budget_multiplier=40,
                                               rng_seed=seed))
        em = train(generate_pairs(corpus, 5), TrainConfig(dim=4, rng_seed=seed))
        intra, inter = [], []
        for i in range(12):
            for j in range(i + 1, 12):
                (intra if (i < 6) == (j < 6) else inter).append(em.dot(i, j))
        wins += np.mean(intra) > np.mean(inter)
    assert wins == 10


def test_train_deterministic_bit_identical():
    stream = stream_of([[0, 1, 2, 3], [3, 2, 0]], 6, window=2)
    cfg = TrainConfig(dim=3, epochs=3, rng_seed=6)
    a = train(stream, cfg)
    b = train(stream, cfg)
    assert np.array_equal(a._u, b._u) and np.array_equal(a._v, b._v)


def test_train_unseen_nodes_get_zero_vector():
    stream = stream_of([[0, 1], [1, 2]], 6, window=1)
    em = train(stream, TrainConfig(dim=2, rng_seed=7))
    assert np.all(em.vector(3) == 0.0)
    assert np.all(em.vector(4) == 0.0)
    assert np.all(em.vector(5) == 0.0)
    assert np.any(em.vector(0) != 0.0)


def test_train_empty_stream_rejected():
    with pytest.raises(ValueError):
        train(stream_of([[3]], 5, window=1), TrainConfig(dim=2))


def test_overparameterized_dim_warns():
    stream = stream_of([[0, 1, 2]], 3, window=1)
    with pytest.warns(UserWarning) as record:
        train(stream, TrainConfig(dim=8, epochs=1, rng_seed=8))
    assert [str(w.message) for w in record] == [
        "embedding dim 8 >= node count 3: overparameterized"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_divergence():
    stream = stream_of([[0, 1, 2, 3, 4]] * 100, 6, window=2)
    cfg = TrainConfig(dim=2, lr_initial=1e154, lr_final=1e154, epochs=30, rng_seed=9)
    with pytest.raises(TrainingDiverged):
        train(stream, cfg)


@st.composite
def small_streams(draw):
    """Pair streams on 3-6 nodes, some of them unseen, with repeated pairs."""
    n_nodes = draw(st.integers(3, 6))
    n_seen = draw(st.integers(2, n_nodes))
    node = st.integers(0, n_seen - 1)
    paths = draw(st.lists(st.lists(node, min_size=2, max_size=6), min_size=1, max_size=8))
    stream = stream_of(paths, n_nodes, window=draw(st.integers(1, 3)))
    assume(len(stream.to_array()))  # a pair (i, j) has i != j, so j's noise can avoid j
    return stream


@pytest.mark.filterwarnings("ignore:embedding dim")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_streams(), st.sampled_from([1, 5]), st.sampled_from([1, 2, 128]),
       st.integers(1, 4), st.sampled_from([0.025, 0.2]), st.integers(0, 2**32 - 1))
def test_train_matches_reference_loop(stream, k, dim, epochs, lr0, seed):
    cfg = TrainConfig(dim=dim, negatives=k, lr_initial=lr0, lr_final=lr0 / 100,
                      epochs=epochs, rng_seed=seed)
    got, want = train(stream, cfg), reference_train(stream, cfg)
    assert np.abs(got._u - want._u).max() <= 1e-12
    assert np.abs(got._v - want._v).max() <= 1e-12
    assert np.array_equal(got._u[stream.counts == 0], want._u[stream.counts == 0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_names_same_update_as_reference_loop():
    stream = stream_of([[0, 1, 2, 3, 4]] * 700, 6, window=2)  # 9800 pairs per epoch
    cfg = TrainConfig(dim=2, lr_initial=1e154, lr_final=1e154, epochs=2, rng_seed=9)
    with pytest.raises(TrainingDiverged) as got:
        train(stream, cfg)
    with pytest.raises(TrainingDiverged) as want:
        reference_train(stream, cfg)
    assert "near update 8191;" in str(got.value)
    assert str(got.value) == str(want.value)


def test_kernel_step_is_lr_times_pair_gradients():
    rng = np.random.default_rng(11)
    n, d, lr, i = 7, 5, 0.03, 2
    rows = np.array([[4, 1, 2, 1, 1]])  # context 4; noise 1 drawn three times, and i itself
    u = rng.normal(scale=0.5, size=(n, d))
    v = rng.normal(scale=0.5, size=(n, d))
    u1, v1 = u.copy(), v.copy()
    bad = _sgns_epoch()(u1, v1, d, np.array([i]), rows, 1, rows.shape[1],
                        np.array([lr]), 1, np.empty(rows.shape[1] + d))
    assert bad == -1
    gu, gctx = pair_gradients(u[i], v[rows[0]])
    dv = np.zeros_like(v)
    np.add.at(dv, rows[0], lr * gctx)
    np.testing.assert_allclose(u1[i] - u[i], lr * gu, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v1 - v, dv, rtol=0, atol=1e-15)
    assert np.array_equal(np.delete(u1, i, axis=0), np.delete(u, i, axis=0))


def test_missing_compiler_is_named(cold_kernel_cache, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda cmd: None)
    with pytest.raises(KernelBuildError, match="C compiler 'cc' not found"):
        train(stream_of([[0, 1, 2]], 4, window=1), TrainConfig(dim=2))


def test_cold_cache_builds_once(cold_kernel_cache, monkeypatch):
    builds = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        builds.append(args)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    stream = stream_of([[0, 1, 2, 3]], 5, window=2)
    cfg = TrainConfig(dim=2, rng_seed=12)
    first = train(stream, cfg)
    _sgns_epoch.cache_clear()  # as a new process would: load from the cache
    second = train(stream, cfg)
    assert len(builds) == 1
    assert [p.suffix for p in cold_kernel_cache.iterdir()] == [".so"]  # no temp files
    assert np.array_equal(first._u, second._u)


def test_train_rejects_out_of_range_node_ids():
    stream = stream_of([[0, -1, 1]], 3, window=1)  # -1 would index outside U in the kernel
    with pytest.raises(ValueError, match="node ids"):
        train(stream, TrainConfig(dim=2))


def test_noise_distribution_is_three_quarter_power():
    counts = np.array([120, 40, 90, 10, 300, 5, 60, 80, 150, 20, 45, 200])
    cdf = noise_cdf(counts)
    rng = np.random.default_rng(10)
    draws = np.searchsorted(cdf, rng.random(100000))
    observed = np.bincount(draws, minlength=12)
    weights = counts.astype(float) ** 0.75
    expected = weights / weights.sum() * 100000
    assert chi2_stat(observed, expected) < CHI2_99[11]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(dim=0)
    with pytest.raises(ValueError):
        TrainConfig(negatives=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=0.001, lr_final=0.01)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_embedding_matrix_contract():
    with pytest.raises(ValueError):
        embedding(np.array([[np.nan, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    em = embedding(np.arange(12, dtype=float).reshape(4, 3))
    assert em.U.shape == (3, 4)
    assert em.dot(0, 1) == pytest.approx(float(np.arange(3) @ np.arange(3, 6)))


def test_save_embeddings_word2vec_text(tmp_path):
    em = EmbeddingMatrix(np.array([[0.5, -1.0], [0.25, 2.0], [0.0, 1.0]]))
    out = tmp_path / "emb.txt"
    save_embeddings(out, em, labels=("a", "b", "c"))
    lines = out.read_text().splitlines()
    assert lines[0] == "3 2"
    assert lines[1].split() == ["a", "0.5", "-1.0"]
    parsed = np.array([[float(x) for x in line.split()[1:]] for line in lines[1:]])
    assert np.array_equal(parsed, em._u)
