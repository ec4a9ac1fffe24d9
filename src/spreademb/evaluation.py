"""Missing-link-prediction evaluation: splits, scoring, AUC, diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientNegativesError
from .graphs import (StaticNetwork, TemporalNetwork, aggregate, edge_keys, key_pairs,
                     keys_in, unique_keys, walk_counts)
from .pairs import PairStream, generate_pairs
from .skipgram import EmbeddingMatrix, TrainConfig, train
from .spreading import SPREAD_MODES, SpreadConfig, sample_corpus
from .walks import WalkConfig, ctdne_corpus, deepwalk_corpus, node2vec_corpus

EMBEDDING_ALGORITHMS = ("sine", "tsine1", "tsine2", "deepwalk", "node2vec", "ctdne")
LPATH_ALGORITHMS = {"l2": 2, "l3": 3, "l4": 4}
ALGORITHMS = EMBEDDING_ALGORITHMS + tuple(LPATH_ALGORITHMS)

# Resolved per-realization hyperparameters and their defaults.
DEFAULT_PARAMS = {
    "beta": 0.1,
    "x": 10,
    "p": 1.0,
    "q": 1.0,
    "omega": 10,
    "dim": 128,
    "m_max": None,
    "l_max": 20,
    "negatives": 5,
    "lr_initial": 0.025,
    "lr_final": 1e-4,
    "epochs": 5,
}


@dataclass(frozen=True)
class EvalSplit:
    """One randomized train/test split of a temporal network.

    75% of the contacted node pairs (with all their contacts) form the
    training network; the rest are positive test pairs.  An equal number of
    pairs with no contact anywhere in the full network are the negatives.
    The training node set keeps every node of the full network, isolated or
    not, so ids line up.
    """

    train_temporal: TemporalNetwork
    train_static: StaticNetwork
    pairs: np.ndarray    # (m, 2) test pairs, positives first
    labels: np.ndarray   # (m,) in {0, 1}
    split_seed: int


@dataclass
class ScoreReport:
    """Scores and AUC of a single realization."""

    auc: float
    scores: np.ndarray
    labels: np.ndarray
    algorithm: str
    params: dict
    split_index: int
    run_index: int
    split_seed: int
    run_seed: int


@dataclass
class ExperimentResult:
    """Aggregation over all splits x runs of one configuration."""

    algorithm: str
    params: dict
    n_splits: int
    n_runs: int
    reports: list[ScoreReport] = field(default_factory=list)

    @property
    def aucs(self) -> np.ndarray:
        return np.asarray([r.auc for r in self.reports])

    @property
    def mean_auc(self) -> float:
        return float(self.aucs.mean())

    @property
    def std_auc(self) -> float:
        return float(self.aucs.std())


def _seed64(key: tuple[int, ...]) -> int:
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def split_seed_for(master_seed: int, split_index: int) -> int:
    """Counter-based split seed; independent of algorithm and grid point."""
    return _seed64((master_seed, 0, split_index))


def run_seed_for(master_seed: int, split_index: int, run_index: int) -> int:
    return _seed64((master_seed, 1, split_index, run_index))


def contacted_pairs(tn: TemporalNetwork) -> np.ndarray:
    """Unique unordered node pairs with at least one contact, as (lo, hi)."""
    return key_pairs(unique_keys(edge_keys(tn.n_nodes, tn.src, tn.dst)), tn.n_nodes)


def make_split(tn: TemporalNetwork, split_seed: int) -> EvalSplit:
    """Randomized 75/25 split of the contacted node pairs.

    floor(0.75 * P) pairs keep all their contacts as the training network;
    the remaining pairs are the positives.  Negatives are sampled uniformly,
    without replacement, from the pairs with no contact in the full network.
    """
    n = tn.n_nodes
    keys, pair_of_contact = np.unique(edge_keys(n, tn.src, tn.dst), return_inverse=True)
    n_pairs = len(keys)
    if n_pairs < 2:
        raise ValueError("need at least 2 contacted node pairs to split")
    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(n_pairs)
    n_train = int(0.75 * n_pairs)
    positives = keys[perm[n_train:]]
    n_pos = len(positives)

    in_train = np.zeros(n_pairs, dtype=bool)
    in_train[perm[:n_train]] = True
    mask = in_train[pair_of_contact]
    train_temporal = TemporalNetwork(n, tn.src[mask], tn.dst[mask], tn.times[mask],
                                     labels=tn.labels)

    available = n * (n - 1) // 2 - n_pairs
    if available < n_pos:
        raise InsufficientNegativesError(
            f"{n_pos} negatives requested but only {available} uncontacted pairs exist")
    if available <= 4 * n_pos:
        # dense case: enumerate every uncontacted pair and subsample
        lo, hi = np.triu_indices(n, k=1)
        cand = edge_keys(n, lo, hi)
        cand = cand[~keys_in(cand, keys)]
        negatives = cand[rng.choice(len(cand), size=n_pos, replace=False)]
    else:
        negatives = _draw_uncontacted(rng, n, keys, n_pos)

    test_pairs = key_pairs(np.concatenate([positives, negatives]), n)
    labels = np.concatenate([np.ones(n_pos, np.int64), np.zeros(n_pos, np.int64)])
    return EvalSplit(train_temporal, aggregate(train_temporal), test_pairs, labels,
                     int(split_seed))


def _draw_uncontacted(rng: np.random.Generator, n: int, contacted: np.ndarray,
                      count: int) -> np.ndarray:
    """Keys of ``count`` distinct uncontacted pairs, by rejection sampling.

    Batches of uniform node pairs are scanned in draw order; a draw is kept
    unless it is a self-pair, contacted, or already kept.
    """
    kept = np.empty(0, dtype=np.int64)
    while len(kept) < count:
        draws = rng.integers(0, n, size=(2 * (count - len(kept)) + 8, 2))
        new = edge_keys(n, draws[:, 0], draws[:, 1])
        new = new[(draws[:, 0] != draws[:, 1]) & ~keys_in(new, contacted)]
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)]
        new = new[~keys_in(new, np.sort(kept))]
        kept = np.concatenate([kept, new[:count - len(kept)]])
    return kept


def score_dot(em: EmbeddingMatrix, pairs: np.ndarray) -> np.ndarray:
    """Dot product of the two end nodes' embedding vectors, per pair."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    left = em._u[pairs[:, 0]]
    right = em._u[pairs[:, 1]]
    return np.einsum("ij,ij->i", left, right)


def _dense_walk_matrix(g: StaticNetwork, l: int) -> np.ndarray:
    # float64 matmul is exact here: entries stay far below 2**53
    a = np.zeros((g.n_nodes, g.n_nodes))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a[g.edges[:, 1], g.edges[:, 0]] = 1.0
    a2 = a @ a
    if l == 2:
        return a2
    if l == 3:
        return a2 @ a
    return a2 @ a2


def score_lpath(g: StaticNetwork, pairs: np.ndarray, l: int) -> np.ndarray:
    """Number of l-link walks between the endpoints, on the training network.

    Batches with many distinct sources on networks that fit in memory use
    dense matrix powers; all others count walks pair by pair.
    """
    if l not in (2, 3, 4):
        raise ValueError(f"l must be one of 2, 3, 4; got {l}")
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if g.n_nodes <= 2048 and len(unique_keys(pairs[:, 0])) * l * g.n_nodes > 2e5:
        power = _dense_walk_matrix(g, l)
        return power[pairs[:, 0], pairs[:, 1]].astype(np.int64)
    return walk_counts(g, pairs, l)


def auc(scores, labels) -> float:
    """Exact Mann-Whitney AUC: the probability that a random positive
    outranks a random negative, ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: both labels must be present")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    csum = np.cumsum(counts)
    avg_rank = csum - (counts - 1) / 2.0  # 1-based average rank per distinct score
    ranks = avg_rank[inverse]
    u_stat = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need two samples of equal length >= 2")
    xc = x - x.mean()
    yc = y - y.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx == 0.0 or vy == 0.0:
        raise ValueError("PCC undefined: zero variance")
    return float((xc @ yc) / np.sqrt(vx * vy))


def pcc_dot_vs_lpath(em: EmbeddingMatrix, g_train: StaticNetwork,
                     positive_pairs: np.ndarray, l: int) -> float:
    """Correlation between dot-product scores and l-walk counts over the
    positive test pairs."""
    x = score_dot(em, positive_pairs)
    y = score_lpath(g_train, positive_pairs, l).astype(np.float64)
    return pearson(x, y)


def dot_product_histogram(em: EmbeddingMatrix, pairs: np.ndarray, labels,
                          n_bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dot-product score histograms of positive and negative pairs over a
    shared set of bin edges; returns (pos_counts, neg_counts, edges)."""
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    labels = np.asarray(labels)
    scores = score_dot(em, pairs)
    edges = np.histogram_bin_edges(scores, bins=n_bins)
    pos_counts, _ = np.histogram(scores[labels == 1], bins=edges)
    neg_counts, _ = np.histogram(scores[labels == 0], bins=edges)
    return pos_counts, neg_counts, edges


def sampled_network(pairs: PairStream) -> StaticNetwork:
    """The unweighted graph G_S whose edges are the sampled node pairs and
    whose node set is the nodes that occur in the corpus."""
    arr = pairs.to_array()
    return StaticNetwork.from_keys(pairs.n_nodes, edge_keys(pairs.n_nodes, arr[:, 0], arr[:, 1]),
                                   members=np.nonzero(pairs.counts)[0])


def resolve_params(params: dict | None) -> dict:
    merged = dict(DEFAULT_PARAMS)
    if params:
        unknown = set(params) - set(DEFAULT_PARAMS)
        if unknown:
            raise ValueError(f"unknown hyperparameters: {sorted(unknown)}")
        merged.update(params)
    return merged


def corpus_for(algorithm: str, split: EvalSplit, params: dict, rng_seed: int):
    """Sample a trajectory corpus on the training network of a split."""
    if algorithm in SPREAD_MODES:
        cfg = SpreadConfig(beta=params["beta"], budget_multiplier=params["x"],
                           quota_scale=params["m_max"], max_path_len=params["l_max"],
                           rng_seed=rng_seed)
        net = split.train_static if algorithm == "sine" else split.train_temporal
        return sample_corpus(net, cfg, algorithm)
    cfg = WalkConfig(walk_length=params["l_max"], budget_multiplier=params["x"],
                     p=params["p"], q=params["q"], rng_seed=rng_seed)
    if algorithm == "deepwalk":
        return deepwalk_corpus(split.train_static, cfg)
    if algorithm == "node2vec":
        return node2vec_corpus(split.train_static, cfg)
    if algorithm == "ctdne":
        return ctdne_corpus(split.train_temporal, cfg)
    raise ValueError(f"unknown sampler {algorithm!r}")


def embed_split(algorithm: str, split: EvalSplit, params: dict,
                run_seed: int) -> tuple[EmbeddingMatrix, PairStream]:
    """One sampling + training realization on a split's training network."""
    sampler_ss, train_ss = np.random.SeedSequence(run_seed).spawn(2)
    corpus = corpus_for(algorithm, split, params,
                        int(sampler_ss.generate_state(1, np.uint64)[0]))
    stream = generate_pairs(corpus, params["omega"])
    cfg = TrainConfig(dim=params["dim"], negatives=params["negatives"],
                      lr_initial=params["lr_initial"], lr_final=params["lr_final"],
                      epochs=params["epochs"],
                      rng_seed=int(train_ss.generate_state(1, np.uint64)[0]))
    return train(stream, cfg), stream


def realization_scores(split: EvalSplit, algorithm, params: dict,
                       run_seed: int) -> np.ndarray:
    """Test-pair scores of one realization.

    `algorithm` is an algorithm name, or a callable (split, rng) -> scores
    for custom scorers.
    """
    if callable(algorithm):
        return np.asarray(algorithm(split, np.random.default_rng(run_seed)),
                          dtype=np.float64)
    if algorithm in LPATH_ALGORITHMS:
        return score_lpath(split.train_static, split.pairs,
                           LPATH_ALGORITHMS[algorithm]).astype(np.float64)
    if algorithm in EMBEDDING_ALGORITHMS:
        em, _ = embed_split(algorithm, split, params, run_seed)
        return score_dot(em, split.pairs)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_experiment(tn: TemporalNetwork, algorithm, params: dict | None = None,
                   n_splits: int = 5, n_runs: int = 10, master_seed: int = 0,
                   splits: list[EvalSplit] | None = None) -> ExperimentResult:
    """n_splits x n_runs realizations of one algorithm configuration.

    Split seeds and run seeds are derived from master_seed by a counter
    scheme, so each realization is independently reproducible and splits are
    shared across algorithms and grid points for the same master seed.
    """
    params = resolve_params(params)
    if splits is None:
        splits = [make_split(tn, split_seed_for(master_seed, s)) for s in range(n_splits)]
    name = algorithm if isinstance(algorithm, str) else getattr(algorithm, "__name__", "custom")
    result = ExperimentResult(name, params, len(splits), n_runs)
    for s, split in enumerate(splits):
        for r in range(n_runs):
            rs = run_seed_for(master_seed, s, r)
            scores = realization_scores(split, algorithm, params, rs)
            result.reports.append(ScoreReport(
                auc=auc(scores, split.labels), scores=scores, labels=split.labels,
                algorithm=name, params=params, split_index=s, run_index=r,
                split_seed=split.split_seed, run_seed=rs))
    return result
