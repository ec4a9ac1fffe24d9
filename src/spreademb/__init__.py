"""Network embeddings from spreading-process trajectories.

The pipeline: sample trajectory paths on a static or temporal network
(SI spreading or random walks), turn them into center/context node pairs,
train Skip-Gram embeddings with negative sampling, and evaluate missing-link
prediction against path-count baselines.
"""

from .corpus import TrajectoryCorpus, save_corpus
from .errors import (EmptyNetworkError, InsufficientNegativesError,
                     KernelBuildError, ParseError, TrainingDiverged)
from .evaluation import (EvalSplit, ExperimentResult, ScoreReport, auc,
                         dot_product_histogram, make_split, pcc_dot_vs_lpath,
                         pearson, run_experiment, sampled_network, score_dot,
                         score_lpath)
from .graphs import (EdgeListFormat, NetworkStats, StaticNetwork,
                     TemporalNetwork, aggregate, count_l_paths, load_temporal,
                     stats)
from .pairs import PairStream, generate_pairs, write_pairs_tsv
from .skipgram import (EmbeddingMatrix, TrainConfig, objective,
                       objective_gradient, save_embeddings, softmax_prob, train)
from .spreading import (SpreadConfig, TrajectoryTree, extract_paths, path_quota,
                        sample_corpus, seed_time_tsine1, seed_time_tsine2,
                        si_spread_static, si_spread_temporal)
from .walks import (WalkConfig, ctdne_corpus, deepwalk_corpus, node2vec_corpus,
                    temporal_walk)

__all__ = [
    "EdgeListFormat", "EmbeddingMatrix", "EmptyNetworkError", "EvalSplit",
    "ExperimentResult", "InsufficientNegativesError", "KernelBuildError",
    "NetworkStats",
    "PairStream", "ParseError", "ScoreReport", "SpreadConfig", "StaticNetwork",
    "TemporalNetwork", "TrainConfig", "TrainingDiverged", "TrajectoryCorpus",
    "TrajectoryTree", "WalkConfig", "aggregate", "auc", "count_l_paths",
    "ctdne_corpus", "deepwalk_corpus", "dot_product_histogram", "extract_paths",
    "generate_pairs", "load_temporal", "make_split", "node2vec_corpus",
    "objective", "objective_gradient", "path_quota", "pcc_dot_vs_lpath",
    "pearson", "run_experiment", "sample_corpus", "sampled_network",
    "save_corpus", "save_embeddings", "score_dot", "score_lpath",
    "seed_time_tsine1", "seed_time_tsine2", "si_spread_static",
    "si_spread_temporal", "softmax_prob", "stats", "temporal_walk", "train",
    "write_pairs_tsv",
]
