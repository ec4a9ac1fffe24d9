"""The layers the traced run measures and the per-layer metrics it derives.

Each spreademb module is one layer.  ``targets`` lists the public functions
wrapped at the layer boundaries; ``per_layer_metrics`` turns the recorded
spans into the metrics named in BENCHMARK.json.  Function timings ending in
``_s`` are inclusive call durations, except ``skipgram.train_s``, which is
train's self time: ``PairStream.to_array`` runs lazily inside ``train`` and
belongs to the ``pairs`` layer.
"""

from __future__ import annotations

import os
import weakref
from collections import defaultdict

from spans import Span, layer_summary, self_times

LAYERS = ("graphs", "spreading", "walks", "pairs", "skipgram", "evaluation", "cli")
SPREAD_MODES = ("sine", "tsine1", "tsine2")
WALKS = ("deepwalk", "node2vec", "ctdne")

# Span names whose count depends on the sampled data, not on the workload
# definition; every other traced function has an expected count.
DATA_DEPENDENT = ("spreading.si_spread_static", "spreading.si_spread_temporal")

PER_LAYER_UNITS = {
    **{f"{layer}.{key}": unit for layer in LAYERS
       for key, unit in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"))},
    "skipgram.train_s": "s",
    "skipgram.pair_updates": "count",
    "skipgram.us_per_update.k1": "us",
    "skipgram.us_per_update.k5": "us",
    "skipgram.save_embeddings_s": "s",
    **{f"spreading.tokens_per_s.{m}": "1/s" for m in SPREAD_MODES},
    "spreading.spreads": "count",
    "spreading.tree_size_mean": "nodes",
    "spreading.tokens_per_spread": "tokens",
    **{f"walks.tokens_per_s.{w}": "1/s" for w in WALKS},
    "pairs.pairs": "count",
    "pairs.pairs_per_token": "ratio",
    "pairs.pairs_per_s": "1/s",
    "graphs.load_s": "s",
    "graphs.load_contacts_per_s": "1/s",
    "graphs.aggregate_s": "s",
    "graphs.aggregate_calls": "count",
    "graphs.stats_s": "s",
    "evaluation.make_split_s": "s",
    "evaluation.make_split_calls": "count",
    "evaluation.score_lpath_s": "s",
    "evaluation.score_dot_s": "s",
    "evaluation.auc_s": "s",
    "cli.run_spec_s": "s",
    "cli.split_reuse_ratio": "ratio",
    "cli.train_useful_ratio": "ratio",
    "tokens_per_s": "1/s",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tokens(args, kwargs, corpus):
    return {"tokens": corpus.total_length}


def targets(se) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, layer, describe) for every traced function."""
    seen_streams = weakref.WeakSet()

    def pairs_info(args, kwargs, arr):
        stream = args[0]
        first = stream not in seen_streams
        seen_streams.add(stream)
        return {"pairs": len(arr), "first": first}

    def train_info(args, kwargs, em):
        stream, cfg = _arg(args, kwargs, 0, "pairs"), _arg(args, kwargs, 1, "cfg")
        return {"k": cfg.negatives, "updates": len(stream.to_array()) * cfg.epochs}

    def run_spec_info(args, kwargs, status):
        with open(os.path.join(args[0].out, "results.csv"), encoding="utf-8") as fh:
            return {"rows": sum(1 for _ in fh) - 1}

    return [
        (se.graphs, "load_temporal", "graphs",
         lambda a, k, tn: {"contacts": tn.n_contacts}),
        (se.graphs, "aggregate", "graphs", None),
        (se.graphs, "stats", "graphs", None),
        (se.spreading, "sample_corpus", "spreading",
         lambda a, k, c: {"mode": _arg(a, k, 2, "mode"), "tokens": c.total_length}),
        (se.spreading, "si_spread_static", "spreading",
         lambda a, k, tree: {"tree_size": len(tree)}),
        (se.spreading, "si_spread_temporal", "spreading",
         lambda a, k, tree: {"tree_size": len(tree)}),
        (se.walks, "deepwalk_corpus", "walks", _tokens),
        (se.walks, "node2vec_corpus", "walks", _tokens),
        (se.walks, "ctdne_corpus", "walks", _tokens),
        (se.pairs, "generate_pairs", "pairs", None),
        (se.pairs.PairStream, "to_array", "pairs", pairs_info),
        (se.skipgram, "train", "skipgram", train_info),
        (se.skipgram, "save_embeddings", "skipgram", None),
        (se.evaluation, "run_experiment", "evaluation", None),
        (se.evaluation, "make_split", "evaluation",
         lambda a, k, split: {"split_seed": split.split_seed}),
        (se.evaluation, "score_dot", "evaluation", None),
        (se.evaluation, "score_lpath", "evaluation", None),
        (se.evaluation, "auc", "evaluation", None),
        (se.cli, "run_spec", "cli", run_spec_info),
    ]


def traced_names(se) -> list[str]:
    return [f"{layer}.{attr}" for _, attr, layer, _ in targets(se)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[Span], n_rounds: int) -> dict[str, float]:
    """Per-round layer metrics; a layer that never ran reports 0."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    by_id = {s.id: s for s in spans}

    def total(name, key=None, cond=lambda s: True):
        return sum((s.info[key] if key else s.duration) for s in by_name[name] if cond(s))

    def cli_call(s):
        """Id of the cli.run_spec span that s runs under, or None."""
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "cli.run_spec":
                return s.id
        return None

    per = 1.0 / n_rounds
    out = {}
    for layer, row in layer_summary(spans, LAYERS).items():
        out[f"{layer}.busy_s"] = row["busy_s"] * per
        out[f"{layer}.self_s"] = row["self_s"] * per
        out[f"{layer}.calls"] = row["calls"] * per

    trains = by_name["skipgram.train"]
    out["skipgram.train_s"] = sum(own[s.id] for s in trains) * per
    out["skipgram.pair_updates"] = sum(s.info["updates"] for s in trains) * per
    for k in (1, 5):
        group = [s for s in trains if s.info["k"] == k]
        out[f"skipgram.us_per_update.k{k}"] = 1e6 * _ratio(
            sum(own[s.id] for s in group), sum(s.info["updates"] for s in group))
    out["skipgram.save_embeddings_s"] = total("skipgram.save_embeddings") * per

    spreads = by_name["spreading.si_spread_static"] + by_name["spreading.si_spread_temporal"]
    spread_tokens = total("spreading.sample_corpus", "tokens")
    for mode in SPREAD_MODES:
        is_mode = lambda s, m=mode: s.info["mode"] == m  # noqa: E731
        out[f"spreading.tokens_per_s.{mode}"] = _ratio(
            total("spreading.sample_corpus", "tokens", is_mode),
            total("spreading.sample_corpus", cond=is_mode))
    out["spreading.spreads"] = len(spreads) * per
    out["spreading.tree_size_mean"] = _ratio(sum(s.info["tree_size"] for s in spreads),
                                             len(spreads))
    out["spreading.tokens_per_spread"] = _ratio(spread_tokens, len(spreads))

    walk_tokens = 0
    walk_time = 0.0
    for walk in WALKS:
        tokens = total(f"walks.{walk}_corpus", "tokens")
        elapsed = total(f"walks.{walk}_corpus")
        out[f"walks.tokens_per_s.{walk}"] = _ratio(tokens, elapsed)
        walk_tokens += tokens
        walk_time += elapsed
    all_tokens = spread_tokens + walk_tokens
    out["tokens_per_s"] = _ratio(all_tokens, total("spreading.sample_corpus") + walk_time)

    n_pairs = total("pairs.to_array", "pairs", lambda s: s.info["first"])
    out["pairs.pairs"] = n_pairs * per
    out["pairs.pairs_per_token"] = _ratio(n_pairs, all_tokens)
    out["pairs.pairs_per_s"] = _ratio(
        n_pairs, total("pairs.generate_pairs") + total("pairs.to_array"))

    out["graphs.load_s"] = total("graphs.load_temporal") * per
    out["graphs.load_contacts_per_s"] = _ratio(total("graphs.load_temporal", "contacts"),
                                               total("graphs.load_temporal"))
    out["graphs.aggregate_s"] = total("graphs.aggregate") * per
    out["graphs.aggregate_calls"] = len(by_name["graphs.aggregate"]) * per
    out["graphs.stats_s"] = total("graphs.stats") * per

    out["evaluation.make_split_s"] = total("evaluation.make_split") * per
    out["evaluation.make_split_calls"] = len(by_name["evaluation.make_split"]) * per
    for fn in ("score_lpath", "score_dot", "auc"):
        out[f"evaluation.{fn}_s"] = total(f"evaluation.{fn}") * per

    cli_splits = [(cli_call(s), s.info["split_seed"]) for s in by_name["evaluation.make_split"]
                  if cli_call(s) is not None]
    cli_trains = [s for s in trains if cli_call(s) is not None]
    out["cli.run_spec_s"] = total("cli.run_spec") * per
    out["cli.split_reuse_ratio"] = _ratio(len(set(cli_splits)), len(cli_splits))
    out["cli.train_useful_ratio"] = _ratio(total("cli.run_spec", "rows"), len(cli_trains))
    return out
