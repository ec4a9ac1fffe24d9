"""The benchmark workloads.

A workload generates its input in ``setup`` (timed, repeated by the runner),
does one round of work in ``run``, timing each of its steps with the
runner's ``timer``, and validates a round's outputs in ``check``, outside
the timed region.  ``realizations`` is the number of scored link-prediction
realizations per round, ``unscored`` names the steps whose output no scored
realization uses, and ``expected_calls`` how many times each traced
function must be called per round; the traced run fails when a span count
differs.  Every workload calls spreademb only through module attributes
looked up at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import inputs
from layers import SPREAD_MODES, WALKS


@dataclass
class Outcome:
    """What one round produced.

    ``data`` is kept only for ``check``.  ``aucs`` and ``facts`` (digests of
    outputs) must repeat exactly in every round; the runner prints them so
    that runs of one seed can be compared too.
    """

    aucs: list[float]
    data: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def sub_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def steps_on_edges(paths, keys: np.ndarray, n: int) -> bool:
    """Every consecutive node pair of every path is an edge with these keys."""
    steps = [(p[k], p[k + 1]) for p in paths for k in range(len(p) - 1)]
    if not steps:
        return True
    a, b = np.asarray(steps, dtype=np.int64).T
    return bool(np.isin(np.minimum(a, b) * n + np.maximum(a, b), keys).all())


def digest(values) -> str:
    return hashlib.sha256(repr(values).encode("ascii")).hexdigest()


def auc_checks(aucs) -> list[tuple[str, bool, str]]:
    return [(f"auc[{i}] in [0, 1]", 0.0 <= a <= 1.0, repr(a)) for i, a in enumerate(aucs)]


class Workload:
    name = ""
    unscored: tuple[str, ...] = ()

    def __init__(self, se, seed: int, workdir: str):
        self.se = se
        self.seed = seed
        self.workdir = workdir
        self.contacts: inputs.Contacts | None = None
        self.input_sha256 = ""
        self.shape: dict = {}

    @property
    def n_contacts(self) -> int:
        return len(self.contacts.times)

    def input_info(self) -> dict:
        self.shape = self.contacts.shape()
        return {**self.shape, "sha256": self.input_sha256}

    def _split(self, tn, index=0):
        return self.se.make_split(tn, self.se.evaluation.split_seed_for(self.seed, index))


C7_PROFILE = {"negatives": 1, "lr_initial": 0.025, "lr_final": 0.025}
C7_ARMS = (
    ("sine", {**C7_PROFILE, "beta": 0.1, "x": 10, "epochs": 8}),
    ("deepwalk", {**C7_PROFILE, "x": 10, "epochs": 2}),
    ("sine", {**C7_PROFILE, "beta": 0.1, "x": 1, "epochs": 30}),
    ("sine", {**C7_PROFILE, "beta": 0.1, "x": 100, "epochs": 2}),
    ("sine", {"beta": 0.1, "x": 10}),   # stock k=5, decaying learning rate
    ("l3", {}),
)


class C7Protocol(Workload):
    name = "c7-protocol"
    n_nodes = 150
    n_splits = 1   # C7 uses 5 splits x 10 runs; one of each keeps this part near 7 s
    n_runs = 1

    def setup(self) -> None:
        self.contacts = c = inputs.planted_partition(self.seed, n=self.n_nodes)
        self.tn = self.se.TemporalNetwork(c.n_nodes, c.src, c.dst, c.times)

    def input_info(self) -> dict:
        self.input_sha256 = self.contacts.sha256()
        return super().input_info()

    def run(self, timer) -> Outcome:
        with timer("make_split"):
            splits = [self._split(self.tn, s) for s in range(self.n_splits)]
        results = []
        for i, (alg, params) in enumerate(C7_ARMS):
            with timer(f"arm{i}.{alg}"):
                results.append(self.se.evaluation.run_experiment(
                    self.tn, alg, params, n_runs=self.n_runs, master_seed=self.seed,
                    splits=splits))
        return Outcome([r.auc for res in results for r in res.reports], {"results": results})

    def realizations(self) -> int:
        return len(C7_ARMS) * self.n_splits * self.n_runs

    def expected_calls(self) -> dict[str, int]:
        per_arm = self.n_splits * self.n_runs
        embedding = [alg for alg, _ in C7_ARMS if alg != "l3"]
        return {
            "evaluation.make_split": self.n_splits,
            "graphs.aggregate": self.n_splits,
            "evaluation.run_experiment": len(C7_ARMS),
            "spreading.sample_corpus": embedding.count("sine") * per_arm,
            "walks.deepwalk_corpus": embedding.count("deepwalk") * per_arm,
            "pairs.generate_pairs": len(embedding) * per_arm,
            "pairs.to_array": len(embedding) * per_arm,
            "skipgram.train": len(embedding) * per_arm,
            "evaluation.score_dot": len(embedding) * per_arm,
            "evaluation.score_lpath": (len(C7_ARMS) - len(embedding)) * per_arm,
            "evaluation.auc": self.realizations(),
        }

    def check(self, out: Outcome) -> list[tuple[str, bool, str]]:
        per_arm = self.n_splits * self.n_runs
        return auc_checks(out.aucs) + [
            (f"arm {i} has {per_arm} realizations", len(res.reports) == per_arm,
             str(len(res.reports)))
            for i, res in enumerate(out.data["results"])]


class FileWorkload(Workload):
    """Workloads whose input is an edge-list file loaded by the program."""

    n_nodes = 0
    n_total_contacts = 0

    @property
    def path(self) -> str:
        return os.path.join(self.workdir, f"{self.name}.txt")

    def setup(self) -> None:
        self.contacts = inputs.heavy_tailed(self.seed, self.n_nodes, self.n_total_contacts)
        self.input_sha256 = self.contacts.write_edge_list(self.path)


class CliGrid(FileWorkload):
    name = "cli-grid"
    n_nodes = 1000
    n_total_contacts = 50_000
    betas = ("0.1", "0.5")
    n_splits = 1
    n_runs = 1

    def run(self, timer) -> Outcome:
        out_dir = os.path.join(self.workdir, "cli-out")
        argv = ["run", "--dataset", self.path, "--algorithm", "sine", "--beta", *self.betas,
                "--x", "1", "--splits", str(self.n_splits), "--runs", str(self.n_runs),
                "--workers", "1", "--seed", str(self.seed), "--out", out_dir]
        with timer("cli.main"):
            status = self.se.cli.main(argv)
        with open(os.path.join(out_dir, "results.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        return Outcome([float(r.rsplit(",", 1)[1]) for r in rows],
                       {"status": status, "manifest": manifest, "rows": rows},
                       {"results_rows_sha256": digest(rows)})

    def realizations(self) -> int:
        return len(self.betas) * self.n_splits * self.n_runs

    def expected_calls(self) -> dict[str, int]:
        rows = self.realizations()
        return {   # the best grid point's artifacts re-train realization 0
            "cli.run_spec": 1,
            "graphs.load_temporal": 1,
            "evaluation.make_split": len(self.betas) * self.n_splits + 1,
            "graphs.aggregate": len(self.betas) * self.n_splits + 1,
            "spreading.sample_corpus": rows + 1,
            "pairs.generate_pairs": rows + 1,
            "pairs.to_array": rows + 2,   # sampled_network reads the cached pairs
            "skipgram.train": rows + 1,
            "evaluation.score_dot": rows + 1,   # dot-product histogram
            "evaluation.auc": rows,
            "skipgram.save_embeddings": 1,
        }

    def check(self, out: Outcome) -> list[tuple[str, bool, str]]:
        status = out.data["manifest"]["status"]
        n_rows = len(out.data["rows"])
        return [("cli exits 0", out.data["status"] == 0, str(out.data["status"])),
                ("manifest status complete", status == "complete", str(status)),
                (f"{self.realizations()} result rows", n_rows == self.realizations(),
                 str(n_rows))] + auc_checks(out.aucs)


class Corpus1k(FileWorkload):
    name = "corpus-1k"
    n_nodes = 1000
    n_total_contacts = 50_000
    spread_x = 2
    walk_x = 20
    l_max = 20
    window = 10
    unscored = (*SPREAD_MODES, *WALKS, "pairs")

    def run(self, timer) -> Outcome:
        se = self.se
        with timer("load_temporal"):
            tn = se.load_temporal(self.path)
        with timer("make_split"):
            split = self._split(tn)
        g, ttn = split.train_static, split.train_temporal
        corpora = {}
        for i, mode in enumerate(SPREAD_MODES):
            cfg = se.SpreadConfig(beta=0.1, budget_multiplier=self.spread_x,
                                  max_path_len=self.l_max, rng_seed=sub_seed(self.seed, 3, i))
            with timer(mode):
                corpora[mode] = se.sample_corpus(g if mode == "sine" else ttn, cfg, mode)
        walks = (("deepwalk", se.deepwalk_corpus, g), ("node2vec", se.node2vec_corpus, g),
                 ("ctdne", se.ctdne_corpus, ttn))
        for i, (name, sampler, net) in enumerate(walks):
            cfg = se.WalkConfig(walk_length=self.l_max, budget_multiplier=self.walk_x,
                                rng_seed=sub_seed(self.seed, 4, i))
            with timer(name):
                corpora[name] = sampler(net, cfg)
        with timer("pairs"):
            n_pairs = {name: len(se.generate_pairs(c, self.window).to_array())
                       for name, c in corpora.items()}
        with timer("l3"):
            scores = se.score_lpath(g, split.pairs, 3)
            aucs = [se.auc(scores, split.labels)]
        return Outcome(aucs, {"tn": tn, "split": split, "corpora": corpora},
                       {**{f"{name}_sha256": digest(c.paths) for name, c in corpora.items()},
                        "pairs": n_pairs})

    def realizations(self) -> int:
        return 1

    def expected_calls(self) -> dict[str, int]:
        return {
            "graphs.load_temporal": 1,
            "evaluation.make_split": 1,
            "graphs.aggregate": 3,   # the split, plus one per tsine corpus
            "spreading.sample_corpus": 3,
            "walks.deepwalk_corpus": 1,
            "walks.node2vec_corpus": 1,
            "walks.ctdne_corpus": 1,
            "pairs.generate_pairs": 6,
            "pairs.to_array": 6,
            "evaluation.score_lpath": 1,
            "evaluation.auc": 1,
        }

    def check(self, out: Outcome) -> list[tuple[str, bool, str]]:
        n = out.data["tn"].n_nodes
        train = out.data["split"].train_static
        keys = train.edges[:, 0] * n + train.edges[:, 1]
        checks = []
        for name, corpus in out.data["corpora"].items():
            budget = n * (self.spread_x if name in SPREAD_MODES else self.walk_x)
            total = corpus.total_length
            checks.append((f"{name}: B <= total < B + l_max",
                           budget <= total < budget + self.l_max, f"B={budget} total={total}"))
            checks.append((f"{name}: paths step along training edges",
                           steps_on_edges(corpus.paths, keys, n), ""))
        return checks + auc_checks(out.aucs)


class Ingest200k(FileWorkload):
    name = "ingest-200k"
    n_nodes = 4000
    n_total_contacts = 200_000
    n_sampled_pairs = 200
    unscored = ("aggregate", "stats")

    def run(self, timer) -> Outcome:
        se = self.se
        with timer("load_temporal"):
            tn = se.load_temporal(self.path)
        with timer("aggregate"):
            g = se.aggregate(tn)
        with timer("stats"):
            st = se.stats(tn, g)
        with timer("make_split"):
            split = self._split(tn)
        with timer("l2"):
            scores = se.score_lpath(split.train_static, split.pairs, 2)
            aucs = [se.auc(scores, split.labels)]
        return Outcome(aucs, {"g": g, "stats": st, "split": split, "scores": scores},
                       {"split_sha256": digest(split.pairs.tolist())})

    def realizations(self) -> int:
        return 1

    def expected_calls(self) -> dict[str, int]:
        return {
            "graphs.load_temporal": 1,
            "graphs.aggregate": 2,   # explicit, plus the split's training network
            "graphs.stats": 1,
            "evaluation.make_split": 1,
            "evaluation.score_lpath": 1,
            "evaluation.auc": 1,
        }

    def check(self, out: Outcome) -> list[tuple[str, bool, str]]:
        st, g, split, scores = (out.data[k] for k in ("stats", "g", "split", "scores"))
        checks = [(f"stats.{key} matches the generator", getattr(st, key) == self.shape[key],
                   f"{getattr(st, key)} vs {self.shape[key]}")
                  for key in ("n_nodes", "n_contacts", "n_edges", "n_timestamps")]
        max_degree = int(g.degree.max())
        checks.append(("max degree matches the generator", max_degree == self.shape["max_degree"],
                       f"{max_degree} vs {self.shape['max_degree']}"))
        rng = np.random.default_rng(sub_seed(self.seed, 5))
        train = split.train_static
        sample = rng.choice(len(split.pairs), size=self.n_sampled_pairs, replace=False)
        common = [len(set(train.neighbors(i).tolist()) & set(train.neighbors(j).tolist()))
                  for i, j in split.pairs[sample].tolist()]
        checks.append((f"l2 scores equal common-neighbor counts on {self.n_sampled_pairs} pairs",
                       common == scores[sample].tolist(), ""))
        return checks + auc_checks(out.aucs)


class Combined:
    """A workload made of parts that run one after another in each round.

    Each part keeps its own input, steps, checks and expected calls; step
    names, output digests and input descriptions are prefixed with the
    part's name.  ``contacts_part`` is the part that ingests a generated
    file end to end; ``contacts_per_s`` counts its contacts and steps.
    """

    name = ""
    parts: tuple[type, ...] = ()
    contacts_part: type = FileWorkload

    def __init__(self, se, seed: int, workdir: str):
        self.members = [part(se, seed, workdir) for part in self.parts]

    def setup(self) -> None:
        for m in self.members:
            m.setup()

    def input_info(self) -> dict:
        return {m.name: m.input_info() for m in self.members}

    def realizations(self) -> int:
        return sum(m.realizations() for m in self.members)

    def unscored_steps(self) -> set[str]:
        return {f"{m.name}.{step}" for m in self.members for step in m.unscored}

    def ingest(self) -> tuple[int, str]:
        """Contacts of ``contacts_part`` and the prefix of its step names."""
        part = next(m for m in self.members if isinstance(m, self.contacts_part))
        return part.n_contacts, f"{part.name}."

    def expected_calls(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for m in self.members:
            for span, count in m.expected_calls().items():
                total[span] = total.get(span, 0) + count
        return total

    def run(self, timer) -> Outcome:
        outcomes = []
        for m in self.members:
            @contextmanager
            def prefixed(step, prefix=m.name):
                with timer(f"{prefix}.{step}"):
                    yield
            outcomes.append(m.run(prefixed))
        return Outcome([a for o in outcomes for a in o.aucs],
                       {m.name: o for m, o in zip(self.members, outcomes)},
                       {f"{m.name}.{k}": v for m, o in zip(self.members, outcomes)
                        for k, v in o.facts.items()})

    def check(self, out: Outcome) -> list[tuple[str, bool, str]]:
        return [(f"{m.name}: {name}", ok, detail) for m in self.members
                for name, ok, detail in m.check(out.data[m.name])]


class Train(Combined):
    name = "train"
    parts = (C7Protocol, CliGrid)
    contacts_part = CliGrid


class SampleLoad(Combined):
    name = "sample-load"
    parts = (Corpus1k, Ingest200k)
    contacts_part = Ingest200k


WORKLOADS = {w.name: w for w in (Train, SampleLoad)}
