"""SI spreading on static and temporal networks, and trajectory-path sampling.

An SI process starts from a single infected seed; infected nodes attempt to
infect susceptible neighbors with probability beta per opportunity.  The
recorded who-infected-whom tree is sampled into root-to-leaf paths until a
total-length budget is met.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .corpus import TrajectoryCorpus
from .graphs import StaticNetwork, TemporalNetwork, aggregate

MAX_SPREAD_STEPS = 100_000

SPREAD_MODES = ("sine", "tsine1", "tsine2")


def _check_beta(beta: float) -> None:
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")


@dataclass(frozen=True)
class SpreadConfig:
    beta: float
    budget_multiplier: int = 10      # X in B = N * X
    quota_scale: int | None = None   # default 10 * n_nodes at sampling time
    max_path_len: int = 20
    rng_seed: int = 0
    tsine1_distinct_times: bool = False

    def __post_init__(self):
        _check_beta(self.beta)
        if self.budget_multiplier < 1:
            raise ValueError("budget_multiplier must be >= 1")
        if self.max_path_len < 2:
            raise ValueError("max_path_len must be >= 2")
        if self.quota_scale is not None and self.quota_scale < 1:
            raise ValueError("quota_scale must be >= 1")


class TrajectoryTree:
    """Infection tree of one spreading run.

    ``parent`` maps every non-root infected node to (infector, time); the
    infector was infected strictly earlier.  ``order`` lists infected nodes
    in order of infection, root first.
    """

    __slots__ = ("root", "parent", "order")

    def __init__(self, root: int, parent: dict[int, tuple[int, int]], order: list[int]):
        self.root = root
        self.parent = parent
        self.order = order

    def __len__(self) -> int:
        return len(self.order)

    @property
    def infected_set(self) -> set[int]:
        return set(self.order)

    def leaves(self) -> list[int]:
        """Infected nodes that infected nobody, in infection order."""
        if not self.parent:
            return [self.root]
        inner = {p for p, _ in self.parent.values()}
        return [v for v in self.order if v not in inner]


def _hit_table(g: StaticNetwork, beta: float) -> np.ndarray:
    """Entry k: the chance 1-(1-beta)^k that a susceptible node with k
    infected neighbours is infected in one step."""
    return 1.0 - (1.0 - beta) ** np.arange(int(g.degree.max()) + 1, dtype=np.float64)


def _tree(size: int, order: np.ndarray, up: np.ndarray, time: np.ndarray) -> TrajectoryTree:
    """The TrajectoryTree of a kernel tree: node order[k] was infected at
    time[k] by node order[up[k]]."""
    if size < 0:
        raise MemoryError("no memory for the spreading kernel's scratch")
    order, up, time = order[:size].tolist(), up[:size].tolist(), time[:size].tolist()
    parent = {order[k]: (order[up[k]], time[k]) for k in range(1, size)}
    return TrajectoryTree(order[0], parent, order)


def si_spread_static(g: StaticNetwork, seed: int, beta: float,
                     rng: np.random.Generator,
                     max_steps: int = MAX_SPREAD_STEPS) -> TrajectoryTree:
    """Synchronous SI spreading from `seed`, run until the susceptible
    frontier empties (or max_steps as a safety valve).

    Each step, every infected-susceptible adjacency transmits independently
    with probability beta.  A node with k infected neighbors is therefore
    infected with probability 1-(1-beta)^k, and by exchangeability of the
    per-edge trials its parent is uniform over those k neighbors.  Runs in
    the compiled kernel, drawing from `rng`.
    """
    _check_beta(beta)
    if not 0 <= seed < g.n_nodes:
        raise ValueError("seed outside [0, n_nodes)")
    bufs = np.empty((3, g.n_nodes), dtype=np.int64)   # order, up, time
    size = kernels.call_with(rng, kernels.library().si_tree_static, g.n_nodes, *g.csr,
                             _hit_table(g, beta), seed, max_steps, *bufs)
    return _tree(size, *bufs)


def si_spread_temporal(tn: TemporalNetwork, seed: int, t_start: int, beta: float,
                       rng: np.random.Generator) -> TrajectoryTree:
    """SI spreading along time-stamped contacts, stopping at the horizon T.

    The seed is infected at t_start and may transmit from t_start onwards.
    Contacts sharing a timestamp are processed as one batch against the
    pre-batch infected set, so a node infected at time t never transmits
    through another contact at the same t.  When several same-batch contacts
    infect one node, its parent is uniform over the successful infectors.
    Runs in the compiled kernel, drawing from `rng`.
    """
    _check_beta(beta)
    if not 0 <= seed < tn.n_nodes:
        raise ValueError("seed outside [0, n_nodes)")
    if not 0 <= t_start <= tn.horizon:
        raise ValueError(f"t_start {t_start} outside [0, {tn.horizon}]")
    bufs = np.empty((3, tn.n_nodes), dtype=np.int64)   # order, up, time
    size = kernels.call_with(rng, kernels.library().si_tree_temporal, tn.n_nodes, tn.times,
                             tn.src, tn.dst, tn.n_contacts, seed, t_start, beta, *bufs)
    return _tree(size, *bufs)


def seed_time_tsine1(tn: TemporalNetwork, i: int, rng: np.random.Generator,
                     distinct_times: bool = False) -> int:
    """Start time drawn uniformly from node i's contact times.

    By default the draw is over the multiset of contact times (a time with
    two contacts is twice as likely); ``distinct_times`` switches to the set
    of distinct times.
    """
    times = tn.contact_times(i)
    if len(times) == 0:
        raise ValueError(f"node {i} has no contacts")
    if distinct_times:
        times = np.unique(times)
    return int(times[int(rng.integers(len(times)))])


def seed_time_tsine2(tn: TemporalNetwork, i: int) -> int:
    """Start time of node i's first contact (deterministic)."""
    times = tn.contact_times(i)
    if len(times) == 0:
        raise ValueError(f"node {i} has no contacts")
    return int(times[0])


def path_quotas(g: StaticNetwork, quota_scale: int) -> np.ndarray:
    """Per-seed path counts of every node: max(1, round(degree share *
    quota_scale)).

    Rounding is nearest-integer with ties up, so the quotas sum to roughly
    quota_scale.  An edgeless graph degenerates to a quota of 1.
    """
    if quota_scale < 1:
        raise ValueError("quota_scale must be >= 1")
    total = int(g.degree.sum())
    if total == 0:
        return np.ones(g.n_nodes, dtype=np.int64)
    share = np.floor(g.degree.astype(np.float64) * quota_scale / total + 0.5)
    return np.maximum(share.astype(np.int64), 1)


def path_quota(g: StaticNetwork, i: int, quota_scale: int) -> int:
    """Node i's entry of path_quotas."""
    return int(path_quotas(g, quota_scale)[i])


def _paths(n_paths: int, tokens: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """The kernel's flat output as lists: path p is tokens[offsets[p]:offsets[p + 1]]."""
    flat = tokens[:offsets[n_paths]].tolist()
    bounds = offsets[:n_paths + 1].tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def extract_paths(tree: TrajectoryTree, n_paths: int, max_path_len: int,
                  rng: np.random.Generator) -> list[list[int]]:
    """n_paths root-to-leaf paths, leaves drawn uniformly with replacement;
    paths longer than max_path_len keep only their first max_path_len nodes.
    Runs in the compiled kernel, drawing from `rng`.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if max_path_len < 1:
        raise ValueError("max_path_len must be >= 1")
    if not tree.order or tree.order[0] != tree.root:
        raise ValueError("tree.order must start with the root")
    position = {v: k for k, v in enumerate(tree.order)}
    order = np.asarray(tree.order, dtype=np.int64)
    up = np.asarray([-1] + [position[tree.parent[v][0]] for v in tree.order[1:]],
                    dtype=np.int64)
    # the kernel walks up from a leaf and relies on reaching the root within len(order) steps
    if np.any(up[1:] >= np.arange(1, len(up))):
        raise ValueError("every infector must precede its child in tree.order")
    tokens = np.empty(n_paths * min(max_path_len, len(order)), dtype=np.int64)
    offsets = np.empty(n_paths + 1, dtype=np.int64)
    if kernels.call_with(rng, kernels.library().si_tree_paths, order, up, len(order),
                         n_paths, max_path_len, tokens, offsets) < 0:
        raise MemoryError("no memory for the path kernel's scratch")
    return _paths(n_paths, tokens, offsets)


def sample_corpus(net, cfg: SpreadConfig, mode: str) -> TrajectoryCorpus:
    """Run seeded spreading processes until the corpus reaches B = N * X nodes.

    ``mode`` selects the process: "sine" runs on a StaticNetwork; "tsine1"
    and "tsine2" run on a TemporalNetwork with the respective start-time
    protocol.  Path quotas always use degrees of the static aggregation.
    Emission stops at the first path that crosses the budget.  The whole
    corpus is one call of the compiled kernel.
    """
    if mode not in SPREAD_MODES:
        raise ValueError(f"mode must be one of {SPREAD_MODES}")
    if mode == "sine":
        if not isinstance(net, StaticNetwork):
            raise TypeError("sine mode requires a StaticNetwork")
        g, tn = net, None
    else:
        if not isinstance(net, TemporalNetwork):
            raise TypeError(f"{mode} mode requires a TemporalNetwork")
        tn = net
        g = aggregate(tn)
    n = g.n_nodes
    quota_scale = cfg.quota_scale if cfg.quota_scale is not None else 10 * n
    budget = n * cfg.budget_multiplier
    quotas = path_quotas(g, quota_scale)
    rng = np.random.default_rng(cfg.rng_seed)
    # a path has 1 to max_path_len tokens and emission stops at the first path
    # that reaches the budget, so total < budget + max_path_len and paths <= budget
    tokens = np.empty(budget + cfg.max_path_len - 1, dtype=np.int64)
    offsets = np.empty(budget + 1, dtype=np.int64)
    lib = kernels.library()
    if mode == "sine":
        n_paths = kernels.call_with(rng, lib.si_corpus_static, n, *g.csr,
                                    _hit_table(g, cfg.beta), MAX_SPREAD_STEPS, quotas, budget,
                                    cfg.max_path_len, tokens, offsets)
    else:
        # the kernel's start times: 0 the first contact's, 1 uniform over the
        # contacts', 2 uniform over the distinct contact times
        start = 0 if mode == "tsine2" else 2 if cfg.tsine1_distinct_times else 1
        bounds, times, _ = tn.contact_lists()
        n_paths = kernels.call_with(rng, lib.si_corpus_temporal, n, tn.times, tn.src, tn.dst,
                                    tn.n_contacts, bounds, times, start, cfg.beta,
                                    quotas, budget, cfg.max_path_len, tokens, offsets)
    if n_paths < 0:
        raise MemoryError("no memory for the spreading kernel's scratch")
    return TrajectoryCorpus(_paths(n_paths, tokens, offsets), int(offsets[n_paths]), n)
