"""Skip-Gram embedding training with negative sampling.

The trainer maximizes, per observed pair (i, j),

    log sigmoid(u_i . v_j) + sum_n log sigmoid(-u_i . v_n)

over k noise nodes n drawn from the corpus unigram distribution raised to
the 3/4 power, via stochastic gradient ascent with a linearly decaying
learning rate.  Only the input vectors U are kept for scoring.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import KernelBuildError, TrainingDiverged
from .pairs import PairStream

NOISE_POWER = 0.75


@dataclass(frozen=True)
class TrainConfig:
    # epochs=5 matches the usual word2vec default; a single pass over a
    # network-sized corpus reliably stalls in the early common-direction
    # transient and scores at chance.
    dim: int = 128
    negatives: int = 5
    lr_initial: float = 0.025
    lr_final: float = 1e-4
    epochs: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.lr_initial <= 0 or self.lr_final <= 0:
            raise ValueError("learning rates must be positive")
        if self.lr_final > self.lr_initial:
            raise ValueError("lr_final must not exceed lr_initial")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


class EmbeddingMatrix:
    """Per-node embedding vectors.

    ``U`` is the dim x n_nodes matrix of input ("center") vectors, column i
    belonging to node i; ``V`` holds the context vectors used only during
    training.  All entries are finite.  dim < n_nodes is the intended regime
    but only warned about: small benchmark networks are routinely embedded at
    the default d=128, so the overparameterized case must still work.
    """

    __slots__ = ("_u", "_v", "dim", "n_nodes")

    def __init__(self, u: np.ndarray, v: np.ndarray | None = None):
        u = np.ascontiguousarray(u, dtype=np.float64)
        if u.ndim != 2:
            raise ValueError("u must be a 2-d (n_nodes, dim) array")
        n, d = u.shape
        if d >= n:
            warnings.warn(f"embedding dim {d} >= node count {n}: overparameterized",
                          stacklevel=2)
        if not np.all(np.isfinite(u)):
            raise ValueError("non-finite embedding entries")
        if v is not None:
            v = np.ascontiguousarray(v, dtype=np.float64)
            if v.shape != u.shape or not np.all(np.isfinite(v)):
                raise ValueError("context matrix must match u and be finite")
        self._u = u
        self._v = v
        self.dim = d
        self.n_nodes = n

    @property
    def U(self) -> np.ndarray:
        return self._u.T

    @property
    def V(self) -> np.ndarray | None:
        return None if self._v is None else self._v.T

    def vector(self, i: int) -> np.ndarray:
        return self._u[i]

    def dot(self, i: int, j: int) -> float:
        return float(self._u[i] @ self._u[j])


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def log_sigmoid(x):
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def pair_loss(u: np.ndarray, ctx: np.ndarray) -> float:
    """Ascent objective of one pair: ctx[0] is the observed context vector,
    the remaining rows are noise vectors."""
    dots = ctx @ u
    return float(log_sigmoid(dots[0]) + log_sigmoid(-dots[1:]).sum())


def pair_gradients(u: np.ndarray, ctx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. u and w.r.t. each ctx row."""
    dots = ctx @ u
    g = -sigmoid(dots)
    g[0] += 1.0
    return g @ ctx, g[:, None] * u


def noise_cdf(counts: np.ndarray) -> np.ndarray:
    """Cumulative distribution of counts ** NOISE_POWER, normalized to 1."""
    w = np.asarray(counts, dtype=np.float64) ** NOISE_POWER
    total = w.sum()
    if total <= 0:
        raise ValueError("all node counts are zero")
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return cdf


def _draw_negatives(cdf: np.ndarray, contexts: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """One epoch's noise nodes, k per pair, none equal to the pair's context."""
    negs = np.searchsorted(cdf, rng.random((len(contexts), k)))
    for t in np.nonzero((negs == contexts[:, None]).any(axis=1))[0]:
        row = negs[t]
        j = contexts[t]
        while True:
            bad = row == j
            n_bad = int(bad.sum())
            if not n_bad:
                break
            row[bad] = np.searchsorted(cdf, rng.random(n_bad))
    return negs


_FINITE_CHECK_EVERY = 8192

# The compiled epoch kernel: built from _sgns.c on the first train() call in
# KERNEL_CACHE_DIR, under a name that hashes the source and the compiler flags,
# and loaded once per process.  No -ffast-math or -march=native, and no fused
# multiply-add, so a rerun on one machine is bit-identical.
KERNEL_CACHE_DIR = (Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
                    / "spreademb")
_KERNEL_SOURCE = Path(__file__).with_name("_sgns.c")
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


@functools.cache
def _sgns_epoch():
    """The ctypes binding of _sgns.c's sgns_epoch, compiled if not cached."""
    source = _KERNEL_SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(_KERNEL_FLAGS).encode()).hexdigest()
    lib_path = KERNEL_CACHE_DIR / f"_sgns-{digest}.so"
    if not lib_path.exists():
        compiler = shutil.which("cc")
        if compiler is None:
            raise KernelBuildError(
                "C compiler 'cc' not found on PATH; it is needed once, "
                f"to build the Skip-Gram kernel {_KERNEL_SOURCE.name} into {lib_path.parent}")
        lib_path.parent.mkdir(parents=True, exist_ok=True)
        # concurrent builders (pool workers) each write their own file; the
        # atomic rename leaves one complete library under the final name
        fd, tmp = tempfile.mkstemp(prefix="_sgns-", suffix=".so.tmp", dir=lib_path.parent)
        os.close(fd)
        try:
            build = subprocess.run(
                [compiler, *_KERNEL_FLAGS, "-o", tmp, str(_KERNEL_SOURCE), "-lm"],
                capture_output=True, text=True)
            if build.returncode != 0:
                raise KernelBuildError(
                    f"{compiler} failed to build {_KERNEL_SOURCE.name}:\n{build.stderr}")
            os.replace(tmp, lib_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    fn = ctypes.CDLL(str(lib_path)).sgns_epoch
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    f64_out = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS,WRITEABLE")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    c_i64 = ctypes.c_int64
    fn.argtypes = [f64_out, f64_out, c_i64, i64, i64, c_i64, c_i64, f64, c_i64, f64_out]
    fn.restype = c_i64
    return fn


def train(pairs: PairStream, cfg: TrainConfig) -> EmbeddingMatrix:
    """Stochastic gradient ascent over the pair stream, one pair at a time.

    U starts uniform in [-0.5/dim, 0.5/dim), V at zero; the learning rate
    decays linearly from lr_initial towards lr_final over epochs * n_pairs
    updates.  Nodes absent from the corpus end up with the zero vector.
    Deterministic for a fixed rng_seed.  Each epoch's updates run in the
    compiled kernel, built on the first call (see _sgns_epoch).
    """
    arr = pairs.to_array()
    n_pairs = len(arr)
    if n_pairs == 0:
        raise ValueError("pair stream is empty")
    n = pairs.n_nodes
    if arr.min() < 0 or arr.max() >= n:
        raise ValueError(f"pair node ids must lie in [0, {n})")
    epoch = _sgns_epoch()
    d = cfg.dim
    rng = np.random.default_rng(cfg.rng_seed)
    u = (rng.random((n, d)) - 0.5) / d
    v = np.zeros((n, d))
    cdf = noise_cdf(pairs.counts)
    k = cfg.negatives
    lr0, lr1 = cfg.lr_initial, cfg.lr_final
    total = n_pairs * cfg.epochs
    centers = np.ascontiguousarray(arr[:, 0], dtype=np.int64)
    contexts = arr[:, 1]
    work = np.empty(k + 1 + d)
    step = 0
    for _ in range(cfg.epochs):
        rows = np.empty((n_pairs, k + 1), dtype=np.int64)
        rows[:, 0] = contexts
        rows[:, 1:] = _draw_negatives(cdf, contexts, k, rng)
        lrs = lr0 + (lr1 - lr0) * (np.arange(step, step + n_pairs) / total)
        bad = epoch(u, v, d, centers, rows, n_pairs, k + 1, lrs, _FINITE_CHECK_EVERY, work)
        if bad >= 0:
            raise TrainingDiverged(
                f"non-finite embedding near update {step + bad}; "
                f"lr_initial={lr0} is probably too high")
        step += n_pairs
    u[pairs.counts == 0] = 0.0  # unseen nodes score zero against everything
    if not np.all(np.isfinite(u)) or not np.all(np.isfinite(v)):
        raise TrainingDiverged(
            f"non-finite embeddings after training; lr_initial={lr0} is probably too high")
    return EmbeddingMatrix(u, v)


def softmax_prob(em: EmbeddingMatrix, i: int, j: int) -> float:
    """Exact softmax p(j | i) = exp(u_i.u_j) / sum_k exp(u_i.u_k).

    Only practical at small n_nodes; this is the quantity the negative
    sampling trainer approximates.
    """
    scores = em._u @ em._u[i]
    scores = scores - scores.max()
    e = np.exp(scores)
    p = e[j] / e.sum()
    if not np.isfinite(p):
        raise FloatingPointError("softmax overflow")
    return float(p)


def _pair_array(pairs) -> np.ndarray:
    if isinstance(pairs, PairStream):
        return pairs.to_array()
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def objective(em: EmbeddingMatrix, pairs) -> float:
    """Exact log-likelihood sum over pairs of log p(context | center).

    Grouped form: sum of the pair dot products minus, for each center, its
    pair count times log of its softmax normalizer.
    """
    arr = _pair_array(pairs)
    u = em._u
    scores = u @ u.T
    m = scores.max(axis=1)
    logz = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    center_counts = np.bincount(arr[:, 0], minlength=em.n_nodes)
    return float(scores[arr[:, 0], arr[:, 1]].sum() - center_counts @ logz)


def objective_gradient(em: EmbeddingMatrix, pairs) -> np.ndarray:
    """Gradient of objective() w.r.t. the node vectors.

    Returns an (n_nodes, dim) array whose row i is the gradient for node i's
    vector.  With P the pair-count matrix, c its row sums and S the softmax
    matrix, the gradient is (P + P^T) U - diag(c) S U - S^T diag(c) U.
    """
    arr = _pair_array(pairs)
    u = em._u
    n = em.n_nodes
    pmat = np.zeros((n, n))
    np.add.at(pmat, (arr[:, 0], arr[:, 1]), 1.0)
    c = pmat.sum(axis=1)
    scores = u @ u.T
    s = np.exp(scores - scores.max(axis=1, keepdims=True))
    s /= s.sum(axis=1, keepdims=True)
    return (pmat + pmat.T) @ u - (c[:, None] * s) @ u - s.T @ (c[:, None] * u)


def save_embeddings(path, em: EmbeddingMatrix, labels=None) -> None:
    """Text export: header "N d", then one "label v1 ... vd" line per node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{em.n_nodes} {em.dim}\n")
        for i in range(em.n_nodes):
            label = str(i) if labels is None else labels[i]
            vec = " ".join(repr(float(x)) for x in em.vector(i))
            fh.write(f"{label} {vec}\n")
