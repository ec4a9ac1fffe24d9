"""Command-line experiment driver.

Two subcommands:

* ``validate`` loads an edge list and prints its summary statistics row.
* ``run`` executes a grid of link-prediction experiments and writes
  results.csv, summary.json, best-grid-point artifacts and a manifest with
  content hashes into the output directory.

Every flag can also come from a JSON spec file (``--spec``); explicit flags
override the file.  A few operational flags read environment defaults with
the ``SPREADEMB_`` prefix (SPREADEMB_SEED, SPREADEMB_OUT, SPREADEMB_WORKERS).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyNetworkError, ParseError
from .evaluation import (ALGORITHMS, LPATH_ALGORITHMS, auc,
                         dot_product_histogram, embed_split, make_split,
                         realization_scores, resolve_params, run_seed_for,
                         sampled_network, split_seed_for)
from .graphs import EdgeListFormat, NetworkStats, aggregate, load_temporal, stats
from .skipgram import save_embeddings

ENV_PREFIX = "SPREADEMB_"

# Grid axes each algorithm actually consumes, in grid-iteration order.
RELEVANT_AXES = {
    "sine": ("beta", "x"),
    "tsine1": ("beta", "x"),
    "tsine2": ("beta", "x"),
    "deepwalk": ("x",),
    "node2vec": ("x", "p", "q"),
    "ctdne": ("x",),
    "l2": (),
    "l3": (),
    "l4": (),
}

GRID_DEFAULTS = {"beta": [0.1], "x": [10], "p": [1.0], "q": [1.0]}


@dataclass
class ExperimentSpec:
    dataset: str
    algorithm: str
    out: str
    beta: list[float] = field(default_factory=lambda: list(GRID_DEFAULTS["beta"]))
    x: list[int] = field(default_factory=lambda: list(GRID_DEFAULTS["x"]))
    p: list[float] = field(default_factory=lambda: list(GRID_DEFAULTS["p"]))
    q: list[float] = field(default_factory=lambda: list(GRID_DEFAULTS["q"]))
    omega: int = 10
    dim: int = 128
    m_max: int | None = None
    l_max: int = 20
    splits: int = 5
    runs: int = 10
    seed: int = 0
    workers: int = 1
    format: str = "ijt"
    provided_axes: set = field(default_factory=set)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for count in ("splits", "runs", "workers"):
            if getattr(self, count) < 1:
                raise ValueError(f"{count} must be >= 1")
        for axis in ("beta", "x", "p", "q"):
            values = getattr(self, axis)
            if not values:
                raise ValueError(f"grid axis {axis!r} must be non-empty")
            if not all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values):
                raise ValueError(f"grid axis {axis!r} must hold finite numbers")


def _env(name: str, cast, fallback):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    return cast(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreademb",
        description="Spreading-based network embeddings and link-prediction "
                    "experiments",
        epilog=f"Environment defaults: {ENV_PREFIX}SEED, {ENV_PREFIX}OUT, "
               f"{ENV_PREFIX}WORKERS (explicit flags win).")
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="print the stats row of an edge list")
    val.add_argument("--dataset", required=True, help="edge-list file")
    val.add_argument("--format", choices=("ijt", "tij", "ijwt"), default="ijt",
                     help="column layout of the edge list")

    run = sub.add_parser("run", help="run a link-prediction experiment grid")
    run.add_argument("--spec", help="JSON spec file; explicit flags override it")
    run.add_argument("--dataset")
    run.add_argument("--format", choices=("ijt", "tij", "ijwt"))
    run.add_argument("--algorithm", choices=ALGORITHMS)
    run.add_argument("--beta", nargs="+", type=float, help="infection probability grid")
    run.add_argument("--x", nargs="+", type=int, help="budget multiplier grid (B = N*X)")
    run.add_argument("--p", nargs="+", type=float, help="return-parameter grid")
    run.add_argument("--q", nargs="+", type=float, help="in-out-parameter grid")
    run.add_argument("--omega", type=int, help="context window (default 10)")
    run.add_argument("--dim", type=int, help="embedding dimension (default 128)")
    run.add_argument("--m-max", dest="m_max", type=int,
                     help="path-quota scale (default 10*N)")
    run.add_argument("--l-max", dest="l_max", type=int,
                     help="max path / walk length in nodes (default 20)")
    run.add_argument("--splits", type=int, help="number of random splits (default 5)")
    run.add_argument("--runs", type=int, help="runs per split (default 10)")
    run.add_argument("--seed", type=int, help="master seed (default 0)")
    run.add_argument("--out", help="output directory")
    run.add_argument("--workers", type=int,
                     help="worker processes; 1 = reference mode (default 1)")
    return parser


def spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Merge spec file, flags and environment into an ExperimentSpec.

    Precedence: explicit flag > spec file > environment > built-in default.
    """
    from_file: dict = {}
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as fh:
            from_file = json.load(fh)
        unknown = set(from_file) - {f.name for f in ExperimentSpec.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown spec file keys: {sorted(unknown)}")

    def pick(name, env_name=None, cast=None, fallback=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in from_file:
            return from_file[name]
        if env_name is not None:
            return _env(env_name, cast, fallback)
        return fallback

    provided = {axis for axis in ("beta", "x", "p", "q")
                if getattr(args, axis, None) is not None or axis in from_file}
    dataset = pick("dataset")
    algorithm = pick("algorithm")
    out = pick("out", "OUT", str, None)
    if dataset is None or algorithm is None or out is None:
        raise ValueError("--dataset, --algorithm and --out are required "
                         "(via flags or the spec file)")
    return ExperimentSpec(
        dataset=dataset, algorithm=algorithm, out=out,
        beta=pick("beta", fallback=list(GRID_DEFAULTS["beta"])),
        x=pick("x", fallback=list(GRID_DEFAULTS["x"])),
        p=pick("p", fallback=list(GRID_DEFAULTS["p"])),
        q=pick("q", fallback=list(GRID_DEFAULTS["q"])),
        omega=pick("omega", fallback=10),
        dim=pick("dim", fallback=128),
        m_max=pick("m_max", fallback=None),
        l_max=pick("l_max", fallback=20),
        splits=pick("splits", fallback=5),
        runs=pick("runs", fallback=10),
        seed=pick("seed", "SEED", int, 0),
        workers=pick("workers", "WORKERS", int, 1),
        format=pick("format", fallback="ijt"),
        provided_axes=provided,
    )


def grid_points(spec: ExperimentSpec) -> list[dict]:
    """Cartesian product over the algorithm's relevant grid axes."""
    axes = RELEVANT_AXES[spec.algorithm]
    irrelevant = [a for a in spec.provided_axes if a not in axes]
    if irrelevant:
        print(f"warning: grid axes {sorted(irrelevant)} are ignored by "
              f"{spec.algorithm}", file=sys.stderr)
    if not axes:
        return [{}]
    values = [getattr(spec, a) for a in axes]
    return [dict(zip(axes, combo)) for combo in itertools.product(*values)]


def _base_params(spec: ExperimentSpec) -> dict:
    return {"omega": spec.omega, "dim": spec.dim, "m_max": spec.m_max,
            "l_max": spec.l_max}


CSV_COLUMNS = ("dataset", "algorithm", "beta", "x", "p", "q", "omega", "dim",
               "m_max", "l_max", "split", "run", "split_seed", "run_seed", "auc")


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _grid_split_rows(tn, spec: ExperimentSpec, point: dict, split_index: int) -> list[dict]:
    """All realization rows of one (grid point, split); used by the worker pool."""
    params = resolve_params({**_base_params(spec), **point})
    split = make_split(tn, split_seed_for(spec.seed, split_index))
    axes = RELEVANT_AXES[spec.algorithm]
    rows = []
    for r in range(spec.runs):
        rs = run_seed_for(spec.seed, split_index, r)
        scores = realization_scores(split, spec.algorithm, params, rs)
        row = {
            "dataset": os.path.basename(spec.dataset),
            "algorithm": spec.algorithm,
            "beta": point.get("beta") if "beta" in axes else None,
            "x": point.get("x") if "x" in axes else None,
            "p": point.get("p") if "p" in axes else None,
            "q": point.get("q") if "q" in axes else None,
            "omega": spec.omega, "dim": spec.dim, "m_max": spec.m_max,
            "l_max": spec.l_max, "split": split_index, "run": r,
            "split_seed": split.split_seed, "run_seed": rs,
            "auc": auc(scores, split.labels),
        }
        rows.append(row)
    return rows


def _cumulative_degree_rows(degrees: np.ndarray) -> list[tuple[int, float]]:
    """(degree, fraction of nodes with degree >= it) per distinct degree."""
    if len(degrees) == 0:
        return []
    values, counts = np.unique(degrees, return_counts=True)
    remaining = counts[::-1].cumsum()[::-1]
    return [(int(d), float(c) / len(degrees)) for d, c in zip(values, remaining)]


def _write_two_column_csv(path, header: tuple[str, str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for a, b in rows:
            fh.write(f"{_csv_value(a)},{_csv_value(b)}\n")


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _emit_best_point_artifacts(tn, spec: ExperimentSpec, best_point: dict,
                               out_dir: str) -> list[str]:
    """Diagnostics for the winning grid point, from the first realization."""
    files = []
    params = resolve_params({**_base_params(spec), **best_point})
    split = make_split(tn, split_seed_for(spec.seed, 0))
    rows = _cumulative_degree_rows(split.train_static.degree[split.train_static.members])
    path = os.path.join(out_dir, "degree_distribution_train.csv")
    _write_two_column_csv(path, ("degree", "cum_fraction"), rows)
    files.append("degree_distribution_train.csv")

    if spec.algorithm in LPATH_ALGORITHMS:
        return files

    rs = run_seed_for(spec.seed, 0, 0)
    em, stream = embed_split(spec.algorithm, split, params, rs)
    emb_path = os.path.join(out_dir, "embeddings_best.txt")
    save_embeddings(emb_path, em, labels=tn.labels)
    files.append("embeddings_best.txt")

    g_s = sampled_network(stream)
    rows = _cumulative_degree_rows(g_s.degree[g_s.members])
    path = os.path.join(out_dir, "degree_distribution_sampled.csv")
    _write_two_column_csv(path, ("degree", "cum_fraction"), rows)
    files.append("degree_distribution_sampled.csv")

    pos, neg, edges = dot_product_histogram(em, split.pairs, split.labels, n_bins=50)
    centers = (edges[:-1] + edges[1:]) / 2.0
    _write_two_column_csv(os.path.join(out_dir, "dot_hist_positive.csv"),
                          ("bin_center", "count"), zip(centers, pos))
    _write_two_column_csv(os.path.join(out_dir, "dot_hist_negative.csv"),
                          ("bin_center", "count"), zip(centers, neg))
    files += ["dot_hist_positive.csv", "dot_hist_negative.csv"]
    return files


def run_spec(spec: ExperimentSpec) -> int:
    """Execute the grid and write all artifacts; returns the exit status."""
    os.makedirs(spec.out, exist_ok=True)
    emitted: list[str] = []
    try:
        tn = load_temporal(spec.dataset, EdgeListFormat(columns=spec.format))
        points = grid_points(spec)
        tasks = [(gi, s) for gi in range(len(points)) for s in range(spec.splits)]
        if spec.workers > 1:
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                chunks = list(pool.map(
                    _pool_task,
                    [(tn, spec, points[gi], s) for gi, s in tasks]))
        else:
            chunks = [_grid_split_rows(tn, spec, points[gi], s) for gi, s in tasks]

        rows = [row for chunk in chunks for row in chunk]
        results_path = os.path.join(spec.out, "results.csv")
        with open(results_path, "w", encoding="utf-8") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(_csv_value(row[c]) for c in CSV_COLUMNS) + "\n")
        emitted.append("results.csv")

        grid_summary = []
        for gi, point in enumerate(points):
            aucs = np.asarray([r["auc"] for chunk_gi, chunk in zip(tasks, chunks)
                               if chunk_gi[0] == gi for r in chunk])
            grid_summary.append({"params": point,
                                 "mean_auc": float(aucs.mean()),
                                 "std_auc": float(aucs.std()),
                                 "n_realizations": int(len(aucs))})
        best_idx = int(np.argmax([g["mean_auc"] for g in grid_summary]))
        summary = {
            "dataset": os.path.basename(spec.dataset),
            "algorithm": spec.algorithm,
            "n_splits": spec.splits,
            "n_runs": spec.runs,
            "master_seed": spec.seed,
            "defaults": _base_params(spec),
            "grid": grid_summary,
            "best": grid_summary[best_idx],
        }
        _write_json(os.path.join(spec.out, "summary.json"), summary)
        emitted.append("summary.json")

        emitted += _emit_best_point_artifacts(tn, spec, grid_summary[best_idx]["params"],
                                              spec.out)
        _write_manifest(spec, emitted, status="complete", error=None)
        return 0
    except Exception as exc:  # keep partial results, mark them incomplete
        _write_manifest(spec, emitted, status="incomplete", error=f"{type(exc).__name__}: {exc}")
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _pool_task(args):
    tn, spec, point, split_index = args
    return _grid_split_rows(tn, spec, point, split_index)


def _write_manifest(spec: ExperimentSpec, emitted: list[str], status: str,
                    error: str | None) -> None:
    spec_dict = asdict(spec)
    spec_dict["provided_axes"] = sorted(spec_dict["provided_axes"])
    manifest = {
        "status": status,
        "error": error,
        "spec": spec_dict,
        "files": {name: "sha256:" + _sha256(os.path.join(spec.out, name))
                  for name in sorted(emitted)},
    }
    _write_json(os.path.join(spec.out, "manifest.json"), manifest)


def _write_json(path, obj) -> None:
    """Strict JSON: a NaN or infinity raises before the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def validate_dataset(path, fmt: EdgeListFormat | None = None) -> NetworkStats:
    """Load and summarize a dataset, printing a one-row CSV stats table."""
    tn = load_temporal(path, fmt)
    info = stats(tn, aggregate(tn))
    print(NetworkStats.CSV_HEADER)
    print(info.csv_row(os.path.basename(os.fspath(path))))
    return info


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            validate_dataset(args.dataset, EdgeListFormat(columns=args.format))
            return 0
        return run_spec(spec_from_args(args))
    except (ParseError, EmptyNetworkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
