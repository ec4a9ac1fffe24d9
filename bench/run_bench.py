"""Seeded end-to-end benchmark of spreademb, with a per-layer traced run.

Run from the repository root:

    python3 bench/run_bench.py --workload train --seed 1 --seconds 45 --trace 0

The workload's input is generated from ``--seed`` and spreademb is imported
from ``src/`` next to this directory.  The workload runs in rounds, at least
three and more while the next would end before ``--seconds``; each step of a
round is timed.  Outputs are checked outside the timed region.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count the output checks; ``metrics`` holds the end-to-end metrics
(``--trace 0``) or per-layer metrics (``--trace 1``, whose rounds are all
traced).  The line before it is a JSON report with the inputs' shape and
sha256, the step times, AUCs, output digests, failed checks and the
environment; it is also written, with the spans of a traced run, under
``.bench_runs/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread keeps the dense matrix products
# of score_lpath steady on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
# Set-ups before the first round and after each untraced round; a set-up
# takes well under a second, so its median needs many samples spread over
# the run.
SETUPS_PER_ROUND = 2
# Other tenants of a shared host slow this process for seconds to minutes
# at a time.  Every step is timed in at least MIN_ROUNDS rounds and rescaled
# by REF_NOMINAL_S over the median time of the reference slices run between
# the steps of its round; wall_s sums each step's median rescaled round.  REF_NOMINAL_S is about one slice
# on an idle 2-vCPU Xeon box, so rescaled times read as seconds there.
MIN_ROUNDS = 3
REF_NOMINAL_S = 0.025

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "realizations_per_s": "1/s",
    "contacts_per_s": "1/s",
    "auc_mean": "auc",
    "peak_rss_mb": "MB",
}

clock = time.perf_counter


def import_spreademb():
    """Import spreademb from this checkout's src/; returns (module, seconds)."""
    package = SRC / "spreademb" / "__init__.py"
    if not package.is_file():
        raise FileNotFoundError(f"{package} not found: run from a full checkout")
    start = clock()
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import spreademb
    import spreademb.cli  # noqa: F401
    elapsed = clock() - start
    if Path(spreademb.__file__).resolve() != package.resolve():
        raise ImportError(f"imported {spreademb.__file__}, expected {package}")
    return spreademb, elapsed


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": f"{platform.machine()} {cpu}".strip(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def reference_slice() -> float:
    """Seconds taken by a fixed slice of interpreter-bound work (about 25 ms)."""
    start = clock()
    total = 0
    for i in range(120_000):
        total += (i * 7919) % 10007
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 1009] = counts.get(i % 1009, 0) + 1
    return clock() - start


class StepTimer:
    """Wall time of each named step of one round, with a reference slice
    timed before the first step and after every step."""

    def __init__(self):
        self.times: dict[str, float] = {}
        self.refs = [reference_slice()]

    @contextmanager
    def __call__(self, step: str):
        start = clock()
        try:
            yield
        finally:
            self.times[step] = self.times.get(step, 0.0) + clock() - start
            self.refs.append(reference_slice())

    def scaled(self) -> dict[str, float]:
        """Step times rescaled by the median of the round's slices: one
        25 ms slice is itself noisy, so the median of many rescales better
        than the slices next to a step."""
        speed = REF_NOMINAL_S / statistics.median(self.refs)
        return {step: took * speed for step, took in self.times.items()}


def measure(workload, seconds: float, on_outcome, min_rounds: int) -> list[dict]:
    """Step times of rounds run until the next would end past ``seconds``."""
    rounds: list[dict] = []
    while True:
        timer = StepTimer()
        outcome = workload.run(timer)
        rounds.append({"raw": timer.times, "scaled": timer.scaled(), "refs": timer.refs})
        on_outcome(outcome)
        del outcome
        walls = [sum(r["raw"].values()) for r in rounds]
        if len(rounds) >= min_rounds and sum(walls) + statistics.median(walls) > seconds:
            return rounds


def median_of_rounds(rounds: list[dict], steps) -> float:
    """Sum over ``steps`` of each step's median rescaled time across rounds."""
    return sum(statistics.median(r["scaled"][step] for r in rounds) for step in steps)


def setup_seconds(workload) -> float:
    """One set-up at the reference host speed: a fresh interpreter importing
    spreademb, then the workload's input generation."""
    timer = StepTimer()
    with timer("import"):
        subprocess.run([sys.executable, "-c",
                        f"import sys; sys.path.insert(0, {str(SRC)!r}); import spreademb.cli"],
                       check=True)
    with timer("generate"):
        workload.setup()
    return sum(timer.scaled().values())


def end_to_end_metrics(workload, rounds: list[dict], setups: list[float], aucs) -> dict:
    """Each rate divides by the median-of-rounds time of the steps it counts."""
    steps = list(rounds[0]["scaled"])
    unscored = workload.unscored_steps()
    n_contacts, prefix = workload.ingest()
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_of_rounds(rounds, steps),
        "realizations_per_s": workload.realizations() / median_of_rounds(
            rounds, [s for s in steps if s not in unscored]),
        "contacts_per_s": n_contacts / median_of_rounds(
            rounds, [s for s in steps if s.startswith(prefix)]),
        "auc_mean": statistics.fmean(aucs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class Recorder:
    """Checks every round's outputs and that they repeat across rounds."""

    def __init__(self, workload):
        self.workload = workload
        self.checks: list[tuple[str, bool, str]] = []
        self.first = None

    def __call__(self, outcome) -> None:
        self.checks += self.workload.check(outcome)
        if self.first is None:
            self.first = outcome.aucs, outcome.facts
        else:
            self.checks.append(("AUCs and output digests repeat across rounds",
                                (outcome.aucs, outcome.facts) == self.first, ""))


def traced_metrics(se, workload, seconds, recorder, report) -> dict:
    """Per-layer metrics of traced rounds run for ``seconds``; span counts
    become checks.  ``trace.overhead_s`` is the time per round spent in the
    tracer's wrappers outside the wrapped calls."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    tracer.install(layers.targets(se))

    def check_untraced(outcome):
        with tracer.paused():
            recorder(outcome)

    try:
        rounds = measure(workload, seconds, check_untraced, min_rounds=1)
    finally:
        tracer.uninstall()
    expected = {n: 0 for n in layers.traced_names(se) if n not in layers.DATA_DEPENDENT}
    expected.update(workload.expected_calls())
    counts = tracer.counts()
    for span_name, per_round in sorted(expected.items()):
        want = per_round * len(rounds)
        got = counts.get(span_name, 0)
        recorder.checks.append((f"span count {span_name}", got == want,
                                f"{got} spans, expected {want}"))
    metrics = layers.per_layer_metrics(tracer.spans, len(rounds))
    metrics["trace.overhead_s"] = tracer.overhead_s / len(rounds)
    report.update({"rounds_s": rounds, "span_counts": counts, "spans": tracer.to_json()})
    return metrics


def run(se, import_s: float, name: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    import layers
    from workloads import WORKLOADS

    workdir = RUNS_DIR / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](se, seed, str(workdir))
        setups = [setup_seconds(workload) for _ in range(SETUPS_PER_ROUND)]
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "input": workload.input_info(), "import_s": import_s, "setups_s": setups}
        recorder = Recorder(workload)
        if trace:
            metrics = traced_metrics(se, workload, seconds, recorder, report)
            units = layers.PER_LAYER_UNITS
        else:
            def check_and_set_up(outcome):
                recorder(outcome)
                setups.extend(setup_seconds(workload) for _ in range(SETUPS_PER_ROUND))

            rounds = report["rounds_s"] = measure(workload, seconds, check_and_set_up,
                                                  MIN_ROUNDS)
            metrics = end_to_end_metrics(workload, rounds, setups, recorder.first[0])
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [c for c in recorder.checks if not c[1]]
    metrics["failed_frac"] = len(failed) / len(recorder.checks)
    spans = report.pop("spans", [])
    report.update({
        "aucs": recorder.first[0],
        "facts": recorder.first[1],
        "checks_passed": len(recorder.checks) - len(failed),
        "checks_failed": [{"check": c[0], "detail": c[2]} for c in failed],
        "environment": environment(),
    })
    result = {
        "correct": not failed,
        "attempted": len(recorder.checks),
        "failed": len(failed),
        "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                    for key, unit in units.items()},
    }
    with open(RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"report": report, "result": result, "spans": spans}, fh)
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        se, import_s = import_spreademb()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    report, result = run(se, import_s, args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
