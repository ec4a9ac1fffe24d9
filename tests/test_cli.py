import hashlib
import json

import numpy as np
import pytest

from spreademb import aggregate, load_temporal, stats
from spreademb.cli import main


@pytest.fixture()
def toy_dataset(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for _ in range(200):
        i, j = rng.integers(0, 20, 2)
        if i != j:
            lines.append(f"{i} {j} {rng.integers(0, 50)}")
    path = tmp_path / "toy.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def read_rows(out_dir):
    lines = (out_dir / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_validate_prints_stats_row(toy_dataset, capsys):
    assert main(["validate", "--dataset", str(toy_dataset)]) == 0
    out = capsys.readouterr().out.splitlines()
    tn = load_temporal(toy_dataset)
    info = stats(tn, aggregate(tn))
    assert out[0].startswith("dataset,")
    cells = out[1].split(",")
    assert cells[0] == "toy.txt"
    assert int(cells[1]) == info.n_nodes
    assert int(cells[2]) == info.n_timestamps
    assert int(cells[3]) == info.n_contacts
    assert int(cells[4]) == info.n_edges
    assert float(cells[5]) == pytest.approx(info.link_density, abs=5e-5)


def test_validate_missing_file_fails(tmp_path, capsys):
    assert main(["validate", "--dataset", str(tmp_path / "nope.txt")]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_malformed_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n4 5 x\n")
    assert main(["validate", "--dataset", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_run_l2_zero_within_split_variance(toy_dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--splits", "3", "--runs", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 9
    for s in {r["split"] for r in rows}:
        aucs = {r["auc"] for r in rows if r["split"] == s}
        assert len(aucs) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"


def test_run_grid_summary_structure(toy_dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "deepwalk",
                 "--x", "1", "2", "5", "--dim", "8", "--splits", "1", "--runs", "1",
                 "--seed", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["grid"]) == 3
    assert [g["params"]["x"] for g in summary["grid"]] == [1, 2, 5]
    assert summary["best"] in summary["grid"]
    assert (out / "embeddings_best.txt").exists()
    assert (out / "degree_distribution_sampled.csv").exists()
    assert (out / "dot_hist_positive.csv").exists()


def test_run_sine_grid_is_beta_cross_x(toy_dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "sine",
                 "--beta", "0.5", "1.0", "--x", "1", "2", "--dim", "8",
                 "--splits", "1", "--runs", "1", "--seed", "2",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["grid"]) == 4


def test_run_same_seed_byte_identical(toy_dataset, tmp_path):
    args = ["run", "--dataset", str(toy_dataset), "--algorithm", "sine",
            "--beta", "0.5", "--x", "2", "--dim", "8",
            "--splits", "2", "--runs", "2", "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    man_a = json.loads((out_a / "manifest.json").read_text())
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_a["files"] == man_b["files"]


def test_manifest_hashes_match_files(toy_dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l3",
                 "--splits", "1", "--runs", "2", "--seed", "0",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, tagged in manifest["files"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert tagged == f"sha256:{digest}"


def test_irrelevant_axis_warns_but_runs(toy_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--beta", "0.5", "--splits", "1", "--runs", "1", "--seed", "0",
                 "--out", str(out)]) == 0
    assert "ignored" in capsys.readouterr().err


def test_spec_file_with_flag_override(toy_dataset, tmp_path):
    spec = {"dataset": str(toy_dataset), "algorithm": "l2", "splits": 2,
            "runs": 1, "seed": 7, "out": str(tmp_path / "from_spec")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "override"
    assert main(["run", "--spec", str(spec_path), "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert rows[0]["dataset"] == "toy.txt"


def test_run_missing_required_fails(capsys):
    assert main(["run", "--algorithm", "l2"]) == 1
    assert "required" in capsys.readouterr().err


def test_run_bad_dataset_marks_incomplete(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1 0\n")
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(bad), "--algorithm", "l2",
                 "--out", str(out), "--seed", "0"]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "incomplete"
    assert manifest["error"]


def test_run_temporal_algorithm_and_label_export(tmp_path):
    rng = np.random.default_rng(3)
    lines = []
    for _ in range(150):
        i, j = rng.integers(0, 15, 2)
        if i != j:
            lines.append(f"v{i} v{j} {rng.integers(0, 30)}")
    dataset = tmp_path / "labeled.txt"
    dataset.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(dataset), "--algorithm", "tsine2",
                 "--beta", "0.5", "--x", "1", "--dim", "4", "--splits", "1",
                 "--runs", "1", "--seed", "6", "--out", str(out)]) == 0
    emb = (out / "embeddings_best.txt").read_text().splitlines()
    tn = load_temporal(dataset)
    n, d = emb[0].split()
    assert (int(n), int(d)) == (tn.n_nodes, 4)
    assert {line.split()[0] for line in emb[1:]} == set(tn.labels)


def test_worker_pool_matches_reference_mode(toy_dataset, tmp_path):
    args = ["run", "--dataset", str(toy_dataset), "--algorithm", "sine",
            "--beta", "0.5", "--x", "1", "--dim", "8", "--splits", "2",
            "--runs", "2", "--seed", "5"]
    out_serial, out_pool = tmp_path / "serial", tmp_path / "pool"
    assert main(args + ["--workers", "1", "--out", str(out_serial)]) == 0
    assert main(args + ["--workers", "2", "--out", str(out_pool)]) == 0
    assert (out_serial / "results.csv").read_bytes() == (out_pool / "results.csv").read_bytes()


def test_env_seed_default(toy_dataset, tmp_path, monkeypatch):
    monkeypatch.setenv("SPREADEMB_SEED", "33")
    out_env = tmp_path / "env"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--splits", "1", "--runs", "1", "--out", str(out_env)]) == 0
    rows = read_rows(out_env)
    monkeypatch.delenv("SPREADEMB_SEED")
    out_flag = tmp_path / "flag"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--splits", "1", "--runs", "1", "--seed", "33",
                 "--out", str(out_flag)]) == 0
    assert rows == read_rows(out_flag)


@pytest.mark.parametrize("flag", ["--splits", "--runs", "--workers"])
def test_run_rejects_counts_below_one(toy_dataset, tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--splits", "1", "--runs", "1", "--seed", "0",
                 flag, "0", "--out", str(out)]) == 1
    assert f"{flag[2:]} must be >= 1" in capsys.readouterr().err
    assert not (out / "summary.json").exists()
    assert not (out / "manifest.json").exists()


def test_run_rejects_non_finite_grid_value(toy_dataset, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "sine",
                 "--beta", "nan", "--out", str(out)]) == 1
    assert "finite numbers" in capsys.readouterr().err
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"beta": ["a"]}))
    assert main(["run", "--spec", str(spec_path), "--dataset", str(toy_dataset),
                 "--algorithm", "sine", "--out", str(out)]) == 1
    assert "finite numbers" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_run_writes_strict_json(toy_dataset, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(toy_dataset), "--algorithm", "l2",
                 "--splits", "2", "--runs", "1", "--seed", "3",
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for name in ("summary.json", "manifest.json"):
        json.loads((out / name).read_text(), parse_constant=reject)
