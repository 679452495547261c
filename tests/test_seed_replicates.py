"""scripts/seed_replicates.py: seed replicates of one loaded scenario."""

import csv
import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import yaml

from leoris import montecarlo
from leoris.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("seed_replicates",
                                               ROOT / "scripts" / "seed_replicates.py")
seed_replicates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_replicates)


def _config(tmp_path, trials=5000, seed=7):
    raw = yaml.safe_load((ROOT / "configs" / "default.yaml").read_text(encoding="utf-8"))
    raw["monte_carlo"].update(enabled=False, trials=trials, seed=seed)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def test_replicates_build_each_table_once_and_write_what_the_cli_writes(monkeypatch, tmp_path):
    builds = []

    def build(sat, user, counts, _fn=montecarlo.element_sum_tables):
        builds.append(tuple(sorted(counts)))
        return _fn(sat, user, counts)

    monkeypatch.setattr(montecarlo, "element_sum_tables", build)
    path = _config(tmp_path)
    assert seed_replicates.main([str(path), "--replicates", "3", "--seed", "11",
                                 "--out", str(tmp_path / "reps")]) == 0
    assert builds == [(20,)]  # the first replicate builds, the others read the plan's
    for seed in (11, 12, 13):
        assert cli_main(["run", str(path), "--mc", "--seed", str(seed),
                         "--out", str(tmp_path / f"cli{seed}")]) == 0
        assert _digests(tmp_path / "reps" / f"seed{seed}") == _digests(tmp_path / f"cli{seed}")

    with (tmp_path / "reps" / "replicates.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == seed_replicates.HEADER
    runs = []
    for seed in (11, 12, 13):
        with (tmp_path / f"cli{seed}" / "coverage.csv").open(newline="") as fh:
            runs.append([[float(v) for v in row[:4]] for row in list(csv.reader(fh))[1:]])
    runs = np.array(runs)  # (seed, point, column)
    assert len(rows) == runs.shape[1] == 10
    for row, points in zip(rows, runs.transpose(1, 0, 2)):
        assert row[0] == "coverage"
        assert float(row[1]) == points[0, 0] and float(row[2]) == points[0, 1]
        assert float(row[3]) == points[:, 2].mean()
        assert float(row[4]) == points[:, 2].std(ddof=1)
        assert float(row[5]) == np.sqrt(np.mean(points[:, 3] ** 2))


def test_replicates_reject_what_they_cannot_run(tmp_path, capsys):
    path = _config(tmp_path)
    out = str(tmp_path / "reps")
    assert seed_replicates.main([str(path), "--replicates", "1", "--out", out]) == 2
    assert seed_replicates.main([str(path), "--replicates", "2", "--seed", "-1",
                                 "--out", out]) == 2
    assert seed_replicates.main([str(_config(tmp_path, trials=10)), "--replicates", "2",
                                 "--out", out]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert errors[0] == "error: --replicates: needs at least 2 for a spread, got 1"
    assert errors[1] == "error: --seed: seed must be >= 0, got -1"
    assert errors[2].startswith("error: monte_carlo.trials: the Monte Carlo metrics need")
    assert not (tmp_path / "reps").exists()
