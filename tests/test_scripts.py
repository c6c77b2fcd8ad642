"""The scripts under scripts/ run against the package as it is."""

import os
import subprocess
import sys
from pathlib import Path

from sentsimp.metrics import MetricReport

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_make_toy_data_writes_its_three_files(tmp_path):
    out_dir = tmp_path / "toy"
    proc = run_script("make_toy_data.py", "--out-dir", str(out_dir), "--pairs", "5", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out_dir.iterdir()) == ["normal.txt", "rules.tsv", "simple.txt"]
    assert len((out_dir / "normal.txt").read_text(encoding="utf-8").splitlines()) == 5
    assert len((out_dir / "simple.txt").read_text(encoding="utf-8").splitlines()) == 5


def test_run_toy_experiment_prints_the_metric_table(tmp_path):
    proc = run_script(
        "run_toy_experiment.py", "--pairs", "5", "--epochs", "1", "--hidden-dim", "4", "--embed-dim", "4",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.split() == " ".join(MetricReport.COLUMNS).split() for line in lines), proc.stdout
