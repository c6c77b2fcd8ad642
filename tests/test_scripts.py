"""The scripts under scripts/ run against the package as it is."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from sentsimp.cli import main
from sentsimp.metrics import MetricReport
from sentsimp.toydata import build_toy_corpus

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env_vars)
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


def test_ab_interleaved_times_the_checkout_against_itself(tmp_path):
    """On one BLAS thread, whatever the caller's environment asks for."""
    proc = run_script(
        "ab_interleaved.py", str(ROOT), str(ROOT), "--workload", "score", "--seed", "2", "--units", "3",
        cwd=tmp_path, OPENBLAS_NUM_THREADS="4",
    )
    assert proc.returncode == 0, proc.stderr
    assert "3 units, equal outputs" in proc.stdout
    blas = "BLAS threads OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"
    assert blas in proc.stdout.splitlines()
    assert "total-time ratio new/old" in proc.stdout and "median per-unit ratio new/old" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_ab_interleaved_times_taped_training_pairs_against_itself(tmp_path):
    proc = run_script(
        "ab_interleaved.py", str(ROOT), str(ROOT), "--workload", "train", "--seed", "2", "--units", "3",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "train, seed 2, 3 units, equal outputs" in proc.stdout
    assert "total-time ratio new/old" in proc.stdout and "median per-unit ratio new/old" in proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_ab_interleaved_simplifies_held_out_lines_against_itself(tmp_path):
    """A tiny checkpoint trained on the toy corpus, then four lines at beam
    5 (two with a constraint) on both sides: equal texts, pass ids, positions, stops and constraint
    accounting, and a log-prob difference of 0 between two equal trees."""
    data = build_toy_corpus(40, seed=3)
    src, tgt, kb = tmp_path / "normal.txt", tmp_path / "simple.txt", tmp_path / "rules.tsv"
    data.write(str(src), str(tgt), str(kb))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("embed_dim = 4\nhidden_dim = 4\nepochs = 1\nbatch_size = 8\nseed = 5\n", encoding="utf-8")
    out_dir = tmp_path / "run"
    argv = ["train", "--config", str(cfg), "--source", str(src), "--target", str(tgt), "--kb", str(kb)]
    assert main([*argv, "--out-dir", str(out_dir)]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    proc = run_script(
        "ab_interleaved.py", str(ROOT), str(ROOT), "--workload", "simplify", "--seed", "2", "--units", "4",
        "--checkpoint", str(out_dir / "epoch0001.ckpt"), cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    assert "simplify, seed 2, 4 units, equal outputs" in proc.stdout
    assert "largest |log-prob difference| 0" in proc.stdout.splitlines()
    assert list(cwd.iterdir()) == []


def test_ab_interleaved_train_refuses_a_gradient_that_differs_in_its_last_bits(tmp_path):
    """Every weight gradient scaled by 1 + 2**-50: refused at the default
    --grad-rtol 0, accepted at 1e-12 with the deviation printed."""
    new = tmp_path / "new"
    shutil.copytree(ROOT / "src" / "sentsimp", new / "src" / "sentsimp")
    autodiff = new / "src" / "sentsimp" / "autodiff.py"
    source = autodiff.read_text(encoding="utf-8")
    product = "return np.dot(g.T, x)"
    assert source.count(product) == 1
    autodiff.write_text(source.replace(product, product + " * (1.0 + 2.0**-50)"), encoding="utf-8")
    proc = run_script("ab_interleaved.py", str(ROOT), str(new), "--workload", "train", "--units", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "unit 0: outputs differ" in proc.stderr
    proc = run_script(
        "ab_interleaved.py", str(ROOT), str(new), "--workload", "train", "--units", "1", "--grad-rtol", "1e-12",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "train, seed 1, 1 units, outputs within --grad-rtol 1e-12" in proc.stdout
    deviation = [line for line in proc.stdout.splitlines() if line.startswith("largest deviation")]
    assert len(deviation) == 1 and 0.0 < float(deviation[0].split()[-1]) <= 1e-12
