"""Each script under scripts/ runs to its end on small inputs, in a fresh
interpreter, the way a reader of the README would start it."""

import os
import subprocess
import sys

import numpy as np

from helpers import SCRIPTS

SRC = str(SCRIPTS.parent / "src")


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


def test_planted_demo_writes_its_files(tmp_path):
    out = tmp_path / "demo"
    proc = run_script(
        "run_planted_demo", "--out-dir", str(out), "--train-rows", "400", "--test-rows", "200", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "rows flagged; explaining the first one:" in proc.stdout
    written = {"planted_rules.json", "planted_train.csv", "planted_test.csv", "planted_reports.jsonl"}
    assert {p.name for p in out.iterdir()} == written


def test_hyperparam_sweep_writes_one_row_per_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script(
        "run_hyperparam_sweep", "--train-rows", "300", "--test-rows", "200",
        "--theta-grid", "0.2", "0.3", "--gamma-grid", "0", "0.3", "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "failed:" not in proc.stdout
    assert len(out.read_text().splitlines()) == 5  # header and the four cells


def test_odds_benchmark_runs_offline_on_a_synthetic_table(tmp_path):
    """The protocol completes on a made-up cardio table; the AUC windows are
    for the real data, so the exit code may be 0 or 1 here."""
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 1.0, (1150, 4)), rng.normal(4.0, 1.0, (60, 4))])
    y = np.r_[np.zeros(1150, dtype=int), np.ones(60, dtype=int)]
    np.savez(tmp_path / "cardio.npz", X=X, y=y)
    proc = run_script("run_odds_benchmark", "--data-dir", str(tmp_path), cwd=tmp_path)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    assert "cardio: theta " in proc.stdout
    assert "1099/111 train/test rows" in proc.stdout
    assert "annthyroid: no annthyroid.npz or annthyroid.mat" in proc.stdout
