"""Smoke tests for the example scripts: each runs to completion at a small size."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_synthetic_benchmark_script(tmp_path):
    out = tmp_path / "bench"
    proc = run_script("run_synthetic_benchmark.py", "--out-dir", str(out),
                      "--queries", "16", "--candidates", "4", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    for name in ("bench.jsonl", "model.json", "train.jsonl", "test.jsonl",
                 "eval/report.json", "eval/ablation.csv", "rerank/accuracy.csv",
                 "rerank/selections.jsonl"):
        assert (out / name).is_file(), name
    assert "model PR-AUC" in proc.stdout


def test_coverage_demo_script(tmp_path):
    proc = run_script("coverage_demo.py", "--out-dir", str(tmp_path),
                      "--width", "64", "--height", "48", "--inliers", "40")
    assert proc.returncode == 0, proc.stderr
    for name in ("spread", "one_cluster", "two_clusters"):
        assert (tmp_path / f"{name}.pgm").read_bytes().startswith(b"P5")
