"""The benchmark's span tracer still runs the CLI stages it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

from timeshift.cli import main

ROOT = Path(__file__).resolve().parents[1]


def traced(spans, *argv):
    """Run one CLI stage under bench/tracer.py; returns its exit code and spans."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return result.returncode, json.loads(spans.read_text())["spans"], result.stderr


def test_tracer_runs_evaluate_and_explain(tmp_path):
    config = tmp_path / "config.json"
    # prevalence 0.3 keeps the sensitivity column varying, so train can fit
    config.write_text(json.dumps(
        {"seed": 5, "sim": {"n_participants": 60, "n_trials": 2, "sensitivity_prevalence": 0.3}}
    ))
    cfg = str(config)
    trials, features, model = tmp_path / "trials.csv", tmp_path / "f.csv", tmp_path / "m.json"
    assert main(["simulate", "--config", cfg, "--output", str(trials)]) == 0
    for stage, source, target in (("extract", trials, features), ("train", features, model)):
        assert main([stage, "--config", cfg, "--input", str(source), "--output", str(target)]) == 0

    report = tmp_path / "report.json"
    code, spans, err = traced(tmp_path / "evaluate.json", "evaluate", "--config", cfg,
                              "--input", str(trials), "--output", str(report))
    assert code == 0, err
    (loocv,) = [span for span in spans if span["name"] == "evaluation.loocv"]
    assert loocv["counts"] == {"folds": json.loads(report.read_text())["n"]}

    code, spans, err = traced(tmp_path / "explain.json", "explain", "--config", cfg,
                              "--model", str(model), "--features", str(features),
                              "--output-dir", str(tmp_path / "shap"))
    assert code == 0, err
    assert spans[0]["name"] == "cli.explain"
