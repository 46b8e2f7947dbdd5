"""The README's quick starts run as written."""

import re
import shlex
from pathlib import Path

from timeshift.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("MetricsReport(")


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    (block,) = re.findall(
        r"## Quick start \(CLI\)\n+```bash\n(.*?)```", README.read_text(), re.DOTALL
    )
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("timeshift ")]
    assert [argv[1] for argv in commands] == [
        "simulate", "extract", "train", "evaluate", "predict", "explain",
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)


def test_config_example_runs(tmp_path, monkeypatch):
    (block,) = re.findall(r"```json\n(.*?)```", README.read_text(), re.DOTALL)
    (tmp_path / "config.json").write_text(block)
    monkeypatch.chdir(tmp_path)
    common = ["--config", "config.json"]
    assert main(["simulate", *common, "--participants", "20", "--output", "trials.csv"]) == 0
    assert main(["extract", *common, "--input", "trials.csv", "--output", "features.csv"]) == 0
