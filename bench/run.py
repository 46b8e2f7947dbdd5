"""
Benchmark of the timeshift CLI pipeline.

    python3 bench/run.py --workload cohort_wide --seed 1 --seconds 30 --trace 0

Runs the real CLI one stage process at a time on inputs made from --seed,
repeats the workload's stages until --seconds are measured (at least twice),
checks every stage's outputs, and prints a report followed by one JSON line
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones (setup_s, pipeline_s, peak_rss_mb); with
--trace 1 every other repetition runs each stage under bench/tracer.py, and
the metrics are the per-layer times and counts from its spans plus the
untraced stage wall times. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH / "tracer.py"

STAGES = ("simulate", "extract", "train", "evaluate", "predict", "explain")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


@dataclass(frozen=True)
class Workload:
    participants: int
    trials: int
    stages: tuple[str, ...]
    tiny: tuple[int, int]  # (participants, trials) for the self-test


WORKLOADS = {
    # 100k trials as 50k two-trial participants: per-participant and per-row
    # Python work in simulate, extract, predict and explain.
    "cohort_wide": Workload(
        50_000, 2, ("simulate", "extract", "train", "predict", "explain"), (1_000, 2)
    ),
    # The same 100k trials as 1k sessions of 100: a few long sequential chains
    # in simulate and pairing instead of many short ones.
    "sessions_long": Workload(1_000, 100, ("simulate", "extract"), (100, 10)),
    # LOOCV after undersampling, about 1.2k folds: repeated fits, scaler calls
    # and fold bookkeeping.
    "loocv": Workload(1_500, 2, ("evaluate",), (400, 2)),
}

# Every workload has these, so they are the end-to-end metrics; the stage
# wall times are reported with the per-layer metrics.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One invocation of the program, which fails on a non-zero exit or a failed check."""

    rep: int
    stage: str
    traced: bool
    wall_s: float
    rss_mb: float
    code: int
    artifacts: dict[str, str] = field(default_factory=dict)  # path -> sha256
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.problems)


class Runner:
    """Starts one program process at a time and waits for it to end."""

    def __init__(self, deadline: float, log_dir: Path):
        self.deadline = deadline
        self.log_dir = log_dir
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self.env = env

    def run(self, argv: list[str], name: str) -> tuple[float, float, int]:
        """Wall seconds, max RSS in MB and exit code of one process."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return 0.0, 0.0, -1
        with open(self.log_dir / f"{name}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def stage_argv(stage: str, rep: Path, trials_csv: Path, seed: int, shape, row: int):
    participants, trials = shape
    features, model = rep / "features.csv", rep / "model.json"
    return {
        "simulate": [
            "simulate", "--seed", str(seed), "--participants", str(participants),
            "--trials", str(trials), "--output", str(rep / "sim.csv"),
        ],
        "extract": ["extract", "--input", str(trials_csv), "--output", str(features)],
        "train": ["train", "--seed", str(seed), "--input", str(features), "--output", str(model)],
        "evaluate": [
            "evaluate", "--seed", str(seed), "--input", str(trials_csv),
            "--output", str(rep / "report.json"),
        ],
        "predict": [
            "predict", "--model", str(model), "--features", str(features),
            "--output", str(rep / "outcomes.csv"),
        ],
        "explain": [
            "explain", "--model", str(model), "--features", str(features),
            "--output-dir", str(rep / "shap"), "--row", str(row),
        ],
    }[stage]


def _files(directory: Path) -> set[Path]:
    return {p for p in directory.rglob("*") if p.is_file()}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_rep(runner, workload, index, traced, work, trials_csv, seed, shape, row):
    """One pass over the workload's stages; returns its ops and span files."""
    rep = work / f"rep{index}"
    rep.mkdir()
    ops, span_files = [], []
    for stage in workload.stages:
        argv = stage_argv(stage, rep, trials_csv, seed, shape, row)
        name = f"rep{index}-{stage}"
        if traced:
            span_files.append(work / f"{name}.spans.json")
            argv = [str(TRACER), str(span_files[-1]), *argv]
        else:
            argv = ["-m", "timeshift", *argv]
        before = _files(rep)
        wall, rss, code = runner.run(argv, name)
        artifacts = {str(p.relative_to(rep)): _sha256(p) for p in sorted(_files(rep) - before)}
        ops.append(Op(index, stage, traced, wall, rss, code, artifacts))
    return ops, span_files


def check_stage(op: Op, rep: Path, cohort, pairs, seed, shape, row) -> list[str]:
    model = rep / "model.json"
    if op.stage == "simulate":
        return checks.check_simulate(rep / "sim.csv", *shape)
    if op.stage == "extract":
        return checks.check_extract(rep / "features.csv", pairs)
    if op.stage == "train":
        return checks.check_train(model, pairs)
    if op.stage == "evaluate":
        return checks.check_evaluate(rep / "report.json", cohort, pairs, seed)
    if op.stage == "predict":
        return checks.check_predict(rep / "outcomes.csv", model, pairs)
    return checks.check_explain(rep / "shap", model, pairs, row)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n}
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            out["tail_pct"], out["tail"] = q, float(np.percentile(values, q))
            break
    else:
        out["tail_pct"], out["tail"] = None, None
    return out


def stage_walls(ops: list[Op], traced: bool) -> dict[int, dict[str, float]]:
    """rep -> stage -> wall seconds, over the untraced or the traced reps."""
    walls = defaultdict(dict)
    for op in ops:
        if op.rep >= 0 and op.traced == traced:
            walls[op.rep][op.stage] = op.wall_s
    return walls


def end_to_end(setup: list[float], ops: list[Op], stages) -> dict:
    walls = stage_walls(ops, traced=False)
    rss = defaultdict(float)
    for op in ops:
        if op.rep >= 0 and not op.traced:
            rss[op.rep] = max(rss[op.rep], op.rss_mb)
    series = {
        "setup_s": setup,
        "pipeline_s": [sum(rep.values()) for rep in walls.values()],
        "peak_rss_mb": list(rss.values()),
    }
    for stage in stages:
        series[f"{stage}_s"] = [rep[stage] for rep in walls.values()]
    return series


def span_totals(docs: list[dict]) -> tuple[dict, dict, dict]:
    """Per-name total seconds, self seconds and counts over one rep's stage spans."""
    total, self_s, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    for doc in docs:
        covered = defaultdict(float)
        for span in doc["spans"]:
            duration = span["end"] - span["start"]
            total[span["name"]] += duration
            counts[f"{span['name']}.calls"] += 1
            for key, value in span["counts"].items():
                counts[f"{span['name']}.{key}"] += value
            if span["parent"] is not None:
                covered[span["parent"]] += duration
            for name, entry in span["per_call"].items():
                total[name] += entry["total_s"]
                covered[span["id"]] += entry["total_s"]
                counts[f"{name}.calls"] += entry["calls"]
                for key, value in entry["counts"].items():
                    counts[f"{name}.{key}"] += value
        for span in doc["spans"]:
            self_s[span["name"]] += span["end"] - span["start"] - covered[span["id"]]
    return total, self_s, counts


PER_LAYER_TIMES = (
    "simulator.generate_trials",
    "data.write_trials_csv",
    "data.load_trials",
    "data.pair_consecutive",
    "features.build_features",
    "features.write_feature_csv",
    "features.load_feature_csv",
    "features.feature_matrix",
    "features.fit_scaler",
    "features.transform",
    "logistic.fit",
    "logistic.predict_proba",
    "evaluation.undersample",
    "evaluation.loocv",
    "explain.shap_values",
    "explain.write_scatter_csv",
    "explain.aggregate_shap",
)
PER_LAYER_COUNTS = {
    "simulator.participants": "simulator.generate_trials.participants",
    "simulator.trials": "simulator.generate_trials.trials",
    "data.rows_read": "data.load_trials.rows",
    "data.pairs": "data.pair_consecutive.pairs",
    "features.scaler_calls": "features.fit_scaler.calls",
    "logistic.fit_calls": "logistic.fit.calls",
    "logistic.newton_iters": "logistic.fit.newton_iters",
    "logistic.fit_nonconverged": "logistic.fit.nonconverged",
    "evaluation.folds": "evaluation.loocv.folds",
    "explain.shap_calls": "explain.shap_values.calls",
}
PER_LAYER_BYTES = {
    "data.trials_csv_bytes": "data.load_trials.bytes",
    "features.csv_bytes": "features.write_feature_csv.bytes",
    "explain.scatter_bytes": "explain.write_scatter_csv.bytes",
}
REPORT_FUNCTIONS = ("evaluation.metrics", "evaluation.confusion_2x2", "evaluation.magnitude_confusion")


def per_layer(docs: list[dict]) -> dict[str, float]:
    """Per-layer seconds and counts of one traced rep."""
    total, self_s, counts = span_totals(docs)
    out = {f"{name}_s": total[name] for name in PER_LAYER_TIMES}
    out["evaluation.loocv_self_s"] = self_s["evaluation.loocv"]
    out["evaluation.report_s"] = sum(total[name] for name in REPORT_FUNCTIONS)
    for stage in STAGES:
        out[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
    for metric, key in {**PER_LAYER_COUNTS, **PER_LAYER_BYTES}.items():
        out[metric] = counts[key]
    return out


def per_layer_units() -> dict[str, str]:
    units = {f"{stage}_s": "s" for stage in STAGES}
    units["fail_rate"] = "ratio"
    units.update({f"{name}_s": "s" for name in PER_LAYER_TIMES})
    units.update({"evaluation.loocv_self_s": "s", "evaluation.report_s": "s"})
    units.update({f"cli.{stage}.self_s": "s" for stage in STAGES})
    units.update({name: "count" for name in PER_LAYER_COUNTS})
    units.update({name: "bytes" for name in PER_LAYER_BYTES})
    units.update({"logistic.fit_p50_ms": "ms", "logistic.fit_tail_ms": "ms", "trace_overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return result.stdout.strip() or None


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def metadata() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # On SIGTERM, unwind so that the running stage process is killed and
    # reaped, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "timeshift" / "__init__.py").is_file():
        print(f"error: no timeshift package under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    shape = workload.tiny if args.tiny else (workload.participants, workload.trials)
    meta = {**metadata(), "loadavg_before": _loadavg()}

    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(started + RUN_LIMIT_S, work)
        ops: list[Op] = []
        setup: list[float] = []
        for i in range(SETUP_REPEATS + 1):  # the first fills the bytecode cache
            wall, _, code = runner.run(["-m", "timeshift", "--version"], f"setup{i}")
            ops.append(Op(-1, "setup", False, wall, 0.0, code))
            if i:
                setup.append(wall)

        cohort = inputs.make_cohort(args.seed, *shape)
        pairs = inputs.pairs(cohort)
        trials_csv = work / "trials.csv"
        inputs.write_trials_csv(cohort, trials_csv)
        row = int(np.random.default_rng([args.seed, 2]).integers(len(pairs.decrease)))

        span_files: dict[int, list[Path]] = {}
        measured, index = time.monotonic(), 0
        while True:
            traced = bool(args.trace) and index % 2 == 1
            rep_ops, files = run_rep(
                runner, workload, index, traced, work, trials_csv, args.seed, shape, row
            )
            ops.extend(rep_ops)
            if traced:
                span_files[index] = files
            if index:
                reference = {}
                for op in ops:
                    if op.rep == 0:
                        reference.setdefault(op.stage, op.artifacts)
                for op in rep_ops:
                    if op.artifacts != reference[op.stage]:
                        op.problems.append("artifacts differ from repetition 0")
                shutil.rmtree(work / f"rep{index}")
            index += 1
            if time.monotonic() - started > RUN_LIMIT_S:
                break
            if index >= 2 and time.monotonic() - measured >= args.seconds:
                break

        for op in ops:
            if op.rep == 0 and op.code == 0:
                try:
                    op.problems += check_stage(
                        op, work / "rep0", cohort, pairs, args.seed, shape, row
                    )
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    op.problems.append(f"check raised {type(exc).__name__}: {exc}")

        series = end_to_end(setup, ops, workload.stages)
        traced_docs = {
            i: [json.loads(p.read_text()) for p in files if p.exists()]
            for i, files in span_files.items()
        }
        layers = per_layer_report(traced_docs, ops) if args.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["loadavg_after"] = _loadavg()

    failed = [op for op in ops if op.failed]
    summaries = {name: summary(values) for name, values in series.items()}
    e2e = {name: summaries.pop(name) for name in END_TO_END}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shape": {"participants": shape[0], "trials": shape[1]},
        "meta": meta,
        "repetitions": index,
        "end_to_end": e2e,
        "stages": summaries,
        "per_layer": layers,
        "fail_rate": len(failed) / len(ops),
        "ops": [
            {"rep": op.rep, "stage": op.stage, "traced": op.traced, "wall_s": op.wall_s,
             "rss_mb": op.rss_mb, "code": op.code}
            for op in ops
        ],
        "failures": [
            {"rep": op.rep, "stage": op.stage, "code": op.code, "problems": op.problems}
            for op in failed
        ],
    }
    print_report(report)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": layers[name]["median"], "unit": units[name]} for name in units}
    else:
        metrics = {
            name: {"value": e2e[name]["median"], "unit": unit} for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def per_layer_report(traced_docs: dict[int, list[dict]], ops: list[Op]) -> dict:
    """Per-layer summaries over the traced reps, plus the untraced stage wall
    times, the fail rate and the tracing overhead."""
    series = defaultdict(list)
    for rep in stage_walls(ops, traced=False).values():
        for stage in STAGES:
            series[f"{stage}_s"].append(rep.get(stage, 0.0))
    fit_ms = []
    for docs in traced_docs.values():
        for name, value in per_layer(docs).items():
            series[name].append(value)
        for doc in docs:
            fit_ms += [1000.0 * s for s in doc["samples"].get("logistic.fit", [])]
    layers = {name: summary(values) for name, values in series.items()}
    fit = summary(fit_ms)
    layers["logistic.fit_p50_ms"] = {**fit, "median": fit["median"] or 0.0}
    layers["logistic.fit_tail_ms"] = {
        **fit, "median": fit["tail"] if fit["tail"] is not None else (fit["median"] or 0.0)
    }
    traced, untraced = (
        [sum(rep.values()) for rep in stage_walls(ops, flag).values()] for flag in (True, False)
    )
    # A run cut short by RUN_LIMIT_S may have no traced rep; its ops failed.
    overhead = statistics.median(traced) - statistics.median(untraced) if traced else 0.0
    layers["trace_overhead_s"] = {"median": overhead, "n": len(traced), "tail_pct": None, "tail": None}
    layers["fail_rate"] = {
        "median": sum(op.failed for op in ops) / len(ops), "n": len(ops), "tail_pct": None, "tail": None
    }
    return layers


def print_report(report: dict) -> None:
    print(f"# timeshift benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}, {report['repetitions']} repetitions, "
          f"{report['shape']['participants']} participants x {report['shape']['trials']} trials")
    print("# meta " + json.dumps(report["meta"], sort_keys=True))
    units = {**END_TO_END, **{f"{s}_s": "s" for s in STAGES}, **per_layer_units()}
    for section in ("end_to_end", "stages", "per_layer"):
        for name, s in report[section].items():
            tail = f"p{s['tail_pct']:g} {s['tail']:.6g}" if s["tail"] is not None else "tail n/a"
            print(f"{section:10} {name:32} {s['median']:>14.6g} {units[name]:6} "
                  f"(median of {s['n']}, {tail})")
    print(f"{'result':10} {'fail_rate':32} {report['fail_rate']:>14.6g} ratio")
    for failure in report["failures"]:
        print("# FAILED " + json.dumps(failure))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
