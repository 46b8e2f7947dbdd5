"""
Span tracer for one timeshift CLI stage, run as its own process:

    PYTHONPATH=src python3 bench/tracer.py SPANS.json STAGE [ARGS...]

It wraps each layer's public functions at the names where their callers look
them up (timeshift.cli.<name>, timeshift.evaluation.<name>), calls
timeshift.cli.main(argv) in-process under a root span 'cli.<stage>', keeps
the spans in memory and writes them to SPANS.json when the stage ends. It
exits with the stage's exit code.

A function called a few times per stage gets one span per call (name, start,
end, parent). A function called once per row or per fold gets no span: its
calls are counted and timed per caller, on the span that called it, so a
parent's self time is its span minus its child spans and its per-caller
totals. Metric names are '<module>.<function>', e.g. 'logistic.fit'.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from functools import wraps

# Called a few times per stage: one span per call.
SPAN_FUNCTIONS = (
    "generate_trials",
    "write_trials_csv",
    "load_trials",
    "pair_consecutive",
    "write_feature_csv",
    "load_feature_csv",
    "feature_matrix",
    "undersample",
    "loocv",
    "metrics",
    "confusion_2x2",
    "magnitude_confusion",
    "write_scatter_csv",
    "aggregate_shap",
)
# Called once per row or per fold: counted and timed per caller.
PER_CALL_FUNCTIONS = (
    "build_features",
    "fit_scaler",
    "transform",
    "fit",
    "predict_proba",
    "shap_values",
)
# Functions whose every call duration is kept, for percentiles.
SAMPLED = ("logistic.fit",)
# Caller modules and the names they look up in other layers.
CALL_SITES = {
    "timeshift.cli": SPAN_FUNCTIONS + PER_CALL_FUNCTIONS,
    "timeshift.evaluation": (
        "build_features",
        "feature_matrix",
        "fit_scaler",
        "transform",
        "fit",
        "predict_proba",
    ),
}


# Work counts recorded at the layer boundary, each O(1):
# name -> f(bound arguments, result) -> {count name: value}.
COUNTERS = {
    "simulator.generate_trials": lambda a, r: {
        "participants": a["n_participants"],
        "trials": len(r),
    },
    "data.load_trials": lambda a, r: {"rows": len(r), "bytes": os.path.getsize(a["path"])},
    "data.pair_consecutive": lambda a, r: {"pairs": len(r)},
    "features.write_feature_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "explain.write_scatter_csv": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "evaluation.loocv": lambda a, r: {"folds": len(r.outcomes)},
    "logistic.fit": lambda a, r: {
        "newton_iters": r.n_iter,
        "nonconverged": int(not r.converged),
    },
}


class Tracer:
    """Spans and per-caller call totals of one process, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.samples: dict[str, list[float]] = {name: [] for name in SAMPLED}

    def call(self, name: str, fn, args=(), kwargs=None, counts=None):
        """Run fn under a span whose parent is the innermost open span."""
        kwargs = kwargs or {}
        span = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "counts": {},
            "per_call": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def wrap(self, fn, per_call: bool):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        samples = self.samples.get(name)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def counts(args, kwargs, result) -> dict:
            if counter is None:
                return {}
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return counter(bound.arguments, result)

        if per_call:

            @wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                entry = self.stack[-1]["per_call"].setdefault(
                    name, {"calls": 0, "total_s": 0.0, "counts": {}}
                )
                entry["calls"] += 1
                entry["total_s"] += elapsed
                if samples is not None:
                    samples.append(elapsed)
                for key, value in counts(args, kwargs, result).items():
                    entry["counts"][key] = entry["counts"].get(key, 0) + value
                return result

        else:

            @wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, counts)

        return wrapper

    def install(self) -> None:
        """Replace the layer functions at every call site in CALL_SITES."""
        for module_name, names in CALL_SITES.items():
            module = sys.modules[module_name]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # a later refactor may drop a call site
                setattr(module, attr, self.wrap(fn, per_call=attr in PER_CALL_FUNCTIONS))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "samples": self.samples}, fh)


def main(argv: list[str]) -> int:
    out, stage_argv = argv[0], argv[1:]
    import timeshift.cli  # imports every layer module that CALL_SITES names

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.call(f"cli.{stage_argv[0]}", timeshift.cli.main, (stage_argv,))
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
