"""Spans around the program's public functions, installed from outside.

A traced call records (trace id, span id, parent id, name, start, end). The
wrappers are rebound in every `seisfrag` module namespace that holds the
original function, because `cli` imports functions by name; methods are
wrapped on their class. Untraced runs install nothing.

Work counts are read only from arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import uuid
from collections import defaultdict
from pathlib import Path

# (module, attribute path) of every timed public function, by layer
TIMED = (
    ("ground_motion", "synthesize"),
    ("ground_motion", "highpass_correct"),
    ("ground_motion", "write_signal_binary"),
    ("ground_motion", "read_signal_binary"),
    ("ground_motion", "unit_variance_process"),
    ("ground_motion", "read_signal_csv"),
    ("kde", "kristan_bandwidth"),
    ("kde", "sample_theta"),
    ("kde", "sample_raw"),
    ("ensemble", "reference_ensemble"),
    ("features", "extract"),
    ("oscillator", "solve_linear"),
    ("oscillator", "solve_nonlinear"),
    ("preprocess", "filter_pool"),
    ("preprocess", "fit"),
    ("preprocess", "apply"),
    ("learning", "train_svm"),
    ("learning", "active_learn"),
    ("learning", "Kernel.matrix"),
    ("learning", "SvmModel.score"),
    ("learning", "prbp"),
    ("fragility", "fit_logistic"),
    ("fragility", "curve"),
    ("fragility", "bin_by_projection"),
    ("fragility", "hybrid_probability"),
    ("fragility", "labeled_only_diagnostic"),
    ("identification", "identify"),
    ("identification", "fit_modulation"),
    ("identification", "fit_filter_frequencies"),
    ("identification", "expected_upcrossing_count"),
    ("identification", "fit_damping"),
    ("identification", "count_irregular_extrema"),
    ("cli", "read_features_csv"),
    ("cli", "read_labels_csv"),
    ("cli", "read_model_csv"),
)

# layers whose metrics are split by the CLI command they run under
BY_COMMAND = ("learning", "fragility")
COMMAND_SPAN = "cli.command"


def _timed(*names):
    return [(f"{n}.{q}", "count" if q == "calls" else "s") for n in names for q in ("calls", "self_s")]


def _per_layer() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit."""
    out = _timed("ground_motion.synthesize")
    out += [("ground_motion.synthesize.samples", "count")]
    out += _timed("ground_motion.highpass_correct", "ground_motion.write_signal_binary",
                  "ground_motion.read_signal_binary", "ground_motion.unit_variance_process",
                  "ground_motion.read_signal_csv", "kde.kristan_bandwidth", "kde.sample_theta",
                  "kde.sample_raw", "ensemble.reference_ensemble")
    out += [("kde.acceptance", "1")]
    out += _timed("features.extract", "oscillator.solve_linear")
    out += [("oscillator.solve_linear.steps", "count")]
    for preset in ("p2_5", "p5", "p10"):
        out += _timed(f"oscillator.solve_nonlinear.{preset}")
        out += [(f"oscillator.solve_nonlinear.{preset}.steps", "count")]
    out += _timed("preprocess.filter_pool", "preprocess.fit", "preprocess.apply")
    out += [("preprocess.kept_fraction", "1")]
    for command in ("learn_linear", "learn_rbf", "fragility_linear", "fragility_rbf"):
        ns = f"{command}.learning"
        if command.startswith("learn"):
            out += [(f"{ns}.active_learn.self_s", "s")]
        out += _timed(f"{ns}.train_svm")
        out += [(f"{ns}.train_svm.points", "count"), (f"{ns}.train_svm.unconverged", "count")]
        out += _timed(f"{ns}.Kernel.matrix")
        out += [(f"{ns}.Kernel.matrix.elements", "count")]
        out += _timed(f"{ns}.SvmModel.score")
        if command.startswith("learn"):
            out += _timed(f"{ns}.prbp")
    for command in ("fragility_linear", "fragility_rbf"):
        ns = f"{command}.fragility"
        out += _timed(f"{ns}.fit_logistic")
        out += [(f"{ns}.fit_logistic.separated", "count")]
        out += _timed(f"{ns}.curve", f"{ns}.bin_by_projection")
        out += [(f"{ns}.labeled_only_diagnostic.self_s", "s")]
        if command == "fragility_rbf":
            out += _timed(f"{ns}.hybrid_probability")
    out += _timed("identification.identify", "identification.fit_modulation",
                  "identification.fit_filter_frequencies",
                  "identification.expected_upcrossing_count", "identification.fit_damping",
                  "identification.count_irregular_extrema")
    out += [("cli.self_s", "s")]
    out += _timed("cli.read_features_csv", "cli.read_labels_csv", "cli.read_model_csv")
    out += [("cli.workspace_files", "count"), ("cli.workspace_mb", "MB")]
    out += [("trace.overhead_s", "s"), ("src.lines", "count")]
    return out


PER_LAYER = _per_layer()


def _preset_tag(structure) -> str:
    return "p" + f"{structure.f_l:g}".replace(".", "_")


class Tracer:
    """Collects spans and work counts in memory; writes them out at the end."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.command = ""  # tag of the CLI command being run, e.g. learn_rbf
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def span(self, key: str, fn, *args, **kwargs):
        """Run fn inside a span named key; returns fn's result."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"trace": self.trace_id, "id": span_id, "parent": parent, "name": key,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _key(self, module: str, attr: str, args) -> str:
        if module == "oscillator" and attr == "solve_nonlinear":
            return f"oscillator.solve_nonlinear.{_preset_tag(args[1])}"
        if module in BY_COMMAND:
            return f"{self.command}.{module}.{attr}"
        return f"{module}.{attr}"

    def _count(self, key: str, attr: str, args, result) -> None:
        c = self.counts
        if attr == "synthesize":
            c[key + ".samples"] += result.samples.size
        elif attr in ("solve_linear", "solve_nonlinear"):
            c[key + ".steps"] += result.samples.size
        elif attr == "train_svm":
            c[key + ".points"] += len(args[1])
            c[key + ".unconverged"] += not result.converged
        elif attr == "Kernel.matrix":
            c[key + ".elements"] += result.size
        elif attr == "fit_logistic":
            c[key + ".separated"] += bool(result.separated)
        elif attr == "filter_pool":
            c["preprocess.kept"] += len(result)
            c["preprocess.offered"] += len(args[0])

    def _wrap(self, module: str, attr: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            key = tracer._key(module, attr, args)
            result = tracer.span(key, original, *args, **kwargs)
            tracer._count(key, attr, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed function; names that no longer exist are reported."""
        modules = {name: importlib.import_module(f"seisfrag.{name}")
                   for name in {m for m, _ in TIMED}}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "seisfrag" or name.startswith("seisfrag.")]
        for module, attr in TIMED:
            owner = modules[module]
            *cls_path, fname = attr.split(".")
            try:
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[fname] if cls_path else getattr(owner, fname)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(module, attr, original)
            if cls_path:
                self._installed.append((owner, fname, original))
                setattr(owner, fname, wrapper)
                continue
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._installed.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def self_times(self, spans=None) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name; self = duration minus direct children."""
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in spans:
            entry = out[s["name"]]
            entry[0] += 1
            entry[1] += (s["end"] - s["start"]) - child_time[s["id"]]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path: Path) -> None:
        """One JSON object per span, then one line with the counts."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
            fh.write(json.dumps({"trace": self.trace_id, "counts": self.counts,
                                 "missing": self.missing}) + "\n")
