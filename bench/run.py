"""Run one benchmark workload through the seisfrag CLI and print its metrics.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Every command goes through `seisfrag.cli.main` in this process, in sequence.
A run sets up three times (a fresh interpreter importing the CLI, a fresh
workspace under bench/work/, the identification records), then runs the
workload's plan of units: pipeline units, each in an empty workspace, and
identification units, interleaved so that the samples of every stage span
the run; further pipeline units follow while they fit in --seconds. Every
command and every output check is one operation. Stage times are medians
over the units of the run, each command's wall time scaled to the
reference machine speed that probe() measures around and during it. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; stderr carries the raw wall times, one line per unit.

With --trace 1 the run times one pipeline and one identification unit
untraced, then the same two with spans around the program's public
functions, and prints the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the matrices are small, and a second thread only adds
# the other core's load to the timings. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
TRACES = BENCH / "traces"


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "seisfrag" / "cli.py").is_file():
    _fail(f"no program source at {SRC / 'seisfrag'}; run from a full checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Records, Workload  # noqa: E402

import seisfrag  # noqa: E402
from seisfrag import cli  # noqa: E402

if Path(seisfrag.__file__).resolve().parent != SRC / "seisfrag":
    _fail(f"imported seisfrag from {seisfrag.__file__}, not from {SRC}")

SETUPS = 3
PROBE_REFERENCE_S = 0.011  # probe() on the reference machine at its typical speed
PROBE_INTERVAL_S = 2.0
_PROBE_VEC = np.linspace(0.0, 1.0, 3000)
_PROBE_MAT = np.linspace(0.0, 1.0, 100 * 100).reshape(100, 100)
STAGES = ("generate_s", "generate_reuse_s", "labels_s", "learn_linear_s", "learn_rbf_s",
          "fragility_linear_s", "fragility_rbf_s", "identify_s")
QUALITY = ("prbp_linear", "prbp_rbf", "delta_l2_linear", "delta_l2_rbf")


def probe() -> float:
    """Seconds for a fixed mix of interpreter, vector and matrix work; median of three.

    It stands for the speed of the machine at this moment, which on a shared
    host drifts by a fifth within a minute.
    """
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(80000):
            acc += i * 0.5
        for _ in range(160):
            np.sin(_PROBE_VEC) + np.exp(-_PROBE_VEC)
        for _ in range(40):
            _PROBE_MAT @ _PROBE_MAT
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def setup(workload: Workload, seed: int, index: int) -> tuple[Path, Records, float]:
    """Fresh interpreter importing the CLI, fresh workspace, the workload's records.

    Returns the workspace, the records and the set-up time scaled to the
    reference machine speed like the command times (probe before and after).
    """
    before = probe()
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    subprocess.run([sys.executable, "-c", "import seisfrag.cli"], env=env, check=True)
    ws = WORK / f"{workload.name}-s{seed}-{os.getpid()}-{index}"
    shutil.rmtree(ws, ignore_errors=True)
    ws.mkdir(parents=True)
    records = workload.write_records(ws)
    elapsed = time.perf_counter() - t0
    return ws, records, elapsed * PROBE_REFERENCE_S / statistics.mean([before, probe()])


def run_command(argv, tracer: tracing.Tracer | None) -> tuple[float, list[float]]:
    """Wall seconds of one CLI command, and the probe() samples taken while it ran.

    Untraced, a timer samples probe() every PROBE_INTERVAL_S during the
    command (the handler runs between bytecodes); the time spent in the
    samples is taken out of the command's time.
    """
    during: list[float] = []
    spent = [0.0]

    def sample(signum, frame):
        t0 = time.perf_counter()
        during.append(probe())
        spent[0] += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, sample) if tracer is None else None
    if tracer is None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer:
                tracer.span(tracing.COMMAND_SPAN, cli.main, argv)
            else:
                cli.main(argv)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return elapsed - spent[0], during


def run_unit(steps, unit_checks, tracer: tracing.Tracer | None) -> dict:
    """Commands in order, then the checks that read their outputs.

    Each command's wall time is also scaled to the reference machine speed:
    multiplied by PROBE_REFERENCE_S over the mean of the probe() samples
    taken just before, during and just after it.
    """
    raw: dict[str, dict[int, float]] = {}
    scaled: dict[str, dict[int, float]] = {}
    failed = 0
    before = probe()
    for k, step in enumerate(steps):
        if tracer:
            tracer.command = step.tag
        try:
            elapsed, during = run_command(step.argv, tracer)
        except Exception:  # counted as failed, with the commands that depend on it
            traceback.print_exc(file=sys.stderr)
            failed += len(steps) - k + len(unit_checks)
            return {"times": {}, "raw": {}, "failed": failed, "correct": False, "complete": False}
        after = probe()
        factor = PROBE_REFERENCE_S / statistics.mean([before, *during, after])
        before = after
        for metric, repeat in (("total_s", 0), (step.metric, step.repeat)):
            for table, value in ((raw, elapsed), (scaled, elapsed * factor)):
                sums = table.setdefault(metric, {})
                sums[repeat] = sums.get(repeat, 0.0) + value
    # a stage's time in this unit: its commands summed, median over repeats
    times = {m: statistics.median(sums.values()) for m, sums in scaled.items()}
    raw_times = {m: statistics.median(sums.values()) for m, sums in raw.items()}
    correct = True
    for name, check in unit_checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a check that cannot read its inputs fails
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            correct = False
            print(f"bench: check {name} failed: {detail}", file=sys.stderr)
    return {"times": times, "raw": raw_times, "failed": failed, "correct": correct,
            "complete": True}


def store_size(ws: Path) -> tuple[int, float]:
    files = [p for p in ws.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files) / 2**20


def per_layer(tracer: tracing.Tracer) -> dict[str, float]:
    """Per-layer values of one traced unit, keyed by metric name."""
    out: dict[str, float] = {}
    for name, (calls, self_s) in tracer.self_times().items():
        key = "cli" if name == tracing.COMMAND_SPAN else name
        out[f"{key}.calls"] = calls
        out[f"{key}.self_s"] = self_s
    out.update(tracer.counts)
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (SRC / "seisfrag").glob("*.py"))


class Run:
    """One run: set-ups, then identification and pipeline units, with their results."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setups: list[float] = []
        for i in range(SETUPS):
            ws, records, seconds = setup(workload, seed, i)
            self.setups.append(seconds)
            if i == 0:
                self.records_ws, self.records = ws, records
            else:  # timed only: the run works in the first set-up's workspace
                shutil.rmtree(ws, ignore_errors=True)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.quality: list[dict] = []

    def _account(self, steps, unit_checks, result) -> dict:
        self.attempted += len(steps) + len(unit_checks)
        self.failed += result["failed"]
        self.correct &= result["correct"]
        return result

    def identify_unit(self, tracer=None) -> dict:
        w, ws = self.workload, self.records_ws
        steps = w.identify_steps(ws, self.records, self.seed)
        unit_checks = w.identify_checks(ws, self.records)
        return self._account(steps, unit_checks, run_unit(steps, unit_checks, tracer))

    def pipeline_unit(self, tracer=None) -> dict:
        w = self.workload
        ws = WORK / f"{w.name}-s{self.seed}-{os.getpid()}-p{len(self.quality)}"
        shutil.rmtree(ws, ignore_errors=True)
        ws.mkdir(parents=True)
        steps, unit_checks = w.pipeline_steps(ws), w.pipeline_checks(ws)
        result = self._account(steps, unit_checks, run_unit(steps, unit_checks, tracer))
        if result["complete"]:
            self.quality.append(w.quality(ws))
        result["store"] = store_size(ws)
        shutil.rmtree(ws, ignore_errors=True)
        return result

    def measure(self, plan: str, seconds: float, traced: bool = False) -> tuple[list, list]:
        """Units in the order of plan ("p" pipeline, "i" identification), then
        further pipeline units while they fit in the given seconds.

        Returns (identification units, pipeline units) as (result, tracer)
        pairs; a traced unit runs with its own tracer installed.
        """
        start = time.perf_counter()
        units = {"i": [], "p": []}
        last_pipe = 0.0
        for kind in itertools.chain(plan, itertools.repeat("p")):
            if kind == "p" and len(units["p"]) >= plan.count("p") and (
                    time.perf_counter() - start + last_pipe > seconds):
                return units["i"], units["p"]
            tracer = tracing.Tracer() if traced else None
            t0 = time.perf_counter()
            if tracer:
                tracer.install()
            try:
                result = self.identify_unit(tracer) if kind == "i" else self.pipeline_unit(tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            if kind == "p":
                last_pipe = time.perf_counter() - t0
            units[kind].append((result, tracer))
            print(f"bench: unit {kind} at {t0 - start:.1f} s: {json.dumps(result['raw'])}",
                  file=sys.stderr)

    def close(self) -> None:
        shutil.rmtree(self.records_ws, ignore_errors=True)


def _median(units, key: str) -> float:
    return statistics.median(u["times"].get(key, 0.0) for u, _ in units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the reduced sizes of the benchmark's own tests")
    args = parser.parse_args(argv)
    warnings.filterwarnings("ignore", message=r"pool_size \d+ is below the production floor")

    run = Run(WORKLOADS[args.workload](args.size), args.seed)
    try:
        if args.trace:
            plain_ids, plain_pipes = run.measure("pi", 0.0)
            ids, pipes = run.measure("pi", 0.0, traced=True)
        else:
            ids, pipes = run.measure(run.workload.plan, args.seconds)
    finally:
        run.close()

    # the quality figures are a pure function of the inputs: every unit must agree
    correct = run.correct and bool(run.quality) and all(q == run.quality[0] for q in run.quality)
    if args.trace:
        metrics = trace_metrics(ids, pipes, plain_ids, plain_pipes, args)
    else:
        metrics = {"setup_s": {"value": statistics.median(run.setups), "unit": "s"},
                   "total_s": {"value": _median(ids, "total_s") + _median(pipes, "total_s"),
                               "unit": "s"},
                   "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                   "unit": "MB"}}
        for name in STAGES:
            units = ids if name == "identify_s" else pipes
            metrics[name] = {"value": _median(units, name), "unit": "s"}
        for name in QUALITY:
            metrics[name] = {"value": run.quality[0][name] if run.quality else 0.0, "unit": "1"}
    print(json.dumps({"correct": bool(correct), "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def trace_metrics(ids, pipes, plain_ids, plain_pipes, args) -> dict:
    """Per-layer metrics of one identification unit plus one pipeline unit (medians)."""
    layers: dict[str, float] = {}
    for units in (ids, pipes):
        values = [per_layer(t) for _, t in units]
        for key in set().union(*values):
            layers[key] = layers.get(key, 0.0) + statistics.median(v.get(key, 0.0) for v in values)
    raw = layers.get("kde.sample_raw.calls", 0.0)
    layers["kde.acceptance"] = layers.get("kde.sample_theta.calls", 0.0) / raw if raw else 0.0
    offered = layers.get("preprocess.offered", 0.0)
    layers["preprocess.kept_fraction"] = layers.get("preprocess.kept", 0.0) / offered if offered else 0.0
    files, mb = zip(*(u["store"] for u, _ in pipes))
    layers["cli.workspace_files"] = statistics.median(files)
    layers["cli.workspace_mb"] = statistics.median(mb)
    traced_total = _median(ids, "total_s") + _median(pipes, "total_s")
    plain_total = _median(plain_ids, "total_s") + _median(plain_pipes, "total_s")
    layers["trace.overhead_s"] = traced_total - plain_total
    layers["src.lines"] = src_lines()
    missing = sorted({m for _, t in ids + pipes for m in t.missing})
    for name in missing:
        print(f"bench: traced function missing: seisfrag.{name}", file=sys.stderr)
    TRACES.mkdir(parents=True, exist_ok=True)
    for k, (_, tracer) in enumerate(ids + pipes):
        tracer.write(TRACES / f"{args.workload}-s{args.seed}-{os.getpid()}-{k}.jsonl")
    return {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in tracing.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
