"""Fast tests of the benchmark itself: a tiny pass of both workloads, and for
every output check one corrupted output that the check must reject.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from seisfrag import cli  # noqa: E402

WORK = BENCH / "work" / "tests"
END_TO_END = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
PER_LAYER = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}


def run_bench(*args) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], check=True,
                         capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyPass(unittest.TestCase):
    def test_both_workloads_pass(self):
        for name in ("desk", "identify"):
            with self.subTest(workload=name):
                result = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                                   "--trace", "0", "--size", "tiny")
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), END_TO_END)
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = run_bench("--workload", "desk", "--seed", "3", "--seconds", "1",
                           "--trace", "1", "--size", "tiny")
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), PER_LAYER)
        self.assertEqual({n for n, _ in tracing.PER_LAYER}, PER_LAYER)
        m = result["metrics"]
        self.assertGreater(m["ground_motion.synthesize.calls"]["value"], 0)
        self.assertGreater(m["oscillator.solve_nonlinear.p10.steps"]["value"], 0)
        self.assertGreater(m["learn_rbf.learning.Kernel.matrix.elements"]["value"], 0)
        self.assertGreater(m["identification.fit_damping.calls"]["value"], 0)


def _rewrite(path: Path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _scale_column(path: Path, column: int, factor: float, rows=None, header=1):
    def edit(lines):
        out = lines[:header]
        for k, line in enumerate(lines[header:]):
            parts = line.rstrip("\n").split(",")
            if rows is None or k in rows:
                parts[column] = repr(float(parts[column]) * factor)
            out.append(",".join(parts) + "\n")
        return out
    _rewrite(path, edit)


class CorruptedOutputs(unittest.TestCase):
    """Each check accepts the tiny workspace and rejects one corruption of it."""

    @classmethod
    def setUpClass(cls):
        warnings.filterwarnings("ignore", message=r"pool_size \d+ is below the production floor")
        cls.workload = WORKLOADS["desk"]("tiny")
        cls.clean = WORK / "clean"
        shutil.rmtree(WORK, ignore_errors=True)
        cls.clean.mkdir(parents=True)
        cls.records = cls.workload.write_records(cls.clean)
        steps = (cls.workload.pipeline_steps(cls.clean)
                 + cls.workload.identify_steps(cls.clean, cls.records, seed=3))
        with contextlib.redirect_stdout(io.StringIO()):
            for step in steps:
                cli.main(step.argv)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def assert_rejects(self, check, corrupt, *args):
        ok, detail = check(self.clean, *args)
        self.assertTrue(ok, detail)
        bad = WORK / "bad"
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(self.clean, bad)
        corrupt(bad)
        ok, detail = check(bad, *args)
        self.assertFalse(ok, detail)

    def test_kept_set(self):
        def drop_row(ws):
            _rewrite(ws / "labels_5.csv", lambda lines: lines[:-1])
        self.assert_rejects(checks.check_kept_set, drop_row, "5")

    def test_label_threshold(self):
        def flip(ws):
            _scale_column(ws / "labels_10.csv", 7, -1.0, rows={0})
        self.assert_rejects(checks.check_label_threshold, flip, "10")

    def test_reuse_rows(self):
        self.assert_rejects(checks.check_reuse_rows,
                            lambda ws: _scale_column(ws / "features_2.5.csv", 9, 1.001, rows={2}))

    def test_energy(self):
        self.assert_rejects(checks.check_energy,
                            lambda ws: _scale_column(ws / "features_5.csv", 12, 1.2))

    def test_baseline_frequency(self):
        def swap(ws):
            a, b = ws / "labels_2.5.csv", ws / "labels_10.csv"
            text = a.read_text()
            a.write_text(b.read_text())
            b.write_text(text)
        self.assert_rejects(checks.check_baseline_frequency, swap)

    def test_kkt(self):
        def perturb(ws):
            path = checks.learn_dir(ws, "rbf") / "model_run00.csv"
            m = checks.read_model(path)
            row = int(np.argmax(np.abs(m["coef"])))
            _scale_column(path, 4, 0.9, rows={row}, header=5)
        self.assert_rejects(checks.check_kkt, perturb, "rbf", self.workload.size.n_runs)

    def test_prbp(self):
        n, budget = self.workload.size.n_runs, self.workload.size.budget

        def misreport(ws):
            path = checks.learn_dir(ws, "linear") / "summary.csv"
            _scale_column(path, 1, 0.5)
        self.assert_rejects(checks.check_prbp, misreport, "linear", n, budget)

    def test_bins(self):
        path = lambda ws: checks.fragility_dir(ws, "linear") / "curves.csv"  # noqa: E731
        self.assert_rejects(checks.check_bins,
                            lambda ws: _scale_column(path(ws), 4, 2.0, rows={0}), "linear")

    def test_delta_l2(self):
        def misreport(ws):
            path = checks.fragility_dir(ws, "rbf") / "report.txt"
            text = path.read_text().splitlines(keepends=True)
            k = next(i for i, line in enumerate(text) if ".score.delta_l2=" in line)
            key, value = text[k].rstrip("\n").split("=")
            text[k] = f"{key}={float(value) * 1.001 + 1e-4:.6g}\n"
            path.write_text("".join(text))
        self.assert_rejects(checks.check_delta_l2, misreport, "rbf")

    def test_identified_frequencies(self):
        r = self.records
        self.assert_rejects(
            lambda ws: checks.check_identified_frequencies(ws, r.vectors, self.workload.freq_tol),
            lambda ws: _scale_column(ws / "identified_params.csv", 5, 1.5))

    def test_identified_energy(self):
        r = self.records
        self.assert_rejects(
            lambda ws: checks.check_identified_energy(ws, r.vectors, r.samples,
                                                      self.workload.energy_tol),
            lambda ws: _scale_column(ws / "identified_params.csv", 0, 1.1))


if __name__ == "__main__":
    unittest.main()
