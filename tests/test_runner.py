"""Tests for the shared task runner: every core drains one task list."""

import multiprocessing
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from seisfrag import runner
from seisfrag.ground_motion import FilterParams, GroundMotionParams, ModulationParams, synthesize
from conftest import write_signal_csv


def cores(monkeypatch, n):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(n)))


def no_fork(*args, **kwargs):
    raise AssertionError("a worker was started on one core")


def two_cores(mp, marks: Path, owner, name: str) -> None:
    """Two cores, with this process slowed so that a worker takes a share of
    the tasks that call owner.name; each process that runs one leaves a file
    pid_<pid> in marks."""
    parent, task = os.getpid(), getattr(owner, name)

    def marked(*args):
        (marks / f"pid_{os.getpid()}").touch()
        if os.getpid() == parent:
            time.sleep(0.05)
        return task(*args)

    cores(mp, 2)
    mp.setattr(owner, name, marked)


class TestRunShared:
    """Every task runs once, in whichever process claims it, and the results
    come back in task order."""

    def test_worker_error_is_raised_here_and_stops_the_rest(self, monkeypatch):
        cores(monkeypatch, 2)
        parent, ran = os.getpid(), []

        def task():
            if os.getpid() != parent:
                raise KeyError("in the worker")
            time.sleep(0.03)
            ran.append(1)
        tasks = [task] * 60
        with pytest.raises(KeyError, match="in the worker"):
            runner.run_shared(tasks)
        assert len(ran) < 40
        assert not multiprocessing.active_children()

    def test_error_here_joins_the_worker(self, monkeypatch):
        cores(monkeypatch, 2)
        parent = os.getpid()

        def task():
            time.sleep(0.03)
            if os.getpid() == parent:
                raise OSError("in the caller")
        with pytest.raises(OSError, match="in the caller"):
            runner.run_shared([task] * 4)
        assert not multiprocessing.active_children()

    def test_worker_that_dies_is_reported(self, monkeypatch):
        cores(monkeypatch, 2)
        parent = os.getpid()

        def task():
            if os.getpid() != parent:
                os._exit(3)
            time.sleep(0.03)
        with pytest.raises(RuntimeError, match="^a worker exited without results$"):
            runner.run_shared([task] * 20)
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("platform", ["one core", "no affinity mask"])
    def test_nothing_is_forked(self, monkeypatch, platform):
        if platform == "one core":
            cores(monkeypatch, 1)
        else:
            monkeypatch.delattr(runner.os, "sched_getaffinity")
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        tasks = [lambda k=k: (os.getpid(), k) for k in range(4)]
        assert runner.run_shared(tasks) == [(os.getpid(), k) for k in range(4)]

    def test_daemonic_process_runs_the_tasks_itself(self, monkeypatch):
        cores(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)

        def body():
            tasks = [lambda k=k: (os.getpid(), k) for k in range(4)]
            writer.send(runner.run_shared(tasks))
        proc = ctx.Process(target=body, daemon=True)
        with reader, writer:
            proc.start()
            assert reader.poll(60)
            results = reader.recv()
        proc.join(60)
        assert proc.exitcode == 0
        assert results == [(proc.pid, k) for k in range(4)]

    def test_more_workers_than_cores_run_every_task_once_in_order(self, monkeypatch):
        cores(monkeypatch, 4)
        hits = multiprocessing.get_context("fork").Array("i", 400, lock=False)

        def task(k):
            hits[k] += 1
            time.sleep(0.001)
            return k, os.getpid()
        results = runner.run_shared([partial(task, k) for k in range(len(hits))])
        assert [k for k, _ in results] == list(range(len(hits)))
        assert len({pid for _, pid in results}) > 1
        assert list(hits) == [1] * len(hits)
        assert not multiprocessing.active_children()

    def test_importing_the_cli_leaves_multiprocessing_out(self):
        out = fresh_python("import sys, seisfrag.cli; print('multiprocessing' in sys.modules)")
        assert out.strip() == "False"


def fresh_python(code: str) -> str:
    """The standard output of code run in a fresh interpreter on this seisfrag."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in [str(Path(runner.__file__).parents[1]), os.environ.get("PYTHONPATH")] if p))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the scipy packages (scipy.<name>) loaded so far, printed as one sorted line
PRINT_SCIPY = ("import sys; print(' '.join(sorted({'.'.join(m.split('.')[:2]) "
               "for m in sys.modules if m.split('.')[0] == 'scipy'})))")


def scipy_loaded_by(argv: list) -> set:
    """The scipy packages loaded by one CLI command in a fresh interpreter."""
    code = ("import warnings; warnings.simplefilter('ignore')\n"
            f"from seisfrag.cli import main; main({argv!r})\n{PRINT_SCIPY}")
    return set(fresh_python(code).splitlines()[-1].split())


class TestScipyImports:
    """Each command loads only the scipy it calls: generate steps linear
    systems through scipy.signal, which loads all of scipy; identify fits
    through scipy.optimize; labels, learn, fragility and report load none."""

    def test_importing_the_cli_leaves_scipy_out(self):
        assert fresh_python(f"import seisfrag.cli; {PRINT_SCIPY}").strip() == ""

    def test_only_generate_and_identify_load_scipy(self, tmp_path):
        flags = [f"--out_dir={tmp_path / 'ws'}", "--seed=3", "--pool_size=220", "--budget=25",
                 "--n_runs=2", "--n_bins=6"]
        generated = scipy_loaded_by(["generate", *flags])
        assert "scipy.signal" in generated
        light = {(command, kernel): scipy_loaded_by([command, *flags, f"--kernel={kernel}"])
                 for command, kernel in [("labels", "linear"), ("learn", "linear"),
                                         ("learn", "rbf"), ("fragility", "linear"),
                                         ("fragility", "rbf"), ("report", "rbf")]}
        assert light == dict.fromkeys(light, set())
        params = GroundMotionParams(
            ModulationParams(alpha1=1.5, alpha2=0.6, alpha3=1.2, t1=2.0, t2=7.0),
            FilterParams(omega0=2 * np.pi * 8, omega_n=2 * np.pi * 4, zeta_f=0.3))
        record = tmp_path / "record.csv"
        write_signal_csv(record, synthesize(params, duration=22.0, rng=np.random.default_rng(5)))
        identified = scipy_loaded_by(["identify", f"--out_dir={tmp_path / 'ident'}", str(record)])
        assert "scipy.optimize" in identified
        assert not {"scipy.signal", "scipy.stats", "scipy.integrate"} & identified
