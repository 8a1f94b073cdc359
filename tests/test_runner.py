"""Tests for the shared task runner: every core drains one task list."""

import multiprocessing
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from seisfrag import runner


def cores(monkeypatch, n):
    monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: set(range(n)))


def no_fork(*args, **kwargs):
    raise AssertionError("a worker was started on one core")


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
        code = "import sys, seisfrag.cli; print('multiprocessing' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in [str(Path(runner.__file__).parents[1]),
                        os.environ.get("PYTHONPATH")] if p))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"
