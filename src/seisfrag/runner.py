"""Independent tasks on every core: one shared task list, drained by the
calling process and one forked worker per spare core."""

from __future__ import annotations

import itertools
import os


def _drain(tasks: list, claim, stop) -> dict:
    """Run the tasks whose indices claim() hands out until it passes the end;
    an error calls stop() so that no further task starts, and propagates."""
    done = {}
    while (i := claim()) < len(tasks):
        try:
            done[i] = tasks[i]()
        except BaseException:
            stop()
            raise
    return done


def _work(tasks: list, claim, stop, conn) -> None:
    """Body of a forked worker: send back (results by index, error or None)."""
    with conn:
        try:
            conn.send((_drain(tasks, claim, stop), None))
        except Exception as exc:
            conn.send(({}, exc))


def run_shared(tasks: list) -> list:
    """Results of independent zero-argument tasks, in task order.

    This process and one forked worker per spare core take task indices from
    one shared counter, so no core waits on a fixed share of the list. Tasks
    reach the workers by fork, and only their results cross a pipe. This
    process always takes tasks too: an interval timer the caller set fires
    only here, since timers are not inherited across fork. On one core, where
    the platform has no affinity mask, or in a daemonic process (which may
    not have children), nothing is forked. The first error, here or in a
    worker, stops the remaining tasks and is raised once every worker has
    been joined.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    spare = min(cores, len(tasks)) - 1
    if spare > 0:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            spare = 0
    if spare < 1:
        claim, stop = itertools.count().__next__, lambda: None
    else:
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("q", 0)

        def claim() -> int:
            with counter.get_lock():
                counter.value += 1
                return counter.value - 1

        def stop() -> None:
            with counter.get_lock():
                counter.value = len(tasks)

    procs, readers, errors, done = [], [], [], {}
    try:
        for _ in range(spare):
            reader, writer = ctx.Pipe(duplex=False)
            readers.append(reader)
            with writer:  # closed here, so that a worker's exit reads as end of file
                proc = ctx.Process(target=_work, args=(tasks, claim, stop, writer), daemon=True)
                proc.start()
            procs.append(proc)
        done = _drain(tasks, claim, stop)
    except BaseException as exc:
        stop()
        errors.append(exc)
    for reader in readers:
        with reader:
            try:
                part, error = reader.recv()
            except EOFError:
                part, error = {}, RuntimeError("a worker exited without results")
        done.update(part)
        if error is not None:
            errors.append(error)
    for proc in procs:
        proc.join()
    if errors:
        raise errors[0]
    return [done[i] for i in range(len(tasks))]
