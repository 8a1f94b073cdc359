"""The benchmark's span list names only functions the program still has.

`bench/tracing.py` wraps each `TIMED` entry; an entry that no longer resolves
is only reported on stderr and its per-layer metrics read 0, so a rename or
deletion must fail here instead.
"""

import importlib
import importlib.util
import warnings
from pathlib import Path

import pytest

from seisfrag import cli
from seisfrag.oscillator import StructureConfig

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _timed_entries():
    return _tracing().TIMED


@pytest.mark.parametrize("module, attr", _timed_entries())
def test_timed_function_resolves(module, attr):
    owner = importlib.import_module(f"seisfrag.{module}")
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # methods are wrapped on the class that defines them
    function = vars(owner).get(name) if cls_path else getattr(owner, name, None)
    assert callable(function), f"seisfrag.{module}.{attr} is gone"


def test_labels_command_calls_the_nonlinear_solver_as_traced(tmp_path):
    """The tracer keys `solve_nonlinear` spans by the preset of its second
    positional argument and counts the size of the result's `.samples`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cfg = cli.load_config(None, {"seed": 3, "pool_size": 30, "preset": "10",
                                     "out_dir": str(tmp_path / "ws")})
    cli.cmd_generate(cfg)
    tracer = _tracing().Tracer()
    tracer.install()
    traced, seen = cli.solve_nonlinear, []

    def recording(*args, **kwargs):
        result = traced(*args, **kwargs)
        seen.append((args, result))
        return result

    cli.solve_nonlinear = recording
    try:
        cli.cmd_labels(cfg)
    finally:
        tracer.uninstall()  # rebinds the original over the recording wrapper too
    assert seen
    for args, result in seen:
        assert isinstance(args[1], StructureConfig)
        assert result.samples.size == len(args[0]) > 0
    assert tracer.counts["oscillator.solve_nonlinear.p10.steps"] > 0
