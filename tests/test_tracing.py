"""The benchmark's span list names only functions the program still has.

`bench/tracing.py` wraps each `TIMED` entry; an entry that no longer resolves
is only reported on stderr and its per-layer metrics read 0, so a rename or
deletion must fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _timed_entries():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TIMED


@pytest.mark.parametrize("module, attr", _timed_entries())
def test_timed_function_resolves(module, attr):
    owner = importlib.import_module(f"seisfrag.{module}")
    *cls_path, name = attr.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    # methods are wrapped on the class that defines them
    function = vars(owner).get(name) if cls_path else getattr(owner, name, None)
    assert callable(function), f"seisfrag.{module}.{attr} is gone"
