"""Every function the benchmark's traced run wraps must still exist, so that
renaming one fails here and not in a later `perfbench/run.py --trace 1`."""
import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without writing bytecode next to it
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize("modname, path", [(m, p) for _, m, p, _ in TARGETS],
                         ids=[f"{m}.{p}" for _, m, p, _ in TARGETS])
def test_trace_target_resolves(modname, path):
    # the same lookup as Tracer.install: getattr down the path, then the last
    # name must be defined on its owner itself
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"{modname}.{path} is gone"
