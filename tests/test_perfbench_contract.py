"""The benchmark's tracer finds every torusrd name it wraps.

perfbench/tracing.py patches torusrd's module globals and class attributes
by name, and a traced run stops on a name that no longer exists.  This
checks the same names against the imported package in a fraction of a
second, without running a workload.
"""

import importlib.util
from pathlib import Path

import pytest

import torusrd
import torusrd.config  # noqa: F401  (imports every module the tracer names)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _name(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


@pytest.mark.parametrize("owner, attr", [
    *((owner, attr) for owner, attr, _ in tracing.layer_targets(torusrd)),
    *tracing.path_targets(torusrd),
], ids=lambda x: getattr(x, "__name__", x))
def test_traced_name_exists_where_the_tracer_patches_it(owner, attr):
    # the tracer looks the name up in the owner's own namespace
    assert attr in vars(owner), f"perfbench traces {_name(owner, attr)}, which is gone"
    assert callable(getattr(owner, attr))
