"""Every name the benchmark's tracer rebinds must exist in the program.

``bench/tracing.py`` reports a traced name that has gone as an absent layer
instead of failing, so a rename would only show as lost per-layer metrics.
This test loads that file as it is and resolves each of its names here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("stateseq_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TRACED = [(module, attr) for _, module, attr in _tracing.SPANS] + [
    (module, attr) for _, module, attr, _ in _tracing.COUNTERS
]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"stateseq.{module}")
    if "." in attr:
        # A method must be defined on the class itself, as the tracer rebinds it there.
        cls_name, method = attr.split(".")
        cls = getattr(mod, cls_name, None)
        assert isinstance(cls, type), f"stateseq.{module}.{cls_name} is not a class"
        assert callable(vars(cls).get(method)), f"{cls_name}.{method} is not defined on the class"
    else:
        assert callable(getattr(mod, attr, None)), f"stateseq.{module}.{attr} is gone"
