"""The benchmark's layer trace looks its targets up by (module, attribute)
and only records a missing one, so a renamed or moved function would turn
its layer figure to zero without failing the run.  This guard keeps every
target resolvable on the package."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _targets():
    # read the TARGETS literal without running the tracer module
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("module, attribute", [(m, a) for m, a, _, _ in _targets()])
def test_tracer_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))
