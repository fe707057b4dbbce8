"""The benchmark tracer wraps package functions by name; every name it
lists must resolve, so that a rename fails here and not in a traced
benchmark run."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "perfbench"))
from tracing import TRACED  # noqa: E402


@pytest.mark.parametrize("module,cls,attr,layer", TRACED,
                         ids=[".".join(filter(None, t[:3])) for t in TRACED])
def test_traced_target_resolves(module, cls, attr, layer):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
        # the tracer reads a method from the class's own dict
        assert attr in owner.__dict__, f"{module}.{cls}.{attr}"
    assert callable(getattr(owner, attr)), f"{module}.{cls}.{attr}"
