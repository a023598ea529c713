"""The benchmark's tracer patches tiltkit names by module and attribute.

``perfbench/spans.py`` lists every (module, attribute) it replaces while
tracing; a name renamed or dropped from a module makes ``--trace 1`` and
the benchmark's smoke check fail with AttributeError.  The file is loaded
by path and read only.
"""

import importlib
import importlib.util
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _ in
                                                 _spans.SPANS + _spans.COUNTED}))
def test_traced_name_resolves(module, attr):
    mod = importlib.import_module(f"tiltkit.{module}")
    assert callable(getattr(mod, attr, None)), f"tiltkit.{module}.{attr}"


def test_nelder_mead_resolves_on_tuning():
    # patched separately, to wrap the objective it receives
    assert callable(importlib.import_module("tiltkit.tuning").nelder_mead)
