"""The attributes the benchmark harness in ``perfbench/`` reaches by name.

``perfbench/tracer.py`` wraps each ``METHODS`` entry, read as
``vars(cls)[attr]``, and ``perfbench/workloads.py`` reads
``AssessmentResult.hurwitz``.  Renaming or deleting one of these leaves
every other test green but makes the traced benchmark exit 1.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_methods():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.METHODS


NAMES = (*_tracer_methods(), ("certify", "AssessmentResult", "hurwitz"))


@pytest.mark.parametrize("module, cls, attr", NAMES, ids=[".".join(n) for n in NAMES])
def test_benchmark_attribute_is_defined_on_its_class(module, cls, attr):
    assert attr in vars(getattr(importlib.import_module(f"gridcert.{module}"), cls))
