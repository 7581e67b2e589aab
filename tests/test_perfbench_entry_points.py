"""Every entry point the traced benchmark wraps still resolves.

A traced ``perfbench/run.py`` run patches each ``ENTRY_POINTS`` entry of
``perfbench/spans.py`` at its import site.  A wrapped function or method
that was moved, renamed or deleted would otherwise surface only in
``perfbench/selftest.py``, which drives whole benchmark processes and is
not part of this suite.  Each entry is resolved here exactly the way
``install`` resolves it, without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_entry_points():
    # perfbench/ is a script directory, not a package: load spans.py by path.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


ENTRY_POINTS = load_entry_points()


def resolve(module_name, attr):
    """The object ``install`` would wrap for one entry."""
    module = importlib.import_module(module_name)
    if attr.endswith("]"):
        table, key = attr[:-1].split("[")
        return getattr(module, table)[key]
    if "." in attr:
        # install patches the class's own attribute: an inherited method
        # is not in cls.__dict__ and would fail there.
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


@pytest.mark.parametrize(
    "module_name,attr",
    [(module_name, attr) for module_name, attr, _, _ in ENTRY_POINTS],
    ids=[f"{module_name}:{attr}" for module_name, attr, _, _ in ENTRY_POINTS],
)
def test_entry_point_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))
