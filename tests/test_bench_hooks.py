"""The benchmark's hooks still resolve on the package.

``perfbench/tracer.py`` wraps the names in its ``SPANS`` and ``COUNTS``
tables, and ``perfbench/launch.py`` hooks ``minimize_tikhonov`` and
``minimize_misfit`` where the runners import them.  A rename or deletion in
``src/`` would break ``perfbench/run.py --trace 1`` or the oracle check
without failing any other test.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))


def _hooked_names(tracer):
    spans = [(name, module, path) for name, module, path, _, _ in tracer.SPANS]
    return spans + list(tracer.COUNTS)


def test_span_and_count_targets_resolve(tracer):
    missing = []
    for name, module, path in _hooked_names(tracer):
        owner = importlib.import_module(f"tikdisc.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: tikdisc.{module}.{path}")
    assert missing == []


def test_traced_modules_import(tracer):
    for module in tracer.MODULES:
        importlib.import_module(f"tikdisc.{module}")


# The launcher skips a name its module lacks, so a missing import would go
# unhooked silently.  The sweep calls both minimizers; the searches call
# minimize_tikhonov only.
@pytest.mark.parametrize("module, names", [
    ("tikdisc.cli", ("minimize_tikhonov", "minimize_misfit")),
    ("tikdisc.discrepancy", ("minimize_tikhonov",)),
])
def test_minimizers_importable_where_launcher_hooks_them(module, names):
    mod = importlib.import_module(module)
    for name in names:
        assert callable(getattr(mod, name, None)), f"{module}.{name}"
