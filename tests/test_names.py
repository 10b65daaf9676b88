"""Public names, and the functions the benchmark traces, must resolve.

`perfbench/run.py` rebinds the functions named in its SPANS by
"module.function" inside `liftgirth`; a name deleted or renamed here would
only show up there as a broken `--trace 1` run.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import liftgirth

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_all_names_resolve():
    modules = [liftgirth] + [
        importlib.import_module(f"liftgirth.{info.name}")
        for info in pkgutil.iter_modules(liftgirth.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_traced_spans_resolve(monkeypatch):
    if not (PERFBENCH / "run.py").is_file():
        pytest.skip("perfbench is absent")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    for span in run.SPANS:
        module_name, fn_name = span.rsplit(".", 1)
        module = importlib.import_module(f"liftgirth.{module_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), span
        assert fn.__module__ == module.__name__, span
