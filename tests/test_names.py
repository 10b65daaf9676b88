"""Public names, the functions the benchmark traces, and the names
README.md cites must resolve.

`perfbench/run.py` rebinds the functions named in its SPANS by
"module.function" inside `liftgirth`; a name deleted or renamed here would
only show up there as a broken `--trace 1` run.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liftgirth

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def submodules():
    return [importlib.import_module(f"liftgirth.{info.name}")
            for info in pkgutil.iter_modules(liftgirth.__path__)]


def test_all_names_resolve():
    for module in [liftgirth] + submodules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def defined_names(module):
    """The names a module's source binds at top level by def, class or
    assignment (not by import)."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets
                         if isinstance(t, ast.Name))
    return names


def test_submodules_export_only_their_own_names():
    """A submodule's __all__ re-exports nothing it imports: each name has
    one address, the submodule that defines it."""
    for module in submodules():
        foreign = set(getattr(module, "__all__", ())) - defined_names(module)
        assert not foreign, f"{module.__name__}: {sorted(foreign)}"


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


def loaded_after(code):
    """The liftgirth submodules a fresh interpreter has loaded after
    running `code` (which must not fail)."""
    src = os.path.dirname(os.path.dirname(liftgirth.__file__))
    code += ("\nimport sys\nprint(*sorted(m[10:] for m in sys.modules "
             "if m.startswith('liftgirth.')))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return set(out.splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    assert loaded_after("import liftgirth") == set()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        liftgirth.no_such_name


def test_cli_import_loads_traced_modules(monkeypatch):
    """`perfbench/run.py --trace 1` imports liftgirth.cli, then looks every
    traced module up in sys.modules."""
    if not (PERFBENCH / "run.py").is_file():
        pytest.skip("perfbench is absent")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    traced = {span.rsplit(".", 1)[0] for span in run.SPANS}
    assert traced <= loaded_after("import liftgirth.cli")


def test_imports_are_used():
    """Every name a src module imports occurs in it as a Name node: the
    unused-import check, without a linter.  Imports marked `# noqa: F401`
    (kept for their side effect) and `__future__` imports are skipped."""
    unused = []
    for path in sorted(Path(liftgirth.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


# The underscore names one src module may import from another: gd's
# short-cycle pass runs on the all-sources BFS step, and the search's
# witness inverts its permutations as lifts does.
SHARED_PRIVATE = {("graphs", "_spread"), ("lifts", "_perm_inverse")}


def test_no_module_imports_anothers_private_names():
    """A src module imports no underscore name of another src module,
    except SHARED_PRIVATE: a private name has one home, so a constant such
    as graphs._BLOCK cannot be bound twice and drift apart."""
    crossed = []
    for path in sorted(Path(liftgirth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and (node.level or node.module.startswith("liftgirth"))):
                continue
            module = node.module.rsplit(".", 1)[-1]
            crossed += [f"{path.name}:{node.lineno} {module}.{alias.name}"
                        for alias in node.names
                        if alias.name.startswith("_")
                        and (module, alias.name) not in SHARED_PRIVATE]
    assert not crossed


def test_readme_citations_resolve():
    """Every backticked `module.name` in README.md whose module is a
    liftgirth submodule is an attribute of it, and every backticked
    `test_...` or `reference_...` is a def in some tests/*.py."""
    readme = (ROOT / "README.md").read_text()
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in submodules()}
    defs = set()
    for path in (ROOT / "tests").glob("*.py"):
        defs.update(node.name for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.FunctionDef))
    missing = []
    for module, attr in re.findall(r"`(\w+)(?:\.(\w+))?`", readme):
        if attr:
            if module in modules and not hasattr(modules[module], attr):
                missing.append(f"{module}.{attr}")
        elif module.startswith(("test_", "reference_")) and module not in defs:
            missing.append(module)
    assert not missing
