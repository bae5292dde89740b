import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hmuq"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _used_names(tree):
    """Names a module reads or looks up as attributes; definitions and imports
    bind names without using them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _used_outside_init(modules):
    used = set()
    for name, tree in modules.items():
        if name != "__init__.py":
            used.update(_used_names(tree))
    return used


def _definitions(tree):
    """Top-level functions and classes of a module, and the non-dunder methods
    of its classes, as (qualified name, name) pairs."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


class TestPublicApi:
    def test_every_export_has_a_caller_in_the_package(self):
        """A name hmuq/__init__.py exports must be used by the package itself,
        not only by the tests; test-only helpers belong in tests/helpers.py."""
        modules = _modules()
        exported = {alias.asname or alias.name for node in modules["__init__.py"].body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert sorted(exported - _used_outside_init(modules)) == []

    def test_every_definition_has_a_caller_in_the_package(self):
        """Every top-level function and class, and every non-dunder method, is
        used by name somewhere in the package outside __init__.py."""
        modules = _modules()
        used = _used_outside_init(modules)
        unused = [f"{module}:{qualname}" for module, tree in modules.items()
                  for qualname, name in _definitions(tree) if name not in used]
        assert unused == []


class TestBlasThreads:
    """Importing hmuq before numpy pins BLAS to one thread, unless the user set
    a thread count, which is kept."""

    @staticmethod
    def after_import(**user):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
        env.update(user, PYTHONPATH=str(PACKAGE.parent))
        code = f"import os, hmuq; print([os.environ.get(v) for v in {BLAS_THREADS!r}])"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        return run.stdout.strip()

    def test_unset_becomes_one_thread(self):
        assert self.after_import() == "['1', '1', '1']"

    @pytest.mark.parametrize("var", BLAS_THREADS)
    def test_user_value_is_kept(self, var):
        want = [None] * 3
        want[BLAS_THREADS.index(var)] = "3"
        assert self.after_import(**{var: "3"}) == str(want)
