import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hmuq"


def _used_names(tree):
    """Names a module reads or looks up as attributes; definitions and imports
    bind names without using them."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


class TestPublicApi:
    def test_every_export_has_a_caller_in_the_package(self):
        """A name hmuq/__init__.py exports must be used by the package itself,
        not only by the tests; test-only helpers belong in tests/helpers.py."""
        init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
        exported = {alias.asname or alias.name for node in init.body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        used = set()
        for path in PACKAGE.glob("*.py"):
            if path.name != "__init__.py":
                used.update(_used_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert sorted(exported - used) == []
