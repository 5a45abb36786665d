"""The package namespace holds exactly the names the demos import."""

import ast
import pathlib
import types

import gkplat

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def test_namespace_is_what_the_demos_import():
    imported = set()
    for path in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gkplat":
                imported.update(alias.name for alias in node.names)
    public = {name for name, value in vars(gkplat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported
