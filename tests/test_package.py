"""The package namespace holds exactly the names the demos import, and
every name the benchmark imports from gkplat exists."""

import ast
import importlib
import pathlib
import types

import gkplat

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
BENCH = ROOT / "bench"


def test_namespace_is_what_the_demos_import():
    imported = set()
    for path in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gkplat":
                imported.update(alias.name for alias in node.names)
    public = {name for name, value in vars(gkplat).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == imported


def test_bench_imports_resolve():
    # the benchmark is outside the tier-1 suite; this keeps a removed or
    # renamed name from breaking it unnoticed
    imports = []  # (module, name or None for a plain import)
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gkplat"):
                imports += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imports += [(alias.name, None) for alias in node.names
                            if alias.name.startswith("gkplat")]
    assert imports
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name or "__name__")]
    assert missing == []
