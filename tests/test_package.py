"""The package namespace lists exactly the names the demos import, every
name the benchmark imports from gkplat exists and takes the arguments the
benchmark passes, every public name of the package has a caller outside
the tests, and each demo prints the bytes pinned here."""

import ast
import contextlib
import hashlib
import importlib
import inspect
import io
import pathlib
import runpy
import sys

import pytest

import gkplat

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gkplat"
DEMOS = ROOT / "demos"
BENCH = ROOT / "bench"


def test_namespace_is_what_the_demos_import():
    imported = set()
    for path in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "gkplat":
                imported.update(alias.name for alias in node.names)
    assert set(gkplat.__all__) == imported
    # each lazy name is its submodule's own object, and dir() lists it
    for name in gkplat.__all__:
        value = getattr(gkplat, name)
        assert value.__module__.startswith("gkplat.")
        assert getattr(sys.modules[value.__module__], name) is value
    assert set(gkplat.__all__) <= set(dir(gkplat))
    with pytest.raises(AttributeError):
        gkplat.no_such_name


def test_demos_import_only_the_runtime_dependencies():
    # a demo runs on an install without the test extra: the standard
    # library, numpy and gkplat only
    allowed = set(sys.stdlib_module_names) | {"numpy", "gkplat"}
    imported = {}
    for path in sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], []).append(path.name)
    assert {name: paths for name, paths in imported.items() if name not in allowed} == {}


def test_bench_imports_resolve():
    # the benchmark is outside the tier-1 suite; each of its gkplat imports
    # runs here as written, so a moved or renamed name fails this test
    # rather than a benchmark run
    imports = [node for path in sorted(BENCH.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gkplat")
               or isinstance(node, ast.Import)
               and any(alias.name.startswith("gkplat") for alias in node.names)]
    assert imports
    failed = []
    for node in imports:
        try:
            exec(compile(ast.Module(body=[node], type_ignores=[]), "<bench>", "exec"), {})
        except ImportError as exc:
            failed.append(f"{ast.unparse(node)}: {exc}")
    assert failed == []


def _bench_gkplat_calls() -> list:
    """(where, module, name, positional argument nodes, keyword names,
    through timed) of each call in bench/*.py of a name imported from
    gkplat: called directly, or passed as fn to bench's
    timed(tracer, label, fn, *args)."""
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: (node.module, alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("gkplat") for alias in node.names}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            func, args = node.func, node.args
            through_timed = func.id == "timed" and len(args) >= 3
            if through_timed:
                func, args = args[2], args[3:]
            if isinstance(func, ast.Name) and func.id in imported:
                where = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                calls.append((where, *imported[func.id], args,
                              [kw.arg for kw in node.keywords], through_timed))
    return calls


def test_bench_call_shapes_bind():
    # a parameter removed, renamed or reordered past a positional argument
    # the benchmark passes fails here rather than in a benchmark run
    calls = _bench_gkplat_calls()
    assert any(through_timed for *_, through_timed in calls)
    failed = []
    for where, module, name, args, keywords, _ in calls:
        if any(isinstance(arg, ast.Starred) for arg in args) or None in keywords:
            failed.append(f"{where}: * or ** arguments, whose count is not checked")
            continue
        fn = getattr(importlib.import_module(module), name)
        try:
            inspect.signature(fn).bind(*[None] * len(args), **dict.fromkeys(keywords))
        except TypeError as exc:
            failed.append(f"{where}: {exc}")
    assert failed == []


def _top_level_names(stmt) -> list:
    """Names a module-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def test_every_public_name_has_a_caller():
    # no function that only tests call: each public module-level name of
    # src/gkplat is loaded, read as an attribute or imported by name in
    # src/gkplat, demos/ or bench/ (read, not run), outside the statement
    # that defines it
    trees = {path: ast.parse(path.read_text())
             for folder in (SRC, DEMOS, BENCH) for path in sorted(folder.glob("*.py"))}
    definitions = {}
    for path, tree in trees.items():
        if path.parent == SRC:
            for stmt in tree.body:
                for name in _top_level_names(stmt):
                    if not name.startswith("_"):
                        definitions.setdefault(name, []).append(stmt)
    called = set()
    for tree in trees.values():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    refs = [node.id]
                elif isinstance(node, ast.Attribute):
                    refs = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    refs = [alias.name for alias in node.names]
                else:
                    continue
                called.update(name for name in refs
                              if name in definitions and stmt not in definitions[name])
    assert sorted(set(definitions) - called) == []


def test_every_private_function_has_a_src_caller():
    # the same rule for each private module-level function and method of
    # src/gkplat (dunders aside), with callers in src/gkplat alone: one
    # that only tests or the benchmark reach fails
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defs, refs = [], []
    for tree in trees:
        methods = [stmt for cls in tree.body if isinstance(cls, ast.ClassDef) for stmt in cls.body]
        defs += [stmt for stmt in tree.body + methods
                 if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and stmt.name.startswith("_")
                 and not (stmt.name.startswith("__") and stmt.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                refs += [(alias.name, node) for alias in node.names]
    uncalled = []
    for definition in defs:
        own = set(map(id, ast.walk(definition)))
        if not any(name == definition.name and id(node) not in own for name, node in refs):
            uncalled.append(definition.name)
    assert uncalled == []


# sha256 of each demo's stdout; the demos are deterministic (fixed seeds,
# one worker stream), so any change to what they print shows here
DEMO_STDOUT_SHA256 = {
    "achievable_rates.py": "3e2cbf1194b22e88ff783edb3058c7d60e92929bf80b3895c9535e40b2d86022",
    "channel_monte_carlo.py": "90a60b7e417af7f5115c42b437533e577784062d047afb63cf63466b83e30151",
    "classical_rates.py": "aef0265e1058a2599f55ee48d5d168ee991e4d081db61d29fc043264f1f8f72e",
    "concatenated_design.py": "0a724cf16a53a7c926fb9f7c7715043f6c7b908664c9fcd651945b7d5556791a",
    "decoding.py": "5a97aea502973117a30026c4b549a27a8f5a4d867ccf3cf3aa3ee6501106bfd1",
    "lattice_algebra.py": "94004f1dfc034e7370a086a1923e90ca969173856d3559f22f8b738afc738daa",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    # run in this process (as __main__): the same bytes as `python demos/<name>`
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEMO_STDOUT_SHA256[name]
