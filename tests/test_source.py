"""Checks on the library source itself."""

import ast
from pathlib import Path
from types import ModuleType

import finspace


def test_no_assert_statements():
    """Invariants must hold under ``python -O``, which strips asserts."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(finspace.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_no_random_imports():
    """The certificate is exact: no check in the library is sampled."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(finspace.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if any(name.split(".")[0] == "random" for name in _imported_modules(node))
    ]
    assert offenders == []


def test_no_function_local_imports():
    """Module imports form a DAG, so no import needs deferring to call time."""
    offenders = [
        f"{path.name}:{inner.lineno}"
        for path in sorted(Path(finspace.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert offenders == []


def test_no_exported_name_hides_a_submodule():
    """``finspace.<stem>`` is the submodule wherever the package binds it."""
    offenders = [
        path.stem
        for path in sorted(Path(finspace.__file__).parent.glob("*.py"))
        if not path.stem.startswith("_")
        and hasattr(finspace, path.stem)
        and not isinstance(getattr(finspace, path.stem), ModuleType)
    ]
    assert offenders == []


def test_readme_library_example_runs():
    """The first Python block under the README's ``## Library`` heading
    runs: it imports only names the package exports, and its asserts hold."""
    readme = Path(__file__).resolve().parents[1].joinpath("README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
