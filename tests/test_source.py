"""Source checks that stand in for a lint step: no import goes unused, the
package exports exactly what its __init__ imports, only the command-line
module prints (the library reports through logging), each parameter's
range check lives in one module, and the shipped code parses at the
oldest Python that pyproject.toml admits."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invarmine"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
LIBRARY = sorted(p for p in PACKAGE.glob("*.py") if p.name != "cli.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never mentions again."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "TreeNode | None"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_the_scan_finds_an_unused_import():
    source = "import math\nfrom dataclasses import dataclass, field\n\n@dataclass\nclass A:\n    x: 'B'\n"
    assert unused_imports(source) == ["line 2: field", "line 1: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def export_mismatch(source: str) -> tuple[list[str], list[str]]:
    """Names a package's __init__ imports but leaves out of __all__, and
    names its __all__ lists but never imports."""
    imported: set[str] = set()
    listed: set[str] = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed.update(ast.literal_eval(node.value))
    return sorted(imported - listed), sorted(listed - imported)


def test_the_scan_finds_a_stale_export():
    source = 'from .a import f, g\nfrom .b import h as k\n\n__version__ = "1"\n__all__ = ["f", "k", "gone"]\n'
    assert export_mismatch(source) == (["g"], ["gone"])


def test_the_package_exports_exactly_what_it_imports():
    assert export_mismatch((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == ([], [])


def print_calls(source: str) -> list[str]:
    """Lines that call print()."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


def test_the_scan_finds_a_print():
    source = "import sys\n\ndef f(log):\n    log.print('ok')\n    print('warning', file=sys.stderr)\n"
    assert print_calls(source) == ["line 5"]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.name for p in LIBRARY])
def test_no_print_outside_the_cli(path):
    assert print_calls(path.read_text(encoding="utf-8")) == []


def modules_with_literal(needle: str, sources: dict[str, str]) -> list[str]:
    """Modules with a string literal, f-string parts included, that contains needle."""
    return [
        name
        for name, source in sources.items()
        if any(
            isinstance(node, ast.Constant) and isinstance(node.value, str) and needle in node.value
            for node in ast.walk(ast.parse(source))
        )
    ]


def test_the_scan_finds_a_copied_message():
    sources = {
        "a.py": 'def f(x):\n    raise ValueError(f"theta must lie in (0, 1), got {x}")\n',
        "b.py": '# theta must lie in (0, 1)\nTEXT = "theta must"\n',
        "c.py": 'MESSAGE = "theta must lie in (0, 1)"\n',
    }
    assert modules_with_literal("theta must lie in", sources) == ["a.py", "c.py"]


# each parameter check's message, and the module that owns the parameter
CHECK_HOMES = {
    "theta must lie in": "mining.py",
    "gamma must lie in": "mining.py",
    "max_set_size must": "mining.py",
    "phi must be non-negative": "detect.py",
    "max_fpr must lie in": "evaluate.py",
}


@pytest.mark.parametrize("message", CHECK_HOMES)
def test_each_parameter_is_checked_in_one_module(message):
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert modules_with_literal(message, sources) == [CHECK_HOMES[message]]


def python_floor(pyproject: str) -> tuple[int, int]:
    """The (major, minor) of a requires-python = ">=X.Y" line."""
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.MULTILINE)
    assert found, "pyproject.toml states no requires-python floor"
    return int(found.group(1)), int(found.group(2))


FLOOR = python_floor((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
SHIPPED = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def test_the_floor_scan_reads_requires_python():
    assert python_floor('[project]\nname = "x"\nrequires-python = ">=3.9"\n') == (3, 9)


def test_the_floor_parse_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11 exception groups
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))


@pytest.mark.parametrize("path", SHIPPED, ids=[f"{p.parent.name}/{p.name}" for p in SHIPPED])
def test_source_parses_at_the_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
