"""The exported names and README's "Library surface" section agree with the package."""

import ast
import builtins
import re
from pathlib import Path

import shuffleworks
from shuffleworks import recordfile

ROOT = Path(__file__).resolve().parents[1]

CALL = re.compile(r"([A-Za-z_][\w.]*)\(.*\)")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
SNAKE = re.compile(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+")
CAMEL = re.compile(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)*")


def _resolve(dotted: str) -> bool:
    """Whether dotted names an object of shuffleworks, its recordfile or builtins."""
    head, *rest = dotted.split(".")
    if head == "shuffleworks":
        obj = shuffleworks
    else:
        for root in (shuffleworks, recordfile, builtins):
            if hasattr(root, head):
                obj = getattr(root, head)
                break
        else:
            return False
    for attr in rest:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _surface_names() -> list[str]:
    """Backticked names, dotted names and called names of README's Library surface."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for span in re.findall(r"`([^`]+)`", section):
        if call := CALL.fullmatch(span):
            names.append(call.group(1))
        elif DOTTED.fullmatch(span) or SNAKE.fullmatch(span) or CAMEL.fullmatch(span):
            names.append(span)
    return names


def test_every_exported_name_resolves():
    missing = [name for name in shuffleworks.__all__ if not hasattr(shuffleworks, name)]
    assert missing == []


def test_exports_are_unique_and_are_what_init_imports():
    assert len(set(shuffleworks.__all__)) == len(shuffleworks.__all__)
    tree = ast.parse(Path(shuffleworks.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported == set(shuffleworks.__all__)


def test_readme_library_surface_names_resolve():
    names = _surface_names()
    assert {"ext_gcd", "j_map", "Involution", "open_records_inplace"} <= set(names)
    assert [name for name in names if not _resolve(name)] == []


def _import_parts(path: Path) -> set[str]:
    """Every part of every dotted name that the imports of the module at path name."""
    parts = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            base = getattr(node, "module", None) or ""
            for alias in node.names:
                parts.update(("%s.%s" % (base, alias.name)).split("."))
    return parts - {""}


def test_only_the_cli_imports_the_oracle_and_no_module_imports_the_tests():
    parts = {path.stem: _import_parts(path) for path in Path(shuffleworks.__file__).parent.glob("*.py")}
    # the package __init__ re-exports the oracle functions as library names
    assert {stem for stem, names in parts.items() if "oracle" in names} - {"__init__"} == {"cli"}
    assert [stem for stem, names in parts.items() if names & {"tests", "_reference", "conftest"}] == []
