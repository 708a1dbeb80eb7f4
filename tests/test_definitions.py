"""Every top-level definition of the package has a reader."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "btusearch"
# The benchmark names the functions it wraps in strings, as "module.name".
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: loaded names, attributes, imported
    names, and each dotted part of a string constant that spells an
    identifier or a dotted path of them."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def definitions(path: Path) -> list[str]:
    """The names of a module's top-level functions and classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_every_definition_has_a_reader():
    read = set()
    for path in READERS:
        read |= read_names(ast.parse(path.read_text(), filename=str(path)))
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in definitions(path)
        if name not in read
    ]
    assert unread == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("f()", {"f"}),
        ("x.f", {"x", "f"}),
        ("from .m import f as g", {"f"}),
        ("import a.b", {"b"}),
        ("T = ('m.f', 'm.C.g')", {"m", "f", "C", "g"}),
        ("'a docstring, not a name'", set()),
        ("f = 1", set()),
    ],
)
def test_read_names(source, expected):
    assert read_names(ast.parse(source)) == expected
