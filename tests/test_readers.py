"""Every top-level function and class of ``src/harmory/``, and every
method of its top-level classes but the dunders, has a reader.

Something in ``src/harmory/``, ``perfbench/`` or ``scripts/`` names it
besides its own definition: as a name, an attribute, an import or a
string (perfbench wraps functions by their names).  A definition that
only tests read is listed here with its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
SOURCES = [*(ROOT / "src" / "harmory").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           *(ROOT / "scripts").glob("*.py")]
# Read by tests alone: dtw's cost and warping path, through the kernel
# that the measures use.
READ_BY_TESTS_ONLY = {"similarity.dtw_align"}


def names(tree: ast.AST) -> set[str]:
    """The names that ``tree`` reads, imports or spells as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def reads(node: ast.AST) -> set[str]:
    """The names that a top-level statement reads.  A definition's own
    body, a recursive call say, does not read it; nor does a method's."""
    if isinstance(node, ast.ClassDef):
        header = [*node.bases, *node.keywords, *node.decorator_list]
        return set().union(*map(reads, node.body), *map(names, header)) - {node.name}
    return names(node) - {getattr(node, "name", None)}


NAMED = set().union(*(reads(node) for path in SOURCES
                       for node in ast.parse(path.read_text()).body))
PACKAGE = {path.stem: ast.parse(path.read_text()).body
           for path in (ROOT / "src" / "harmory").glob("*.py")}


def test_every_top_level_function_and_class_has_a_reader():
    unread = {f"{stem}.{node.name}" for stem, body in PACKAGE.items() for node in body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in NAMED}
    assert unread == READ_BY_TESTS_ONLY


def test_every_method_of_a_top_level_class_has_a_reader():
    unread = {f"{stem}.{node.name}.{method.name}" for stem, body in PACKAGE.items()
              for node in body if isinstance(node, ast.ClassDef)
              for method in node.body if isinstance(method, ast.FunctionDef)
              and not (method.name.startswith("__") and method.name.endswith("__"))
              and method.name not in NAMED}
    assert unread == set()
