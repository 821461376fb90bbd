"""Rules about the package source that no runtime test would notice."""

import ast
import pathlib

import derpair

PACKAGE = pathlib.Path(derpair.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no check may rest on one.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
