"""No ``assert`` statement in the package: ``python -O`` strips them,
so a check that matters must raise an exception instead."""

import ast
from pathlib import Path

import sparseca

PACKAGE = Path(sparseca.__file__).parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in sparseca: {', '.join(found)}"
