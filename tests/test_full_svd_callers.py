"""Only standard CA takes a full thin SVD: it reports every eigenvalue.
The searches need only leading singular vectors, which they take from
the Gram matrix (``linalg._leading_svd``), so no other module of the
package may call ``full_svd``."""

import ast
from pathlib import Path

import sparseca

PACKAGE = Path(sparseca.__file__).parent


def test_only_ca_calls_full_svd():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "full_svd":
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.Attribute) and node.attr == "full_svd":
                found.append((path.name, node.lineno))
    assert {name for name, _ in found} == {"ca.py"}, f"full_svd used at {found}"
