"""Who may call what: one of each thing, and each used where it belongs.

One private helper, ``ca._residual_matrices``, derives the correspondence
matrix and the standardized residuals that every fit, the inertia check
and the searches work on. Only standard CA takes a full thin SVD, as it
reports every eigenvalue; the searches take leading singular vectors
from the Gram matrix (``linalg._leading_svd``). Every rank-1 fit runs
through the one alternating loop, ``sparse._rank1_fits``, and only that
loop and the single-vector projection call the row projection. The two
SVDs and the loop share one sign rule, ``linalg._column_signs``. Only
``sparse`` chains dimensions: it alone deflates, through
``_deflate_through``, which the searches call to re-deflate their prior
dimensions. Both CSV readers take their records from ``io._records``,
and only ``io._parse_records`` falls back to the per-cell parser. A site
is a module, or a function in it, of the package.
"""

import ast
from pathlib import Path

import pytest

import sparseca

PACKAGE = Path(sparseca.__file__).parent

CALLERS = {
    "correspondence_matrix": {"ca._residual_matrices"},
    "standardized_residuals": {"ca._residual_matrices"},
    "_column_signs": {"linalg.full_svd", "linalg._leading_svd", "sparse._rank1_fits"},
    "full_svd": {"ca"},
    "_l1_project_rows": {
        "linalg._l1_project_rows",
        "linalg.l1_constrained_unit_vector",
        "sparse._rank1_fits",
    },
    "_rank1_fits": {"sparse", "tuning"},
    "ppmd_deflate": {"sparse"},
    "_deflate_through": {"sparse", "tuning"},
    "_records": {"io.read_contingency_csv", "io.build_dtm"},
    "_parse_cell": {"io._parse_records"},
}


def references(name):
    """(module, enclosing top-level function) of every use of ``name`` in
    the package; imports are not uses."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            function = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name) or (
                    isinstance(node, ast.Attribute) and node.attr == name
                ):
                    found.add((path.stem, function))
    return found


@pytest.mark.parametrize("name", sorted(CALLERS))
def test_called_only_from(name):
    allowed = CALLERS[name]
    sites = references(name)

    def matches(site, entry):
        module, function = site
        return entry in (module, f"{module}.{function}")

    stray = {site for site in sites if not any(matches(site, e) for e in allowed)}
    assert not stray, f"{name} used at {sorted(stray, key=str)}"
    unused = {e for e in allowed if not any(matches(site, e) for site in sites)}
    assert not unused, f"{name} no longer used at {sorted(unused)}"
