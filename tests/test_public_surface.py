"""The public surface, spelled out: the package's exported names, the
parameters of every public function, the fields of ``PlotSpec``, and each
subcommand's arguments. A change to any of them is made on purpose, by
editing the lists below."""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import sparseca
from sparseca.cli import build_parser
from sparseca.sparse import SparsityConstraint
from sparseca.svg import PlotSpec

EXPORTS = [
    "CADecomposition",
    "ContingencyTable",
    "ContributionTable",
    "DegenerateInputError",
    "Dendrogram",
    "InputError",
    "ParseError",
    "PlotSpec",
    "SingularMarginError",
    "SparseCAError",
    "SparseCAModel",
    "SparseFactor",
    "SparsityConstraint",
    "TuningResult",
    "TypicalityTable",
    "WeightPath",
    "aggregate_by_cluster",
    "bic_criterion",
    "build_dtm",
    "colors_of_music",
    "column_sparse_coordinates",
    "contributions",
    "coordinates_from_weights",
    "correspondence_matrix",
    "cut_tree",
    "cv_error",
    "default_absolute_grid",
    "default_coupled_grid",
    "explained_variance",
    "fit_ca",
    "fit_sparse_ca",
    "full_svd",
    "grid_search_1d",
    "grid_search_2d",
    "is_criterion",
    "l1_constrained_unit_vector",
    "nnz_target_search",
    "pmd_rank1",
    "ppmd_deflate",
    "presidents_scale_corpus",
    "read_contingency_csv",
    "render_svg",
    "standardized_residuals",
    "total_inertia",
    "typicality_zscores",
    "ward_cluster",
    "weight_paths",
    "write_contingency_csv",
    "write_tables_csv",
]

# parameter names of every public function defined in each module; warm
# starts, reference fits, weight counts, singular values and cluster
# counts are computed from the inputs, and the cross-validation scheme is
# fixed, so none of them is a parameter
SIGNATURES = {
    "sparseca.ca": {
        "contributions": ["decomposition"],
        "correspondence_matrix": ["table"],
        "fit_ca": ["table", "n_dims"],
        "standardized_residuals": ["p", "r", "c"],
        "total_inertia": ["table"],
    },
    "sparseca.cli": {
        "build_parser": [],
        "main": ["argv"],
    },
    "sparseca.cluster": {
        "aggregate_by_cluster": ["counts", "assignment"],
        "cut_tree": ["dendrogram", "k"],
        "typicality_zscores": ["counts", "top_m", "cluster_labels", "category_labels"],
        "ward_cluster": ["coords", "labels", "variant"],
    },
    "sparseca.datasets": {
        "colors_of_music": [],
        "presidents_scale_corpus": ["n_docs", "vocab_size", "seed", "min_total"],
    },
    "sparseca.io": {
        "build_dtm": ["token_counts_path", "stoplist_path", "min_count", "max_vocab"],
        "format_sig": ["value"],
        "read_contingency_csv": ["path", "drop_empty"],
        "write_clusters_csv": ["labels", "assignment", "path"],
        "write_contingency_csv": ["table", "path"],
        "write_tables_csv": ["model", "out_dir"],
        "write_tuning_csv": ["result", "path"],
        "write_typicality_csv": ["table", "path"],
    },
    "sparseca.linalg": {
        "full_svd": ["x"],
        "l1_constrained_unit_vector": ["x", "c"],
    },
    "sparseca.sparse": {
        "column_sparse_coordinates": ["p", "r", "c", "a", "spread"],
        "coordinates_from_weights": ["z", "r", "c", "u", "v", "eigenvalue"],
        "explained_variance": ["z", "weight_columns"],
        "fit_sparse_ca": ["table", "constraints", "variant", "col_scale"],
        "nnz_target_search": ["z", "target", "axis"],
        "pmd_rank1": ["z", "constraint", "max_iter", "tol"],
        "ppmd_deflate": ["z", "factor"],
    },
    "sparseca.tuning": {
        "bic_criterion": ["z", "factor", "sigma2_hat"],
        "cv_error": ["z", "constraint", "repeats", "seed"],
        "default_absolute_grid": ["length", "points"],
        "default_coupled_grid": ["shape", "step"],
        "grid_search_1d": ["z", "grid", "criterion", "prior_factors", "orientation", "seed",
                           "cv_repeats"],
        "grid_search_2d": ["z", "grid_u", "grid_v", "criterion", "prior_factors",
                           "orientation", "seed", "cv_repeats"],
        "is_criterion": ["z", "factors", "orientation"],
        "residual_variance_estimate": ["z"],
        "weight_paths": ["z", "grid", "prior_factors"],
    },
    "sparseca.svg": {
        "render_svg": ["artifact", "spec"],
    },
}

PLOT_SPEC_FIELDS = ["kind", "dims", "label_filter", "out_path"]

TABLE_ARGS = ["table", "--drop-empty", "--out-dir"]

SUBCOMMANDS = {
    "ca": [*TABLE_ARGS, "--dims"],
    "sca": [*TABLE_ARGS, "--variant", "--dims", "--sumabs", "--sumabsu",
            "--sumabsv", "--nnz", "--col-scale", "--nonzero-only"],
    "tune": [*TABLE_ARGS, "--criterion", "--grid-1d", "--grid-2d", "--orientation",
             "--step", "--points", "--seed", "--repeats", "--after"],
    "paths": [*TABLE_ARGS, "--after"],
    "cluster": [*TABLE_ARGS, "--k", "--top-words", "--sumabs", "--dims",
                "--ward-variant"],
    "dtm": ["tokens", "--stoplist", "--min-count", "--max-vocab", "--out"],
}


def test_exports():
    assert EXPORTS == sorted(EXPORTS)
    assert sparseca.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(sparseca, name), name


def parameters(function):
    return list(inspect.signature(function).parameters)


def public_functions(module):
    return {
        name: parameters(obj)
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_signatures():
    modules = [info.name for info in pkgutil.iter_modules(sparseca.__path__, "sparseca.")]
    for name in modules:
        got = public_functions(importlib.import_module(name))
        assert got == SIGNATURES.get(name, {}), name
    assert parameters(SparsityConstraint.penalized_sides) == ["self"]
    assert [field.name for field in dataclasses.fields(PlotSpec)] == PLOT_SPEC_FIELDS


def test_subcommand_arguments():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(SUBCOMMANDS)
    for name, expected in SUBCOMMANDS.items():
        actions = sub.choices[name]._actions
        assert actions[0].option_strings == ["-h", "--help"]
        got = [s for a in actions[1:] for s in (a.option_strings or [a.dest])]
        assert got == expected, name
