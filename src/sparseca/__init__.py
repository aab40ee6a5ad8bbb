"""Sparse correspondence analysis of contingency tables.

Plain correspondence analysis via the weighted SVD of standardized
residuals, plus sparse variants built on an L1-penalized rank-1
decomposition with projected deflation, criteria for choosing the
penalty strength, and Ward clustering of the resulting maps.
"""

from .ca import (
    CADecomposition,
    ContingencyTable,
    ContributionTable,
    contributions,
    correspondence_matrix,
    fit_ca,
    standardized_residuals,
    total_inertia,
)
from .cluster import (
    Dendrogram,
    TypicalityTable,
    aggregate_by_cluster,
    cut_tree,
    typicality_zscores,
    ward_cluster,
)
from .datasets import colors_of_music, presidents_scale_corpus
from .errors import (
    DegenerateInputError,
    InputError,
    ParseError,
    SingularMarginError,
    SparseCAError,
)
from .io import (
    build_dtm,
    read_contingency_csv,
    write_contingency_csv,
    write_tables_csv,
)
from .linalg import full_svd, l1_constrained_unit_vector
from .sparse import (
    SparseCAModel,
    SparseFactor,
    SparsityConstraint,
    column_sparse_coordinates,
    coordinates_from_weights,
    fit_sparse_ca,
    nnz_target_search,
    pmd_rank1,
    ppmd_deflate,
)
from .svg import PlotSpec, render_svg
from .tuning import (
    TuningResult,
    WeightPath,
    bic_criterion,
    cv_error,
    default_absolute_grid,
    default_coupled_grid,
    explained_variance,
    grid_search_1d,
    grid_search_2d,
    is_criterion,
    weight_paths,
)

__version__ = "0.1.0"

__all__ = [
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
