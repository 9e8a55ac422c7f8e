"""Partition functions of binary planar models: BP plus matching-based loop corrections."""

from .bp import (
    BPNumericError,
    BPResult,
    mu_term,
    run_bp,
)
from .bench import (
    ModelParams,
    error_metric,
    gen_grid,
    gen_spiderweb,
    grid_factor_graph,
    parse_config,
    rows_to_csv,
    run_experiment,
    solve_forney,
    spiderweb_factor_graph,
)
from .io import parse_model, read_model, write_factor_graph, write_forney, write_model
from .model import (
    Factor,
    FactorGraph,
    ForneyGraph,
    ModelError,
    canon_edge,
    exact_log_z,
    exact_log_z_factor,
    factor_to_forney,
    reduce_degree,
    two_core,
)
from .pfaffian import (
    OrientationError,
    SparseSkew,
    matching_sign,
    pfaffian,
)
from .planar import (
    ExtendedGraph,
    NonPlanarError,
    OrientedPlanarGraph,
    embed,
    face_parity_violations,
    fisher_extend,
    orient,
)
from .series import (
    PfaffianSeriesResult,
    PfaffianTerm,
    loop_correction,
    pfaffian_series,
    triplet_nodes,
    z_empty,
)
from .slog import SignedLog

__version__ = "0.1.0"

__all__ = [
    "BPNumericError",
    "BPResult",
    "ExtendedGraph",
    "Factor",
    "FactorGraph",
    "ForneyGraph",
    "ModelError",
    "ModelParams",
    "NonPlanarError",
    "OrientationError",
    "OrientedPlanarGraph",
    "PfaffianSeriesResult",
    "PfaffianTerm",
    "SignedLog",
    "SparseSkew",
    "canon_edge",
    "embed",
    "error_metric",
    "exact_log_z",
    "exact_log_z_factor",
    "face_parity_violations",
    "factor_to_forney",
    "fisher_extend",
    "gen_grid",
    "gen_spiderweb",
    "grid_factor_graph",
    "loop_correction",
    "matching_sign",
    "mu_term",
    "orient",
    "parse_config",
    "parse_model",
    "pfaffian",
    "pfaffian_series",
    "read_model",
    "reduce_degree",
    "rows_to_csv",
    "run_bp",
    "run_experiment",
    "solve_forney",
    "spiderweb_factor_graph",
    "triplet_nodes",
    "two_core",
    "write_factor_graph",
    "write_forney",
    "write_model",
    "z_empty",
]
