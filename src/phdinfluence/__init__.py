"""Principal Hessian directions with influence diagnostics.

Fit the response-weighted and residual-weighted PHD estimators, evaluate the
closed-form population influence of contamination on the estimated reduction
directions, and compute the per-observation sample diagnostics (leave-one-out
refit, closed-form plug-in, and hybrid downdate) that flag observations
distorting the estimated subspace.
"""

__version__ = "0.1.0"

from . import errors
from .diagnostics import (
    CorrelationReport,
    InfluenceRecord,
    InfluenceReport,
    eris,
    eris_matrix_route,
    estimated_model,
    hris,
    influence_report,
    spearman,
    sris,
)
from .ingest import IngestConfig, ingest_csv, write_dataset_csv
from .linalg import (
    Basis,
    EigenSystem,
    inv_sqrt,
    residual_projector,
    sine_to_subspace,
    sym_eigen,
    symmetrize,
)
from .moments import (
    Dataset,
    LooMoments,
    MomentSet,
    compute_moments,
    loo_downdate,
    loo_downdates,
    mahalanobis,
)
from .phd import PhdFit, fit_phd, population_h
from .population import (
    ContaminatedMoments,
    ContaminationPoint,
    PopulationModel,
    RisValue,
    contaminated_moments,
    cosine_model_constants,
    cosine_model,
    influence_surface,
    if_h_r,
    if_h_y,
    population_ols_residual,
    ris_from_if_matrix,
    ris_numeric_oracle,
    ris_r,
    ris_rows,
    ris_y,
    write_surface_csv,
)
from .simulate import LINK_CATALOG, McConstants, SimSpec, mc_constants, simulate

__all__ = [
    "__version__",
    "errors",
    "Basis",
    "EigenSystem",
    "inv_sqrt",
    "residual_projector",
    "sine_to_subspace",
    "sym_eigen",
    "symmetrize",
    "Dataset",
    "LooMoments",
    "MomentSet",
    "compute_moments",
    "loo_downdate",
    "loo_downdates",
    "mahalanobis",
    "PhdFit",
    "fit_phd",
    "population_h",
    "ContaminatedMoments",
    "ContaminationPoint",
    "PopulationModel",
    "RisValue",
    "contaminated_moments",
    "cosine_model_constants",
    "cosine_model",
    "influence_surface",
    "if_h_r",
    "if_h_y",
    "population_ols_residual",
    "ris_from_if_matrix",
    "ris_numeric_oracle",
    "ris_r",
    "ris_rows",
    "ris_y",
    "write_surface_csv",
    "CorrelationReport",
    "InfluenceRecord",
    "InfluenceReport",
    "eris",
    "eris_matrix_route",
    "estimated_model",
    "hris",
    "influence_report",
    "spearman",
    "sris",
    "IngestConfig",
    "ingest_csv",
    "write_dataset_csv",
    "LINK_CATALOG",
    "McConstants",
    "SimSpec",
    "mc_constants",
    "simulate",
]
