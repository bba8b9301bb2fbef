"""Principal Hessian directions with influence diagnostics.

Fit the response-weighted and residual-weighted PHD estimators, evaluate the
closed-form population influence of contamination on the estimated reduction
directions, and compute the per-observation sample diagnostics (leave-one-out
refit, closed-form plug-in, and hybrid downdate) that flag observations
distorting the estimated subspace.

Each quantity is computed one way here.  The independent second routes that
check them (the influence-matrix route to the closed form and to ERIS, the
single-index shortcut of the cosine influence surface, and the report as one
JSON document) are test oracles and live in the test suite's ``oracles``
module, not in the package.

Importing the package loads no submodule and no numpy: every public name
is resolved from its module on first access (PEP 562), so the CLI can cap the
BLAS thread pools before numpy starts.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it; None for a public submodule
_EXPORTS = {
    "errors": None,
    "Basis": "linalg",
    "Dataset": "moments",
    "MomentSet": "moments",
    "compute_moments": "moments",
    "mahalanobis": "moments",
    "PhdFit": "phd",
    "fit_from_moments": "phd",
    "fit_phd": "phd",
    "ContaminatedMoments": "population",
    "ContaminationPoint": "population",
    "PopulationModel": "population",
    "contaminated_moments": "population",
    "cosine_model": "population",
    "influence_surface": "population",
    "ris": "population",
    "ris_numeric_oracle": "population",
    "ris_rows": "population",
    "write_surface_csv": "population",
    "InfluenceReport": "diagnostics",
    "eris": "diagnostics",
    "hris": "diagnostics",
    "influence_report": "diagnostics",
    "spearman": "diagnostics",
    "sris": "diagnostics",
    "IngestConfig": "ingest",
    "ingest_csv": "ingest",
    "write_dataset_csv": "ingest",
    "LINK_CATALOG": "simulation",
    "McConstants": "simulation",
    "SimSpec": "simulation",
    "mc_constants": "simulation",
    "simulate": "simulation",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    if module is None:
        value = importlib.import_module(f".{name}", __name__)
    else:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
