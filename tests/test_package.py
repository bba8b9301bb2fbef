"""The package's public names."""

import ast
from pathlib import Path

import pytest

import phdinfluence
from conftest import run_python

PUBLIC_NAMES = [
    "__version__",
    "errors",
    "Basis",
    "Dataset",
    "MomentSet",
    "compute_moments",
    "mahalanobis",
    "PhdFit",
    "fit_from_moments",
    "fit_phd",
    "population_h",
    "ContaminatedMoments",
    "ContaminationPoint",
    "PopulationModel",
    "contaminated_moments",
    "cosine_model_constants",
    "cosine_model",
    "influence_surface",
    "population_ols_residual",
    "ris_numeric_oracle",
    "ris_r",
    "ris_rows",
    "ris_y",
    "write_surface_csv",
    "InfluenceReport",
    "eris",
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

#: none of these is package API; the first five are test oracles
#: (tests/oracles.py), the last two are helpers only the package uses, and
#: the rest were deleted from the package
NOT_PUBLIC = [
    "eris_matrix_route",
    "if_h_y",
    "if_h_r",
    "ris_from_if_matrix",
    "report_to_json_dict",
    "residual_projector",
    "estimated_model",
    "LooMoments",
    "loo_downdates",
    "symmetrize",
    "sine_to_subspace",
    "EigenSystem",
    "sym_eigen",
]


def test_public_names_are_the_written_out_list():
    assert phdinfluence.__all__ == PUBLIC_NAMES
    for name in NOT_PUBLIC:
        with pytest.raises(AttributeError):
            getattr(phdinfluence, name)


PACKAGE_DIR = Path(__file__).resolve().parent.parent / "src" / "phdinfluence"


def test_every_top_level_definition_is_used_or_exported():
    # a top-level function or class must be named (as a Name or an attribute)
    # somewhere in the package outside its own definition, or be public API
    definitions, references = [], set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = (path.stem, stmt.name)
                definitions.append(owner)
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    references.add((path.stem, owner, name))
    assert len(definitions) > 50
    dead = [
        f"{module}.{name}"
        for module, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in phdinfluence._EXPORTS
        and not any(ref == name and where != (module, name) for _, where, ref in references)
    ]
    assert dead == []


_SIMULATE_IS_THE_FUNCTION = (
    "import types\n"
    "import phdinfluence\n"
    "assert not isinstance(simulate, types.ModuleType), simulate\n"
    "assert simulate is phdinfluence.simulate is phdinfluence.simulation.simulate\n"
    "d = simulate(phdinfluence.SimSpec(model='cosine_index', n=6, p=2, seed=1))\n"
    "assert d.x.shape == (6, 2)\n"
)


@pytest.mark.parametrize(
    "imports",
    [
        pytest.param("import phdinfluence.simulation\nfrom phdinfluence import simulate\n",
                     id="submodule-first"),
        pytest.param("from phdinfluence import simulate\nimport phdinfluence.simulation\n",
                     id="function-first"),
    ],
)
def test_simulate_is_the_function_in_either_import_order(imports):
    proc = run_python(["-c", imports + _SIMULATE_IS_THE_FUNCTION], timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_diagnostics_does_not_load_the_simulator():
    # the influence command imports diagnostics, which reaches the cosine
    # example through population; the simulator imports population, not the
    # other way round
    code = (
        "import sys\n"
        "import phdinfluence.diagnostics\n"
        "assert 'phdinfluence.population' in sys.modules\n"
        "assert 'phdinfluence.simulation' not in sys.modules, sorted(sys.modules)\n"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
