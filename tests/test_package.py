"""The package's public names."""

import ast
import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import phdinfluence
from phdinfluence import (
    Basis,
    ContaminationPoint,
    Dataset,
    PopulationModel,
    SimSpec,
    compute_moments,
    contaminated_moments,
    cosine_model,
    eris,
    fit_from_moments,
    fit_phd,
    hris,
    influence_report,
    influence_surface,
    mc_constants,
    ris,
    ris_numeric_oracle,
    ris_rows,
    simulate,
    spearman,
)
from phdinfluence import errors
from phdinfluence.errors import InvalidArgument, InvalidRank
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
    "ContaminatedMoments",
    "ContaminationPoint",
    "PopulationModel",
    "contaminated_moments",
    "cosine_model",
    "influence_surface",
    "ris",
    "ris_numeric_oracle",
    "ris_rows",
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
    "population_ols_residual",
    "population_h",
    "ris_y",
    "ris_r",
    "cosine_model_constants",
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
    "d = simulate(phdinfluence.SimSpec(n=6, p=2, seed=1))\n"
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


def test_every_submodule_imports_no_third_party_module_but_numpy():
    # the baseline is what the bare interpreter already holds: the
    # environment's .pth files may load modules of their own at start-up
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import importlib, json, pkgutil\n"
        "import phdinfluence\n"
        "names = [info.name for info in pkgutil.iter_modules(phdinfluence.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('phdinfluence.' + name)\n"
        "top = {module.partition('.')[0] for module in set(sys.modules) - before}\n"
        "print(json.dumps([names, sorted(top - set(sys.stdlib_module_names))]))\n"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, third_party = json.loads(proc.stdout)
    assert sorted(names) == sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")
    assert third_party == ["numpy", "phdinfluence"]


def _sample():
    return simulate(SimSpec(n=40, p=4, seed=1))


def _point():
    return ContaminationPoint(y0=0.3, x0=np.array([0.0, 2.0, 0.0]))


def _unpaired(measure, rows=40, columns=4, fit_columns=4):
    """``measure`` called with the moments of ``_sample()`` beside its first
    ``rows`` rows and ``columns`` predictors and a k = 1 fit of its first
    ``fit_columns`` predictors."""
    d = _sample()

    def cut(n, p):
        return Dataset(y=d.y[:n], x=d.x[:n, :p])

    fit = fit_from_moments(compute_moments(cut(40, fit_columns)), "y", 1)
    return measure(cut(rows, columns), fit, compute_moments(d))


@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(lambda: influence_report(_sample(), 2.0), InvalidRank, id="report-float-rank"),
        pytest.param(lambda: influence_report(_sample(), True), InvalidRank, id="report-bool-rank"),
        pytest.param(lambda: fit_phd(_sample(), "y", 2.0), InvalidRank, id="fit-float-rank"),
        pytest.param(lambda: fit_phd(_sample(), "y", True), InvalidRank, id="fit-bool-rank"),
        pytest.param(lambda: cosine_model(2.5), InvalidArgument, id="cosine-float-p"),
        pytest.param(lambda: cosine_model(True), InvalidArgument, id="cosine-bool-p"),
        pytest.param(lambda: SimSpec(n=40, p=4, seed=True),
                     InvalidArgument, id="spec-bool-seed"),
        pytest.param(lambda: SimSpec(n=40, p=True, seed=1),
                     InvalidArgument, id="spec-bool-p"),
        pytest.param(lambda: mc_constants(1000, True, 0.5), InvalidArgument, id="mc-bool-seed"),
    ],
)
def test_an_integer_argument_is_an_integral_that_is_not_a_bool(call, error):
    # one rule, errors.is_integer; numpy's own messages ("slice indices must
    # be integers", "only integers, slices ...") do not match
    with pytest.raises(error, match=r"(must be|needs) an? (nonnegative )?integer\b"):
        call()


def _dataset(**changes):
    """The Dataset of ``_sample()`` with ``changes`` to its fields."""
    d = _sample()
    return Dataset(**(dict(y=d.y, x=d.x) | changes))


def _model(**changes):
    """A valid p = 3, K = 2 PopulationModel with ``changes`` to its fields."""
    params = dict(mu=np.zeros(3), sigma=np.eye(3), gamma=Basis(np.eye(3)[:, :2]),
                  lam=np.array([2.0, 1.0]), mu_y=0.0, sigma_xy=np.array([0.5, 0.0, 0.0]))
    return PopulationModel(**(params | changes))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: fit_phd(_sample(), "x", 1), id="fit-variant"),
        pytest.param(lambda: _model(mu=np.zeros(2)), id="model-mu-shape"),
        pytest.param(lambda: _model(sigma=np.eye(4)), id="model-sigma-shape"),
        pytest.param(lambda: _model(lam=np.array([2.0])), id="model-lam-shape"),
        pytest.param(lambda: _model(mu_y=np.nan), id="model-not-finite"),
        pytest.param(lambda: _model(lam=np.array([2.0, 0.0])), id="model-zero-eigenvalue"),
        pytest.param(lambda: _model(lam=np.array([1.0, 2.0])), id="model-ascending"),
        pytest.param(lambda: _model(sigma_xy=np.array([0.0, 0.0, 1.0])), id="model-ols-off-span"),
        pytest.param(lambda: _model(gamma=np.eye(3)[:, :2]), id="model-gamma-array"),
        pytest.param(lambda: ContaminationPoint(y0=0.0, x0=np.zeros((2, 3))), id="point-shape"),
        pytest.param(lambda: ContaminationPoint(y0=np.inf, x0=np.zeros(3)), id="point-not-finite"),
        pytest.param(lambda: ContaminationPoint("a", np.zeros(2)), id="point-y0-string"),
        pytest.param(lambda: contaminated_moments(cosine_model(3), _point(), 0.0),
                     id="contaminated-eps"),
        pytest.param(lambda: contaminated_moments(cosine_model(4), _point(), 1e-3),
                     id="contaminated-x0-length"),
        pytest.param(lambda: ris_numeric_oracle(cosine_model(4), "y", _point()),
                     id="oracle-x0-length"),
        pytest.param(lambda: ris(cosine_model(3), "x", _point()), id="ris-variant"),
        pytest.param(lambda: ris_numeric_oracle(cosine_model(3), "x", _point()),
                     id="oracle-variant"),
        pytest.param(lambda: cosine_model(1), id="cosine-p"),
        pytest.param(lambda: ris_rows(cosine_model(3), "y", np.zeros(3), [0.0]), id="rows-shape"),
        pytest.param(lambda: influence_surface([-1.0], [0.0]), id="surface-grid"),
        pytest.param(lambda: spearman([1.0], [2.0]), id="spearman-size"),
        # a dataset that is not the one behind the moments and the fit
        pytest.param(lambda: _unpaired(eris, rows=39), id="eris-unpaired-n"),
        pytest.param(lambda: _unpaired(hris, rows=39), id="hris-unpaired-n"),
        pytest.param(lambda: _unpaired(eris, columns=3), id="eris-unpaired-p"),
        pytest.param(lambda: _unpaired(hris, fit_columns=3), id="hris-unpaired-fit"),
        # arguments that are not real numbers, numeric strings included
        pytest.param(lambda: _model(mu_y="a"), id="model-mu-y-string"),
        pytest.param(lambda: _model(mu_y="0.5"), id="model-mu-y-numeric-string"),
        pytest.param(lambda: _model(lam=["a"]), id="model-lam-string"),
        pytest.param(lambda: ContaminationPoint(0.0, ["a", "b"]), id="point-x0-strings"),
        pytest.param(lambda: contaminated_moments(cosine_model(3), _point(), "x"),
                     id="contaminated-eps-string"),
        pytest.param(lambda: ris_rows(cosine_model(3), "y", [["a", "b", "c"]], [0.0]),
                     id="rows-x0-strings"),
        pytest.param(lambda: SimSpec(n=40, p=4, seed=1, sigma="x"), id="spec-sigma-string"),
        pytest.param(lambda: SimSpec(n=40, p=4, seed=1, sigma=None), id="spec-sigma-none"),
        pytest.param(lambda: SimSpec(n=40, p=2, seed=1, beta=["a", "b"]), id="spec-beta-strings"),
        pytest.param(lambda: SimSpec(n=40, p=2, seed=1, beta=[[1.0], [0.0, 1.0]]),
                     id="spec-beta-ragged"),
        pytest.param(lambda: mc_constants(100, 1, "x"), id="mc-sigma-string"),
        # Dataset and Basis took numeric strings, raised numpy's bare ValueError
        # for other strings and ragged rows, and dropped an imaginary part
        pytest.param(lambda: _dataset(y=[str(v) for v in _sample().y]),
                     id="dataset-y-numeric-strings"),
        pytest.param(lambda: _dataset(y=["a"] * 40), id="dataset-y-string"),
        pytest.param(lambda: _dataset(x=[[0.0, 1.0]] * 39 + [[0.0]]), id="dataset-x-ragged"),
        pytest.param(lambda: _dataset(x=_sample().x + 0j), id="dataset-x-complex"),
        pytest.param(lambda: Basis(["a", "b"]), id="basis-string"),
        pytest.param(lambda: Basis([[1.0, 0.0], [0.0]]), id="basis-ragged"),
        pytest.param(lambda: Basis(np.eye(3)[:, :2] + 0j), id="basis-complex"),
        # a shape fault at construction is a usage error (exit 2), not a data
        # fault (InsufficientData) or a matrix fault (InvalidMatrix)
        pytest.param(lambda: _dataset(x=_sample().x.ravel()), id="dataset-x-shape"),
        pytest.param(lambda: _dataset(y=_sample().y[:-1]), id="dataset-y-length"),
        pytest.param(lambda: _dataset(y=_sample().y[:, None]), id="dataset-y-shape"),
        pytest.param(lambda: _dataset(names=("a", "b")), id="dataset-names-length"),
        pytest.param(lambda: Basis(np.array([1.0, 0.0])), id="basis-vector"),
        pytest.param(lambda: Basis(np.eye(3)[:2]), id="basis-wide"),
        pytest.param(lambda: Basis(np.zeros((3, 0))), id="basis-no-column"),
        pytest.param(lambda: _model(sigma=np.eye(3)[:, :2]), id="model-sigma-not-square"),
        pytest.param(lambda: _model(sigma=np.diag([1.0, np.inf, 1.0])),
                     id="model-sigma-not-finite"),
    ],
)
def test_a_rejected_argument_raises_invalid_argument(call):
    # the one error rule of the errors module: exit code 2, and still a ValueError
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert exc.value.exit_code == 2


def test_every_usage_error_is_an_invalid_argument():
    # exit code 2 is one family: a class that carries it is an InvalidArgument,
    # so ``except ValueError`` catches every usage error
    usage = [cls for cls in vars(errors).values()
             if isinstance(cls, type) and issubclass(cls, errors.PhdError) and cls.exit_code == 2]
    assert InvalidRank in usage
    assert [cls.__name__ for cls in usage if not issubclass(cls, InvalidArgument)] == []


#: the builtin errors no check raises: the errors module's rule has no exceptions
BUILTIN_ERRORS = {"ValueError", "TypeError", "IndexError"}


def _with_function(tree):
    """Every node of ``tree`` with the name of the innermost function around
    it (None at module level)."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        yield node, owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def _text_mode_write(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return (isinstance(mode, ast.Constant) and any(c in mode.value for c in "wax")
            and "b" not in mode.value)


def test_checks_raise_typed_errors_and_writers_write_utf8_with_newline_ends():
    # a builtin error carries no exit code; a text file opened without
    # newline="\n" gets CRLF line ends on Windows
    faults = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node, owner in _with_function(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)} in {owner}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                    faults.append(f"raise {exc.id} at {where}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open" and _text_mode_write(node)):
                given = {k.arg: getattr(k.value, "value", None) for k in node.keywords}
                if given.get("encoding") != "utf-8" or given.get("newline") != "\n":
                    faults.append(f"open at {where}")
    assert faults == []


def test_numpy_integers_are_integers():
    assert fit_phd(_sample(), "y", np.int64(2)).k == 2
    want = ris(cosine_model(3), "y", _point())
    assert np.array_equal(ris(cosine_model(np.int32(3)), "y", _point()), want)


def _caller_sample():
    """(x, y) of a 40 x 4 sample as the caller's own writeable float64 arrays."""
    d = _sample()
    return np.array(d.x), np.array(d.y)


def _dataset_case():
    x, y = _caller_sample()
    return Dataset(y=y, x=x), [x, y]


def _moments_case():
    x, y = _caller_sample()
    return compute_moments(Dataset(y=y, x=x)), [x, y]


def _fit_case():
    x, y = _caller_sample()
    return fit_phd(Dataset(y=y, x=x), "y", 2), [x, y]


def _basis_case():
    g = np.eye(4)[:, :2]
    return Basis(g), [g]


def _model_case():
    caller = [np.zeros(3), np.eye(3), np.array([2.0, 1.0]), np.array([0.5, 0.0, 0.0])]
    return _model(**dict(zip(("mu", "sigma", "lam", "sigma_xy"), caller))), caller


def _point_case():
    x0 = np.array([0.0, 2.0, 0.0])
    return ContaminationPoint(y0=0.3, x0=x0), [x0]


def _contaminated_case():
    x0 = np.array([0.0, 2.0, 0.0])
    return contaminated_moments(cosine_model(3), ContaminationPoint(0.3, x0), 1e-3), [x0]


def _spec_case():
    beta = np.asfortranarray([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    return SimSpec(n=40, p=4, seed=1, beta=beta, link="product"), [beta]


def _report_case():
    x, y = _caller_sample()
    return influence_report(Dataset(y=y, x=x), 2), [x, y]


def _replaced(case, name):
    """The result of ``case`` rebuilt by ``dataclasses.replace`` with its
    field ``name`` set to a writeable copy owned by the caller."""
    def replaced_case():
        result, _ = case()
        caller = np.array(getattr(result, name))
        return dataclasses.replace(result, **{name: caller}), [caller]
    return replaced_case


def _stored_arrays(obj):
    """Every ndarray a result holds, through nested dataclasses, dicts and
    tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _stored_arrays(getattr(obj, f.name))
    elif isinstance(obj, dict):
        yield from _stored_arrays(tuple(obj.values()))
    elif isinstance(obj, tuple):
        for value in obj:
            yield from _stored_arrays(value)


@pytest.mark.parametrize("case", [
    pytest.param(_dataset_case, id="Dataset"),
    pytest.param(_moments_case, id="MomentSet"),
    pytest.param(_fit_case, id="PhdFit"),
    pytest.param(_basis_case, id="Basis"),
    pytest.param(_model_case, id="PopulationModel"),
    pytest.param(_point_case, id="ContaminationPoint"),
    pytest.param(_contaminated_case, id="ContaminatedMoments"),
    pytest.param(_spec_case, id="SimSpec"),
    pytest.param(_report_case, id="InfluenceReport"),
    pytest.param(_replaced(_fit_case, "h"), id="replace-PhdFit.h"),
    pytest.param(_replaced(_moments_case, "u"), id="replace-MomentSet.u"),
    pytest.param(_replaced(_contaminated_case, "sigma_eps"),
                 id="replace-ContaminatedMoments.sigma_eps"),
    pytest.param(_replaced(_report_case, "md"), id="replace-InfluenceReport.md"),
])
def test_every_stored_array_is_a_read_only_copy(case):
    # the one ownership rule, errors.owned: read-only, sharing no memory with
    # what the caller passed, and the caller's arrays stay writeable, so a
    # write to them after construction (Basis(g), then g[0, 0] = 5.0) leaves
    # the result unchanged
    result, caller = case()
    stored = list(_stored_arrays(result))
    assert stored
    for a in stored:
        assert not a.flags.writeable
        assert not any(np.shares_memory(a, c) for c in caller)
    assert all(c.flags.writeable for c in caller)
    before = [a.copy() for a in stored]
    for c in caller:
        c[...] = 5.0
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(stored, before))


def test_a_simspec_keeps_the_memory_order_of_its_beta():
    spec, (beta,) = _spec_case()
    assert spec.beta.flags.f_contiguous and not spec.beta.flags.c_contiguous
    assert np.array_equal(spec.beta, beta)


def test_report_flags_are_a_tuple_of_tuples():
    report, _ = _report_case()
    assert isinstance(report.flags, tuple)
    assert all(isinstance(f, tuple) for f in report.flags)


def test_a_report_is_frozen_and_its_correlations_read_only():
    # what the writers serialize cannot be changed after the report is built
    report, _ = _report_case()
    with pytest.raises(ValueError):
        report.correlations[0, 0, 0] = 5.0
    for f in dataclasses.fields(report):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, f.name, getattr(report, f.name))
    assert isinstance(report.fits, tuple)


def _package_dataclasses():
    """(qualified name, class) of every dataclass the package defines."""
    for info in pkgutil.iter_modules(phdinfluence.__path__):
        module = importlib.import_module(f"phdinfluence.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                yield f"{module.__name__}.{name}", cls


def test_every_type_that_stores_an_array_is_frozen_and_owns_it():
    # the ownership rule is applied by the type, at construction, so a
    # dataclass annotating an ndarray field needs a __post_init__, and frozen
    # so that no field is rebound past it.  eq=False: the generated __eq__
    # compares arrays, which raises numpy's bare ValueError, and leaves the
    # type unhashable, so such a type compares and hashes by identity
    faults, checked = [], 0
    for name, cls in _package_dataclasses():
        if any("ndarray" in str(f.type) for f in dataclasses.fields(cls)):
            checked += 1
            params = cls.__dataclass_params__
            if not (params.frozen and not params.eq and "__post_init__" in vars(cls)):
                faults.append(name)
    assert checked == 9
    assert faults == []


def test_no_type_stores_a_size_beside_the_arrays_that_fix_it():
    # n, p and k are read from an array's shape (Dataset.n, PhdFit.k,
    # InfluenceReport.p, ...), so no stored size can disagree with its
    # arrays.  SimSpec's n and p are the sizes of the sample it draws, its
    # inputs; its beta is checked against p.
    sizes = [f"{name}.{f.name}" for name, cls in _package_dataclasses()
             for f in dataclasses.fields(cls) if f.name in ("n", "p", "k")]
    assert sizes == ["phdinfluence.simulation.SimSpec.n", "phdinfluence.simulation.SimSpec.p"]


def test_the_readme_library_example_runs():
    # the python block of README's "## Library" section, as a user would run it
    readme = (PACKAGE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "ris(" in code
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
