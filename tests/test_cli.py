import csv
import hashlib
import importlib.util
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np
import pytest

from phdinfluence import Dataset, compute_moments, fit_from_moments
from phdinfluence.cli import _THREAD_ENV_VARS, main
from phdinfluence.ingest import IngestConfig, ingest_csv, write_dataset_csv
from phdinfluence.simulation import SimSpec, simulate
from conftest import run_python
from oracles import mp_eris


def run(args):
    return main([str(a) for a in args])


def test_simulate_writes_dataset_and_manifest(tmp_path):
    code = run(["simulate", "--model", "cosine_index", "--n", 50, "--p", 3,
                "--seed", 4, "--sigma", 0.5, "--output-dir", tmp_path])
    assert code == 0
    assert (tmp_path / "dataset.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 4
    assert "dataset.csv" in manifest["outputs"]
    assert manifest["version"]


@pytest.mark.parametrize(
    "beta, link, matrix",
    [
        pytest.param("1,0,0", "cosine", [[1.0], [0.0], [0.0]], id="K1-cosine"),
        pytest.param("1,0,0;0,1,0", "product", [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                     id="K2-product"),
    ],
)
def test_simulate_custom_index_reads_beta_as_index_vectors(tmp_path, beta, link, matrix):
    code = run(["simulate", "--model", "custom_index", "--n", 50, "--p", 3, "--seed", 1,
                "--beta", beta, "--link", link, "--output-dir", tmp_path / "cli"])
    assert code == 0
    spec = SimSpec(model="custom_index", n=50, p=3, seed=1, beta=matrix, link=link)
    write_dataset_csv(tmp_path / "want.csv", simulate(spec))
    assert (tmp_path / "cli" / "dataset.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    assert manifest["config"]["beta"] == matrix


def test_simulate_single_index_reads_one_beta_vector(tmp_path):
    code = run(["simulate", "--model", "cosine_index", "--n", 50, "--p", 3, "--seed", 1,
                "--beta", "1,0,0", "--output-dir", tmp_path / "cli"])
    assert code == 0
    spec = SimSpec(model="cosine_index", n=50, p=3, seed=1, beta=[1.0, 0.0, 0.0])
    write_dataset_csv(tmp_path / "want.csv", simulate(spec))
    assert (tmp_path / "cli" / "dataset.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    manifest = json.loads((tmp_path / "cli" / "manifest.json").read_text())
    assert manifest["config"]["beta"] == [1.0, 0.0, 0.0]


def test_threads_equals_spelling_caps_every_thread_variable(tmp_path):
    proc = run_python(["-m", "phdinfluence", "surface", "--grid", "3", "--threads=2",
                       "--output-dir", str(tmp_path)], timeout=120)
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["thread_env"] == {var: "2" for var in _THREAD_ENV_VARS}


def test_threads_is_a_no_op_once_numpy_is_loaded(tmp_path):
    assert "numpy" in sys.modules
    before = dict(os.environ)
    assert run(["surface", "--grid", 3, "--threads", 2, "--output-dir", tmp_path]) == 0
    assert dict(os.environ) == before


def test_fit_pipeline(tmp_path, capsys):
    run(["simulate", "--model", "cosine_index", "--n", 400, "--p", 3,
         "--seed", 10, "--sigma", 0.3, "--output-dir", tmp_path])
    code = run(["fit", "--input", tmp_path / "dataset.csv", "--response", "y",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path / "fit"])
    assert code == 0
    lines = (tmp_path / "fit" / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue,abs_eigenvalue,abs_ratio_to_next"
    assert len(lines) == 4  # header + p rows
    vals = [abs(float(line.split(",")[1])) for line in lines[1:]]
    assert vals == sorted(vals, reverse=True)
    basis = (tmp_path / "fit" / "basis.csv").read_text().splitlines()
    assert basis[0] == "predictor,direction1"
    manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
    assert manifest["config"]["predictors_resolved"] == ["x1", "x2", "x3"]
    assert manifest["input"]["sha256"]
    out = capsys.readouterr().out
    assert "leading eigenvalues" in out


def test_influence_pipeline(tmp_path):
    run(["simulate", "--model", "cosine_index", "--n", 60, "--p", 3,
         "--seed", 20, "--sigma", 0.3, "--output-dir", tmp_path])
    code = run(["influence", "--input", tmp_path / "dataset.csv", "--response", "y",
                "--k", 1, "--output-dir", tmp_path / "inf"])
    assert code == 0
    records = (tmp_path / "inf" / "records.csv").read_text().splitlines()
    assert records[0] == "j,variant,direction,sris,eris,hris,md,flags"
    assert len(records) == 1 + 60 * 2  # one row per observation per variant
    report = json.loads((tmp_path / "inf" / "report.json").read_text())
    assert report["n"] == 60 and report["p"] == 3 and report["k"] == 1
    assert set(report["correlations"]) == {"y", "r"}
    corr = (tmp_path / "inf" / "correlations.csv").read_text().splitlines()
    assert corr[0] == "variant,target,direction,spearman"
    assert len(corr) == 1 + 2 * 3 * 2  # per variant, target, direction+average


def test_surface_checkpoint_cell(tmp_path):
    code = run(["surface", "--norm-max", 3, "--grid", 61,
                "--output-dir", tmp_path])
    assert code == 0
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert len(lines) == 1 + 61 * 61
    target = None
    for line in lines[1:]:
        cells = line.split(",")
        if float(cells[0]) == 2.0 and float(cells[1]) == 0.0:
            target = cells
    assert target is not None
    assert float(target[2]) == pytest.approx(1.0, abs=1e-9)
    assert float(target[3]) == pytest.approx(0.0, abs=1e-9)


def test_validate_constants_small_run(tmp_path, capsys):
    code = run(["validate-constants", "--n", 200000, "--seed", 7,
                "--sigma", 0.5, "--output-dir", tmp_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 4  # three targets plus the exclusion check
    report = json.loads((tmp_path / "constants.json").read_text())
    assert report["all_pass"] is True
    assert {r["name"] for r in report["results"]} == {"mu_y", "cov_zy", "lambda1"}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["fit", "--no-such-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["surface", "--grid", "-1"], "", id="negative-grid"),
        pytest.param(["surface", "--norm-max", "nan"], "", id="nan-norm-max"),
        pytest.param(["simulate", "--n", "0", "--p", "3", "--seed", "1"], "", id="zero-n"),
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--beta", "1,2"], "",
                     id="short-beta"),
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--beta", "1,x,0"], "",
                     id="text-beta"),
        # an empty --beta is malformed, not an absent one
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--beta", ""], "",
                     id="empty-beta-cosine"),
        pytest.param(["simulate", "--model", "quadratic_first", "--n", "50", "--p", "3",
                      "--seed", "1", "--beta", ""], "", id="empty-beta-quadratic-first"),
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--sigma", "-1"], "",
                     id="negative-sigma"),
        pytest.param(["simulate", "--model", "custom_index", "--n", "50", "--p", "3",
                      "--seed", "1"], "", id="custom-index-without-beta"),
        pytest.param(["simulate", "--n", "30", "--p", "3", "--seed", "-1"], "",
                     id="negative-seed"),
        pytest.param(["validate-constants", "--n", "1"], "", id="one-mc-sample"),
        pytest.param(["validate-constants", "--n", "100", "--seed", "-1"], "",
                     id="validate-negative-seed"),
        pytest.param(["validate-constants", "--n", "1000", "--sigma", "-1"], "",
                     id="validate-negative-sigma"),
        # two noiseless draws make a standard error zero: no z-score exists
        pytest.param(["validate-constants", "--n", "2", "--sigma", "0", "--seed", "2"], "",
                     id="validate-zero-standard-error"),
        # at seeds 5 and 6 that standard error is rounding, not zero, and the
        # z-score was of order 1e16
        pytest.param(["validate-constants", "--n", "2", "--sigma", "0", "--seed", "5"], "",
                     id="validate-rounding-standard-error"),
        # the standard errors overflow to inf, every z-score to -0.00: no check means anything
        pytest.param(["validate-constants", "--n", "1000", "--sigma", "1e160"], "",
                     id="validate-overflowing-standard-error"),
        # the estimates overflow to NaN, which JSON cannot hold
        pytest.param(["validate-constants", "--n", "100", "--sigma", "1e308"], "",
                     id="validate-overflowing-estimate"),
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--beta", "1,0,0;0,1,0"],
                     "", id="two-index-vectors-for-cosine"),
        pytest.param(["simulate", "--model", "custom_index", "--n", "50", "--p", "3", "--seed",
                      "1", "--beta", "1,0,0;0,1", "--link", "product"], "", id="ragged-beta"),
        pytest.param(["surface", "--p", "1"], "", id="surface-p1"),
        # the surface overflows at the finite points of ||x0|| = 5e159 and 1e160;
        # the message names the first such grid cell, not a row of the flattened grid
        pytest.param(["surface", "--grid", "3", "--norm-max", "1e160"],
                     "||x0|| = 5e+159, cos theta0 = -1", id="surface-overflow"),
        # 2 ||x0|| overflows at 1e308, so the cosine curve puts y0 at NaN there;
        # the rates already overflow at 5e307
        pytest.param(["surface", "--grid", "3", "--norm-max", "1e308"],
                     "||x0|| = 5e+307, cos theta0 = -1", id="surface-point-overflow"),
        pytest.param(["simulate", "--n", "3", "--p", "3", "--seed", "1"], "",
                     id="n-below-p-plus-2"),
        pytest.param(["simulate", "--model", "cosine_index", "--n", "30", "--p", "3", "--seed",
                      "1", "--link", "product"], "", id="link-for-cosine"),
        pytest.param(["simulate", "--model", "quadratic_first", "--n", "30", "--p", "3",
                      "--seed", "1", "--beta", "0,1,0"], "", id="beta-for-quadratic-first"),
        # a NaN beta also passes the unit-norm test, since abs(nan - 1) > tol is False
        pytest.param(["simulate", "--n", "50", "--p", "3", "--seed", "1", "--beta", "nan,0,0"], "",
                     id="nan-beta-cosine"),
        pytest.param(["simulate", "--model", "linear_index", "--n", "50", "--p", "3", "--seed",
                      "1", "--beta", "nan,0,0"], "", id="nan-beta-linear"),
        pytest.param(["simulate", "--model", "custom_index", "--n", "50", "--p", "3", "--seed",
                      "1", "--beta", "1,nan,0", "--link", "linear"], "", id="nan-beta-custom"),
        pytest.param(["simulate", "--model", "linear_index", "--n", "50", "--p", "3", "--seed",
                      "1", "--beta", "inf,0,0"], "", id="infinite-beta"),
        pytest.param(["surface", "--threads", "0"], "", id="zero-threads"),
        # the input does not exist: the thread check comes before any read
        pytest.param(["fit", "--input", "missing.csv", "--response", "y", "--variant", "y",
                      "--k", "1", "--threads", "-1"], "", id="fit-negative-threads"),
        # the delimiter is checked where the ingest config is built, before any read
        pytest.param(["fit", "--input", "missing.csv", "--response", "y", "--variant", "y",
                      "--k", "1", "--delimiter", ";;"], "", id="two-character-delimiter"),
        pytest.param(["fit", "--input", "missing.csv", "--response", "y", "--variant", "y",
                      "--k", "1", "--delimiter", ""], "", id="empty-delimiter"),
    ],
)
def test_bad_argument_exits_2_with_one_json_error_line(argv, message, tmp_path, capsys):
    code = run([*argv, "--output-dir", tmp_path / "out"])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "InvalidArgument"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()


def test_data_error_exit_code(tmp_path, capsys):
    code = run(["fit", "--input", tmp_path / "missing.csv", "--response", "y",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path])
    assert code == 3
    err = capsys.readouterr().err.strip()
    record = json.loads(err.splitlines()[-1])
    assert "error" in record and "message" in record


def test_response_given_as_a_superscript_digit_is_a_missing_column(tmp_path, capsys):
    # "\u00b2".isdigit() is true, but int("\u00b2") raises
    run(["simulate", "--n", 30, "--p", 3, "--seed", 1, "--output-dir", tmp_path])
    code = run(["fit", "--input", tmp_path / "dataset.csv", "--response", "\u00b2",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path / "out"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "MissingColumn"


@pytest.mark.parametrize("predictors", ["", " "], ids=["empty", "blank"])
def test_an_empty_predictor_list_is_a_missing_column(tmp_path, capsys, predictors):
    # an explicit empty list names no column; it is not "all numeric columns"
    run(["simulate", "--n", 30, "--p", 3, "--seed", 1, "--output-dir", tmp_path])
    capsys.readouterr()
    code = run(["fit", "--input", tmp_path / "dataset.csv", "--response", "y",
                "--predictors", predictors, "--variant", "y", "--k", 1,
                "--output-dir", tmp_path / "out"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "MissingColumn"
    assert not (tmp_path / "out").exists()


def test_duplicate_header_exits_with_one_json_error_line(tmp_path, capsys):
    path = tmp_path / "dupes.csv"
    path.write_text("y,a,a,b\n" + "".join(f"{i},{i % 3},{i * i % 5},{i % 4}\n" for i in range(12)))
    code = run(["fit", "--input", path, "--response", "y",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path / "out"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "DuplicateColumn"
    assert "'a'" in record["message"]


@pytest.mark.parametrize("command", ["fit", "influence"])
@pytest.mark.parametrize("response", ["y", "0"])
def test_response_listed_as_a_predictor_exits_3(tmp_path, capsys, command, response):
    # fit would print eigenvalues of rounding size and influence would stop
    # at a DegenerateEigenvalue: y regressed on itself
    run(["simulate", "--n", 30, "--p", 3, "--seed", 1, "--output-dir", tmp_path])
    capsys.readouterr()
    variant = ["--variant", "r"] if command == "fit" else []
    code = run([command, "--input", tmp_path / "dataset.csv", "--response", response,
                "--predictors", "y,x1,x2", *variant, "--k", 1, "--output-dir", tmp_path / "out"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "DuplicateColumn"
    assert "'y'" in record["message"]


def test_non_finite_predictor_cell_exits_3_naming_its_cell(tmp_path, capsys):
    rows = [f"{i},{i * i % 7},{'inf' if i == 4 else i % 3}\n" for i in range(8)]
    path = tmp_path / "inf.csv"
    path.write_text("y,a,b\n" + "".join(rows))
    code = run(["fit", "--input", path, "--response", "y", "--predictors", "a,b",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path / "out"])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "NonNumericCell"
    assert "row 5" in record["message"] and "'b'" in record["message"]


def test_numeric_error_exit_code(tmp_path, capsys):
    # exactly collinear predictors make the covariance singular
    lines = ["y,x1,x2"]
    rng = np.random.default_rng(0)
    for i in range(12):
        v = rng.standard_normal()
        lines.append(f"{rng.standard_normal()},{v},{2 * v}")
    path = tmp_path / "collinear.csv"
    path.write_text("\n".join(lines) + "\n")
    code = run(["fit", "--input", path, "--response", "y",
                "--variant", "y", "--k", 1, "--output-dir", tmp_path])
    assert code == 4
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "NotPositiveDefinite"


def test_invalid_rank_maps_to_usage_error(tmp_path, capsys):
    run(["simulate", "--model", "cosine_index", "--n", 30, "--p", 2,
         "--seed", 1, "--sigma", 0.1, "--output-dir", tmp_path])
    code = run(["fit", "--input", tmp_path / "dataset.csv", "--response", "y",
                "--variant", "y", "--k", 5, "--output-dir", tmp_path])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidRank"


def test_influence_rank_equal_to_p_is_a_usage_error(tmp_path, capsys):
    # at k = p the span is the whole space and every measure is rounding noise
    run(["simulate", "--model", "cosine_index", "--n", 40, "--p", 3,
         "--seed", 1, "--output-dir", tmp_path])
    code = run(["influence", "--input", tmp_path / "dataset.csv", "--response", "y",
                "--k", 3, "--output-dir", tmp_path / "inf"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "InvalidRank"
    assert not (tmp_path / "inf").exists()


def test_influence_runs_on_predictors_in_units_far_apart(tmp_path):
    # predictor units 10^7 apart put cond(S) near 2e14 while the correlation
    # matrix has cond(C) about 1.6: positive definiteness is a property of C.
    # The flags are not compared with the unit-scale design's, because
    # H = S^-1 M S^-1 is not equivariant under per-column rescaling.
    rng = np.random.default_rng(0)
    z = rng.standard_normal((40, 3))
    y = np.cos(2.0 * z[:, 0] - np.pi / 4.0) + 0.5 * rng.standard_normal(40)
    write_dataset_csv(tmp_path / "mixed.csv", Dataset(y=y, x=z * [1.0, 1e-7, 1.0]))
    code = run(["influence", "--input", tmp_path / "mixed.csv", "--response", "y",
                "--k", 1, "--output-dir", tmp_path / "inf"])
    assert code == 0
    report = json.loads((tmp_path / "inf" / "report.json").read_text())
    assert sorted(rec["j"] for rec in report["records"]) == list(range(40))


def test_influence_runs_on_moderately_collinear_predictors(tmp_path):
    # x4 is x3 plus 3e-3 noise, so cond(C) is about 4.2e5.  ERIS is evaluated
    # on the fit itself; no population model is built from the sample, so
    # no span check rejects the fitted OLS slope's 1.7e-8 rounding leak.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 4))
    x[:, 3] = x[:, 2] + 3e-3 * rng.standard_normal(200)
    y = np.cos(x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(200)
    d = Dataset(y=y, x=x)
    write_dataset_csv(tmp_path / "collinear.csv", d)
    code = run(["influence", "--input", tmp_path / "collinear.csv", "--response", "y",
                "--k", 2, "--output-dir", tmp_path / "inf"])
    assert code == 0
    records = json.loads((tmp_path / "inf" / "report.json").read_text())["records"]
    by_j = {rec["j"]: rec["eris"] for rec in records}
    assert sorted(by_j) == list(range(200))
    m = compute_moments(d)
    rows = [0, 57, 101, 158, 199]
    for variant in ("y", "r"):
        want = mp_eris(d, fit_from_moments(m, variant, 2), m, rows)
        got = np.array([by_j[j][variant] for j in rows])
        assert (np.abs(got - want).max(axis=1) <= 1e-5 * np.abs(want).max(axis=1)).all()


_INGEST_DEFAULTS = {"response_column": "y", "log_response": False,
                    "drop_rows_with_missing_response": True, "predictor_columns": None,
                    "delimiter": ","}


@pytest.mark.parametrize(
    "argv, config, outputs",
    [
        pytest.param(
            ["fit", "--response", "y", "--predictors", "x1, x3", "--variant", "r", "--k", 1],
            {**_INGEST_DEFAULTS, "predictor_columns": ["x1", "x3"],
             "predictors_resolved": ["x1", "x3"], "n": 40, "p": 2, "variant": "r", "k": 1},
            ["eigenvalues.csv", "basis.csv"], id="fit"),
        pytest.param(
            ["influence", "--response", "0", "--keep-missing-response", "--k", 1],
            {**_INGEST_DEFAULTS, "response_column": "0", "drop_rows_with_missing_response": False,
             "predictors_resolved": ["x1", "x2", "x3"], "n": 40, "p": 3, "k": 1},
            ["records.csv", "correlations.csv", "report.json"], id="influence"),
        pytest.param(["surface", "--grid", 3], {"norm_max": 3.0, "grid": 3, "p": 3},
                     ["surface.csv"], id="surface"),
        # without --beta the manifest records the first axis, the beta the model read
        pytest.param(
            ["simulate", "--n", 30, "--p", 3, "--seed", 2],
            {"model": "cosine_index", "n": 30, "p": 3, "seed": 2, "sigma": 1.0,
             "beta": [1.0, 0.0, 0.0], "link": None},
            ["dataset.csv"], id="simulate-cosine-index"),
        pytest.param(
            ["simulate", "--model", "quadratic_first", "--n", 30, "--p", 3, "--seed", 2,
             "--sigma", 0.5],
            {"model": "quadratic_first", "n": 30, "p": 3, "seed": 2, "sigma": 0.5,
             "beta": [1.0, 0.0, 0.0], "link": None},
            ["dataset.csv"], id="simulate-quadratic-first"),
        pytest.param(["validate-constants", "--n", 200000, "--seed", 7, "--sigma", 0.5],
                     {"n": 200000, "sigma": 0.5, "seed": 7}, ["constants.json"],
                     id="validate-constants"),
    ],
)
def test_manifest_records_what_the_command_ran(tmp_path, argv, config, outputs):
    data = tmp_path / "data.csv"
    write_dataset_csv(data, simulate(SimSpec(model="cosine_index", n=40, p=3, seed=5)))
    reads_input = argv[0] in ("fit", "influence")
    out = tmp_path / "out"
    assert run([*argv, *(["--input", data] if reads_input else []), "--output-dir", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["config"] == config
    assert manifest["seed"] == config.get("seed")
    assert sorted(manifest["outputs"]) == sorted(outputs)
    assert {path.name for path in out.iterdir()} == {*outputs, "manifest.json"}
    want_input = {"path": str(data), "sha256": hashlib.sha256(data.read_bytes()).hexdigest()}
    assert manifest["input"] == (want_input if reads_input else None)
    assert manifest["config_sha256"] == _config_sha256(config)
    started = datetime.fromisoformat(manifest["started_at"])
    assert started <= datetime.fromisoformat(manifest["finished_at"])


def _config_sha256(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def _run_child(argv, before: str = "") -> list[str]:
    """Run ``main(argv)`` in a fresh interpreter after the statements
    ``before``; the modules of interest it loaded, by name."""
    code = (
        f"import sys\n{before}"
        "from phdinfluence.cli import main\n"
        f"assert main({[str(a) for a in argv]!r}) == 0\n"
        "print(*(name for name in ('hashlib', '_hashlib', 'phdinfluence.diagnostics')"
        " if name in sys.modules))\n"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["fit", "--response", "y", "--variant", "y", "--k", 1], id="fit"),
        pytest.param(["influence", "--response", "y", "--k", 1], id="influence"),
        pytest.param(["surface", "--grid", 3], id="surface"),
    ],
)
def test_a_cli_child_loads_no_openssl(tmp_path, argv):
    # hashlib loads OpenSSL's libcrypto through _hashlib, megabytes of resident
    # memory, for nothing but the manifest's two digests
    data = tmp_path / "data.csv"
    write_dataset_csv(data, simulate(SimSpec(model="cosine_index", n=40, p=3, seed=5)))
    reads_input = argv[0] in ("fit", "influence")
    loaded = _run_child([*argv, *(["--input", data] if reads_input else []),
                         "--output-dir", tmp_path / "out"])
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert "_hashlib" not in loaded
    assert ("phdinfluence.diagnostics" in loaded) == (argv[0] == "influence")


@pytest.mark.parametrize("fallback", [False, True], ids=["builtin", "hashlib-fallback"])
def test_manifest_digests_equal_hashlib_over_several_chunks(tmp_path, fallback):
    # the input takes three of _sha256_file's 64 KiB reads
    data = tmp_path / "data.csv"
    write_dataset_csv(data, simulate(SimSpec(model="cosine_index", n=2000, p=3, seed=5)))
    assert data.stat().st_size > 2 << 16
    out = tmp_path / "out"
    loaded = _run_child(
        ["fit", "--input", data, "--response", "y", "--variant", "y", "--k", 1,
         "--output-dir", out],
        before="sys.modules['_sha2'] = sys.modules['_sha256'] = None\n" if fallback else "",
    )
    if fallback:
        assert "hashlib" in loaded
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["input"]["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    assert manifest["config_sha256"] == _config_sha256(manifest["config"])


def test_manifest_start_precedes_reading_the_input(tmp_path, monkeypatch):
    # started_at is stamped when the command starts, not after its work
    import phdinfluence.ingest

    run(["simulate", "--n", 60, "--p", 3, "--seed", 2, "--output-dir", tmp_path])
    read_at = []
    ingest_csv = phdinfluence.ingest.ingest_csv

    def timed(*args, **kwargs):
        read_at.append(datetime.now(timezone.utc))
        return ingest_csv(*args, **kwargs)

    monkeypatch.setattr(phdinfluence.ingest, "ingest_csv", timed)
    for command, extra in (("fit", ["--variant", "y"]), ("influence", [])):
        code = run([command, "--input", tmp_path / "dataset.csv", "--response", "y",
                    "--k", 1, *extra, "--output-dir", tmp_path / command])
        assert code == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        started = datetime.fromisoformat(manifest["started_at"])
        assert started <= read_at[-1] <= datetime.fromisoformat(manifest["finished_at"])


def test_names_that_need_quoting_round_trip_through_dataset_and_basis(tmp_path):
    # a comma or a quote in a column name is quoted by csv; plain names keep
    # their bytes
    names = ("a,b", 'say "hi"', "plain")
    d = simulate(SimSpec(model="cosine_index", n=40, p=3, seed=3))
    d = Dataset(y=d.y, x=d.x, names=names)
    write_dataset_csv(tmp_path / "named.csv", d)
    header = (tmp_path / "named.csv").read_text().splitlines()[0]
    assert header == 'y,"a,b","say ""hi""",plain'
    back = ingest_csv(tmp_path / "named.csv", IngestConfig(response_column="y"))
    assert back.names == names
    assert np.array_equal(back.y, d.y) and np.array_equal(back.x, d.x)

    code = run(["fit", "--input", tmp_path / "named.csv", "--response", "y", "--variant", "y",
                "--k", 2, "--output-dir", tmp_path / "fit"])
    assert code == 0
    with open(tmp_path / "fit" / "basis.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["predictor", "direction1", "direction2"]
    assert [row[0] for row in rows[1:]] == list(names)
    assert all(len(row) == 3 for row in rows)
    plain = (tmp_path / "fit" / "basis.csv").read_text().splitlines()[3]
    assert plain == ",".join(rows[3])
