"""Acceptance suite.

Every test here is one release gate, run at its stated tolerance and time
budget, and prints one PASS/FAIL line (visible with ``pytest -s``).  The
baseball-salary reproduction is best effort: it runs only when a local copy
of the dataset is supplied (see README), and otherwise gates on the seeded
synthetic equivalent.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from phdinfluence import (
    ContaminationPoint,
    Dataset,
    IngestConfig,
    SimSpec,
    compute_moments,
    eris,
    cosine_model,
    influence_surface,
    fit_from_moments,
    fit_phd,
    hris,
    influence_report,
    ingest_csv,
    ris,
    ris_numeric_oracle,
    simulate,
)
from phdinfluence.cli import _THREAD_ENV_VARS
from conftest import loo_hessians, random_model, run_python
from oracles import eris_matrix_route, surface_shortcut


def _report(num: int, name: str, ok: bool) -> None:
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}",
          flush=True)


# ----------------------------------------------------------------------
# 1. closed forms against the finite-eps oracle
# ----------------------------------------------------------------------

def test_criterion_1_theorem_vs_oracle():
    ok = False
    t0 = time.monotonic()
    try:
        cases = [(11, 3, 1, True), (22, 5, 2, False), (33, 4, 2, False)]
        for seed, p, k, identity in cases:
            rng = np.random.default_rng(seed)
            model = random_model(rng, p, k, identity_sigma=identity)
            for _ in range(20):
                pt = ContaminationPoint(
                    y0=model.mu_y + 2.0 * float(rng.standard_normal()),
                    x0=model.mu + 2.0 * rng.standard_normal(p),
                )
                for variant in ("y", "r"):
                    # all K rates of a point from one oracle eigensystem
                    closed = ris(model, variant, pt)
                    oracle = ris_numeric_oracle(model, variant, pt, eps=1e-6)
                    rel = np.abs(closed - oracle) / np.maximum(closed, 1e-8)
                    assert (rel <= 1e-3).all(), (variant, closed, oracle)
        assert time.monotonic() - t0 <= 10.0
        ok = True
    finally:
        _report(1, "closed form vs numeric oracle", ok)


# ----------------------------------------------------------------------
# 2. Monte Carlo validation of the analytic constants
# ----------------------------------------------------------------------

def test_criterion_2_constants_validator(tmp_path, capsys):
    ok = False
    t0 = time.monotonic()
    try:
        from phdinfluence.cli import main

        code = main([
            "validate-constants", "--n", "10000000", "--seed", "7",
            "--sigma", "0.5", "--output-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 4 and "FAIL" not in out
        report = json.loads((tmp_path / "constants.json").read_text())
        targets = {"mu_y": 0.0956965, "cov_zy": 0.1913931, "lambda1": -0.3827862}
        for row in report["results"]:
            assert abs(row["estimate"] - targets[row["name"]]) <= 3.0 * row["se"]
            if row["name"] == "lambda1":
                assert abs(row["estimate"] - (-0.1913931)) > 3.0 * row["se"]
        assert time.monotonic() - t0 <= 60.0
        ok = True
    finally:
        _report(2, "analytic constants by Monte Carlo", ok)


# ----------------------------------------------------------------------
# 3. the exact special cases
# ----------------------------------------------------------------------

def test_criterion_3_exact_special_cases():
    ok = False
    t0 = time.monotonic()
    try:
        rng = np.random.default_rng(303)
        model = random_model(rng, 4, 2, identity_sigma=True)
        u = rng.standard_normal(4)
        u -= model.gamma.columns @ (model.gamma.columns.T @ u)
        u /= np.linalg.norm(u)
        for c in (0.7, -2.5):
            pt = ContaminationPoint(y0=float(rng.standard_normal()), x0=c * u)
            for k in (1, 2):
                g = model.gamma.columns[:, k - 1]
                expected = abs(c * float(model.sigma_xy @ g) / model.lam[k - 1])
                assert abs(ris(model, "y", pt)[k - 1] - expected) <= 1e-12
                assert ris(model, "r", pt)[k - 1] <= 1e-12

        null_model = random_model(rng, 4, 2, zero_sigma_xy=True)
        for _ in range(10):
            pt = ContaminationPoint(
                y0=float(rng.standard_normal()), x0=rng.standard_normal(4)
            )
            for k in (1, 2):
                assert abs(
                    ris(null_model, "y", pt)[k - 1] - ris(null_model, "r", pt)[k - 1]
                ) <= 1e-12
        assert time.monotonic() - t0 <= 1.0
        ok = True
    finally:
        _report(3, "orthogonal contamination and null covariance", ok)


# ----------------------------------------------------------------------
# 4. influence surface checkpoints
# ----------------------------------------------------------------------

def test_criterion_4_surface_checkpoints():
    ok = False
    t0 = time.monotonic()
    try:
        model = cosine_model(p=3)
        norms = np.linspace(0.0, 3.0, 13)
        costhetas = np.linspace(-1.0, 1.0, 9)
        surface = influence_surface(norms, costhetas)
        grid_y, grid_r = surface[..., 0], surface[..., 1]
        a = int(np.flatnonzero(np.isclose(norms, 2.0))[0])
        b = int(np.flatnonzero(np.isclose(costhetas, 0.0))[0])
        assert abs(grid_y[a, b] - 1.0) <= 1e-9
        assert abs(grid_r[a, b]) <= 1e-9
        for grid in (grid_y, grid_r):
            assert np.abs(grid[:, 0]).max() <= 1e-9
            assert np.abs(grid[:, -1]).max() <= 1e-9
        # the CLI's default grid against the single-index shortcut
        norms61 = np.linspace(0.0, 3.0, 61)
        costhetas61 = np.linspace(-1.0, 1.0, 61)
        general = influence_surface(norms61, costhetas61)
        for v, variant in enumerate(("y", "r")):
            shortcut = surface_shortcut(model, variant, norms61, costhetas61)
            assert np.abs(general[..., v] - shortcut).max() <= 1e-9
        max_y, max_r = influence_surface([2.0], np.linspace(-1.0, 1.0, 201)).max(axis=(0, 1))
        assert max_r > max_y
        assert time.monotonic() - t0 <= 5.0
        ok = True
    finally:
        _report(4, "influence surface checkpoints", ok)


# ----------------------------------------------------------------------
# 5. closed-form leave-one-out Hessians against brute force
# ----------------------------------------------------------------------

def test_criterion_5_loo_hessians_match_refits():
    ok = False
    t0 = time.monotonic()
    try:
        rng = np.random.default_rng(555)
        x = rng.standard_normal((40, 4))
        y = np.cos(2 * x[:, 0] - np.pi / 4) + 0.5 * rng.standard_normal(40)
        d = Dataset(y=y, x=x)
        m = compute_moments(d)
        fits = {v: fit_from_moments(m, v, 2) for v in ("y", "r")}
        hris_vals = {v: hris(d, fits[v], m) for v in ("y", "r")}

        def rel(a, b):
            return np.abs(a - b).max() / max(1e-12, np.abs(b).max())

        h, degenerate = loo_hessians(m, fits.values())
        assert not degenerate.any()
        for j in range(d.n):
            mask = np.ones(d.n, bool)
            mask[j] = False
            ys, xs = y[mask], x[mask]
            nn = len(ys)
            xc = xs - xs.mean(axis=0)
            yc = ys - ys.mean()
            s_bf = xc.T @ xc / (nn - 1)
            s_inv_bf = np.linalg.inv(s_bf)
            yxx_bf = (xc.T * yc) @ xc / nn
            beta_bf = s_inv_bf @ (xc.T @ yc / (nn - 1))
            resid_bf = yc - xc @ beta_bf
            rxx_bf = (xc.T * resid_bf) @ xc / nn
            for a, v in enumerate(fits):
                fit = fits[v]
                third = yxx_bf if v == "y" else rxx_bf
                h_bf = s_inv_bf @ third @ s_inv_bf
                assert rel(h[j, a], h_bf) <= 1e-9
                sif = (d.n - 1) * (fit.h - h_bf)
                for k in range(2):
                    gk = fit.gamma_hat.columns[:, k]
                    vec = sif @ gk
                    vec -= fit.gamma_hat.columns @ (fit.gamma_hat.columns.T @ vec)
                    expected = np.linalg.norm(vec) / abs(fit.lambda_hat[k])
                    got = hris_vals[v][j, k]
                    assert abs(got - expected) / max(1e-12, expected) <= 1e-9
        assert time.monotonic() - t0 <= 5.0
        ok = True
    finally:
        _report(5, "closed-form leave-one-out Hessians vs brute force", ok)


# ----------------------------------------------------------------------
# 6. hitters data reproduction, or the seeded synthetic gate
# ----------------------------------------------------------------------

def _hitters_path():
    env = os.environ.get("PHDINFLUENCE_HITTERS")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "hitters.csv"
    return local if local.exists() else None


def test_criterion_6_influence_ranking_gate():
    ok = False
    path = _hitters_path()
    label = "hitters reproduction" if path else "seeded influence ranking gate"
    try:
        if path is not None:
            cfg = IngestConfig(
                response_column="Salary",
                log_response=True,
                drop_rows_with_missing_response=True,
            )
            d = ingest_csv(path, cfg)
            assert d.n == 263
            fit = fit_phd(d, "y", 2)
            top3 = np.abs(fit.eigenvalues[:3])
            for got, want in zip(top3, (0.0314, 0.0238, 0.0060)):
                assert abs(got - want) <= 0.003
            report = influence_report(d, 2)
            table = {
                ("y", "eris"): (0.898, 0.922, 0.935),
                ("y", "hris"): (0.996, 0.992, 0.995),
                ("y", "md"): (0.435, 0.388, 0.506),
                ("r", "eris"): (0.912, 0.776, 0.821),
                ("r", "hris"): (0.999, 0.946, 0.952),
                ("r", "md"): (0.388, 0.544, 0.564),
            }
            for (variant, target), wanted in table.items():
                row = report.correlation(variant, target)
                for got, want in zip(row, wanted):
                    assert abs(got - want) <= 0.05, (variant, target, row, wanted)
            max_y = np.nanmax(report.column("sris", "y").mean(axis=1))
            max_r = np.nanmax(report.column("sris", "r").mean(axis=1))
            assert max_r > 3.0 * max_y
        else:
            meds = {t: [] for t in ("eris", "hris", "md")}
            for seed in range(10):
                d = simulate(
                    SimSpec(n=263, p=4, seed=1000 + seed,
                            sigma=0.5)
                )
                rep = influence_report(d, 1)
                for t in meds:
                    meds[t].append(rep.correlation("y", t)[-1])
            med = {t: float(np.median(v)) for t, v in meds.items()}
            assert med["hris"] >= med["eris"] >= 0.8, med
            assert med["md"] < med["eris"], med
        ok = True
    finally:
        _report(6, label, ok)


# ----------------------------------------------------------------------
# 7. the two plug-in routes are the same number
# ----------------------------------------------------------------------

def test_criterion_7_plug_in_route_agreement():
    ok = False
    t0 = time.monotonic()
    try:
        d = simulate(SimSpec(n=80, p=4, seed=707, sigma=0.4))
        m = compute_moments(d)
        for variant in ("y", "r"):
            fit = fit_from_moments(m, variant, 2)
            a = eris(d, fit, m)
            b = eris_matrix_route(d, fit, m)
            assert np.abs(a - b).max() <= 1e-9
        assert time.monotonic() - t0 <= 2.0
        ok = True
    finally:
        _report(7, "plug-in influence route agreement", ok)


# ----------------------------------------------------------------------
# 8. byte-identical output across thread settings
# ----------------------------------------------------------------------

def _run_cli(outdir: Path, args: list[str], unset=()) -> None:
    proc = run_python(["-m", "phdinfluence", *args, "--output-dir", str(outdir)], timeout=300,
                      unset=unset)
    assert proc.returncode == 0, proc.stderr


def _numeric_files(outdir: Path) -> dict[str, bytes]:
    return {
        f.name: f.read_bytes()
        for f in sorted(outdir.iterdir())
        if f.name != "manifest.json"
    }


def test_criterion_8_thread_count_determinism(tmp_path):
    ok = False
    try:
        jobs = {
            "simulate": ["simulate", "--n", "500",
                         "--p", "3", "--seed", "42", "--sigma", "0.5"],
            "surface": ["surface", "--norm-max", "3", "--grid", "21"],
            "validate": ["validate-constants", "--n", "1000000", "--seed", "7",
                         "--sigma", "0.5"],
        }
        sim_dir = tmp_path / "sim_src"
        _run_cli(sim_dir, jobs["simulate"])
        jobs["fit"] = ["fit", "--input", str(sim_dir / "dataset.csv"),
                       "--response", "y", "--variant", "y", "--k", "2"]
        jobs["influence"] = ["influence", "--input", str(sim_dir / "dataset.csv"),
                             "--response", "y", "--k", "1"]
        for name, args in jobs.items():
            single = tmp_path / f"{name}_t1"
            default = tmp_path / f"{name}_default"
            _run_cli(single, args + ["--threads", "1"])
            # the default side sees no thread variable, whatever the runner sets
            _run_cli(default, args, unset=_THREAD_ENV_VARS)
            for outdir, want in ((single, "1"), (default, None)):
                manifest = json.loads((outdir / "manifest.json").read_text())
                assert manifest["thread_env"] == dict.fromkeys(_THREAD_ENV_VARS, want), name
            files_a, files_b = _numeric_files(single), _numeric_files(default)
            assert files_a.keys() == files_b.keys()
            for fname in files_a:
                assert files_a[fname] == files_b[fname], (name, fname)
        ok = True
    finally:
        _report(8, "byte-identical output across thread caps", ok)
