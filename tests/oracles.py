"""Second routes to quantities the package computes one way.

Each function here reaches a number that the package also computes, along an
independent path, and the tests compare the two.  None of them is part of
the package.

* The influence matrix of the Hessian estimator,

      F_y = H - [Sigma^{-1} d (d' H + sigma_yx Sigma^{-1})] - [...]'
              + (y0 - mu_y) Sigma^{-1} (d d' - Sigma) Sigma^{-1},   d = x0 - mu

  (for the r variant drop the sigma_yx terms and weight by r0), followed by
  || (I - P) F g_k || / |lambda_k|: the closed-form influence rate without
  the alpha displays of ``population.ris_rows``, evaluated point by point
  (:func:`if_h_y`, :func:`if_h_r`, :func:`ris_from_if_matrix`), and ERIS
  through it (:func:`eris_matrix_route`).
* The single-index shortcut of the cosine influence surface,
  RIS = c * ||x0|| * sin(theta0) (:func:`surface_shortcut`).
* The moments of the sample without one row, refitted from scratch in
  40-digit arithmetic (:func:`mp_refit`), and the 40-digit eigensystem of a
  symmetric matrix (:func:`mp_eigh`): the references for the accuracy of the
  closed-form leave-one-out Hessians and of everything built on S^-1.
* ERIS of chosen rows from the alpha display in 40-digit arithmetic, on the
  fit's own Gamma and lambda (:func:`mp_eris`).
* The float sample covariance S that ``compute_moments`` inverts, which the
  package does not keep (:func:`sample_covariance`).
* The influence report as one JSON document (:func:`report_to_json_dict`),
  whose ``json.dumps(indent=2)`` is the byte layout that
  ``diagnostics.write_report_json`` streams.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from phdinfluence.linalg import mirror, project_out
from phdinfluence.phd import VARIANTS
from phdinfluence.population import ContaminationPoint, PopulationModel


def if_h_y(model, pt: ContaminationPoint) -> np.ndarray:
    """Influence matrix of the y-based Hessian estimator (the product-rule
    expansion of the sandwich), evaluated literally."""
    h = model.h
    d = pt.x0 - model.mu
    dy = pt.y0 - model.mu_y
    si = model.sigma_inv
    bracket = np.outer(si @ d, d @ h + model.sigma_xy @ si)
    tail = dy * si @ (np.outer(d, d) - model.sigma) @ si
    return h - bracket - bracket.T + tail


def if_h_r(model, pt: ContaminationPoint, residual: float | None = None) -> np.ndarray:
    """Influence matrix of the r-based Hessian estimator.  Identical shape to
    the y-based one with the covariance-with-Y terms absent and the OLS
    residual replacing the centered response: ``residual`` when given, else
    the population residual y0 - mu_y - (x0 - mu)' Sigma^{-1} sigma_xy."""
    h = model.h
    d = pt.x0 - model.mu
    si = model.sigma_inv
    r0 = pt.y0 - model.mu_y - d @ si @ model.sigma_xy if residual is None else float(residual)
    bracket = np.outer(si @ d, d @ h)
    tail = r0 * si @ (np.outer(d, d) - model.sigma) @ si
    return h - bracket - bracket.T + tail


def ris_from_if_matrix(model, f: np.ndarray) -> np.ndarray:
    """|| (I - P) F g_k || / |lambda_k| for an influence matrix F, the rates
    of all K directions, RIS_k at index k - 1."""
    resid = project_out(model.gamma, f @ model.gamma.columns)
    return np.linalg.norm(resid, axis=0) / np.abs(model.lam)


def sample_covariance(d) -> np.ndarray:
    """The float S of a dataset exactly as ``compute_moments`` forms it before
    inverting it: mirror((x - xbar)'(x - xbar) / (n - 1))."""
    xc = d.x - d.x.mean(axis=0)
    return mirror(xc.T @ xc / (d.n - 1))


def eris_matrix_route(d, fit, m) -> np.ndarray:
    """ERIS, an n x K matrix, through the influence matrix of the Hessian
    estimator at the plug-in model, one observation at a time.

    The plug-in model has the fit's Gamma and lambda and the sample mean and
    covariance; its sigma_xy is S times the fitted OLS slope projected onto
    span(Gamma), which satisfies the model's span check and leaves ERIS
    unchanged (the slope enters only through Gamma' S^-1 sigma_xy)."""
    g = fit.gamma_hat.columns
    s = sample_covariance(d)
    model = PopulationModel(
        mu=d.x.mean(axis=0),
        sigma=s,
        gamma=fit.gamma_hat,
        lam=fit.lambda_hat,
        mu_y=float(d.y.mean()),
        sigma_xy=s @ (g @ (g.T @ (m.s_inv @ m.s_xy))),
    )
    out = np.empty((d.n, fit.k))
    for j in range(d.n):
        pt = ContaminationPoint(y0=float(d.y[j]), x0=d.x[j])
        if fit.variant == "y":
            f = if_h_y(model, pt)
        else:
            f = if_h_r(model, pt, residual=float(m.residuals[j]))
        out[j] = ris_from_if_matrix(model, f)
    return out


def surface_shortcut(model, variant: str, norm_grid, costheta_grid) -> np.ndarray:
    """The cosine influence surface through its single-index factorisation.

    With y0 on the noiseless curve and x0 at (||x0||, cos theta0), the rank-1
    closed form reduces to c * ||x0|| * sin(theta0), where, with
    t = ||x0|| cos(theta0) and b = beta_1' sigma_xy,

        c_y = |((y0 - mu_y) t - lambda_1 t - b) / lambda_1|
        c_r = |((y0 - mu_y - b t) t - lambda_1 t) / lambda_1| .
    """
    beta1 = model.gamma.columns[:, 0]
    lam1 = float(model.lam[0])
    bxy = float(beta1 @ model.sigma_xy)
    nrm = np.asarray(list(norm_grid), dtype=float)[:, None]
    ct = np.asarray(list(costheta_grid), dtype=float)[None, :]
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    dy = np.cos(2.0 * nrm * ct - math.pi / 4.0) - model.mu_y
    if variant == "y":
        c = np.abs((dy * nrm * ct - lam1 * nrm * ct - bxy) / lam1)
    else:
        c = np.abs(((dy - bxy * nrm * ct) * nrm * ct - lam1 * nrm * ct) / lam1)
    return c * nrm * st


class MpRefit(NamedTuple):
    """High-precision moments of one sample, rounded to float64."""

    s_inv: np.ndarray
    sigma_yxx: np.ndarray
    sigma_rxx: np.ndarray
    h_y: np.ndarray
    h_r: np.ndarray


def mp_refit(d, j: int | None, dps: int = 40) -> MpRefit:
    """S^-1, Sigma_yxx, Sigma_rxx and the two Hessians S^-1 M S^-1 of the
    sample without row j (the whole sample when j is None), refitted from
    scratch in dps-digit arithmetic with the float inputs taken as exact."""
    keep = np.arange(d.n) != (-1 if j is None else j)
    with mpmath.workdps(dps):
        mpf = np.vectorize(mpmath.mpf, otypes=[object])
        xs, ys = mpf(d.x[keep]), mpf(d.y[keep])
        m = len(ys)
        xc = xs - xs.sum(axis=0) / m
        yc = ys - ys.sum() / m
        s_inv = np.array(mpmath.inverse(mpmath.matrix((xc.T @ xc / (m - 1)).tolist())).tolist())
        r = yc - xc @ (s_inv @ (xc.T @ yc / (m - 1)))
        yxx = (xc.T * yc) @ xc / m
        rxx = (xc.T * r) @ xc / m
        out = (s_inv, yxx, rxx, s_inv @ yxx @ s_inv, s_inv @ rxx @ s_inv)
        return MpRefit(*(np.array(a, dtype=float) for a in out))


def mp_eigh(a: np.ndarray, dps: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a float symmetric matrix taken as
    exact, from a dps-digit eigensolver, rounded to float64 and ordered by
    descending |eigenvalue|."""
    with mpmath.workdps(dps):
        w, v = mpmath.eigsy(mpmath.matrix(a.tolist()))
        w = np.array(w.tolist(), dtype=float).ravel()
        v = np.array(v.tolist(), dtype=float)
    order = np.argsort(-np.abs(w), kind="stable")
    return w[order], v[:, order]


def mp_eris(d, fit, m, rows, dps=40) -> np.ndarray:
    """ERIS of the given rows from the alpha display, evaluated in dps-digit
    arithmetic with the exact inverse of the float S, on the fit's own
    Gamma and lambda (the float moments taken as exact)."""
    with mpmath.workdps(dps):
        mp = np.vectorize(mpmath.mpf, otypes=[object])
        s_inv = np.array(mpmath.inverse(mpmath.matrix(sample_covariance(d).tolist())).tolist())
        g, lam = mp(fit.gamma_hat.columns), mp(fit.lambda_hat)
        beta_hat = s_inv @ mp(m.s_xy)
        xbar, ybar = d.x.mean(axis=0), float(d.y.mean())
        out = np.empty((len(rows), fit.k))
        for i, j in enumerate(rows):
            dj = mp(d.x[j]) - mp(xbar)
            w = mpmath.mpf(d.y[j]) - mpmath.mpf(ybar)
            if fit.variant == "r":
                w -= dj @ beta_hat
            u = s_inv @ dj
            scal = w * (u @ g) - lam * (dj @ g)
            if fit.variant == "y":
                scal -= g.T @ beta_hat  # the fitted OLS slope's coordinates in Gamma
            for k in range(fit.k):
                ra = scal[k] * u - w * (s_inv @ g[:, k])
                resid = ra - g @ (g.T @ ra)
                out[i, k] = float(mpmath.sqrt(resid @ resid) / abs(lam[k]))
    return out


def report_to_json_dict(report) -> dict:
    """The full influence report as one strictly-JSON-serializable document,
    one record per row of the report's arrays, built from the report's
    fields alone: n, p, k, each fit's spectrum, the records (NaN values as
    null) and the correlations."""

    def finite(x):
        return x if math.isfinite(x) else None

    rows = zip(report.j.tolist(), report.md.tolist(), report.flags)
    return {
        "n": report.n,
        "p": report.p,
        "k": report.k,
        "fits": {
            v: {
                "eigenvalues": [float(x) for x in fit.eigenvalues],
                "lambda_hat": [float(x) for x in fit.lambda_hat],
                "k": fit.k,
            }
            for v, fit in zip(VARIANTS, report.fits)
        },
        "records": [
            {
                "j": j,
                "md": md,
                "flags": list(flags),
                **{
                    t: {v: [finite(float(x)) for x in report.column(t, v)[i]] for v in VARIANTS}
                    for t in ("sris", "eris", "hris")
                },
            }
            for i, (j, md, flags) in enumerate(rows)
        ],
        "correlations": {
            v: {
                t: {
                    "directions": report.correlation(v, t).tolist()[:-1],
                    "average": report.correlation(v, t).tolist()[-1],
                }
                for t in ("eris", "hris", "md")
            }
            for v in VARIANTS
        },
    }
