"""Per-observation influence diagnostics for fitted PHD bases.

Three measures of how much observation j moves the estimated reduction
subspace, all scaled so they estimate the same population rate:

* SRIS: (n-1) |sin| of the angle between each direction refitted without
  observation j and the full-sample span.  Exact: the refit directions are
  the eigenvectors of the leave-one-out Hessian H_(j) = S_(j)^-1 M_(j) S_(j)^-1.
* ERIS: the closed-form population influence rate with every parameter
  replaced by its full-sample estimate and (y_j, x_j) as the contamination
  point.  One pass, no refits.
* HRIS: like ERIS but with the influence matrix of the Hessian replaced by
  the exact deletion effect (n-1)(H - H_(j)).

SRIS, HRIS and the order_swap flags of observation j all read the H_(j) of
one closed-form downdate, which alone decides the leverage singularity.

The plug-in model behind ERIS uses the rank-K reconstruction of the Hessian
and projects the fitted OLS slope onto the estimated span, which is the
plug-in that satisfies the population model's own constraints.  The reported
value is unchanged by that projection (it only enters through inner products
with basis vectors), and it makes the alpha-display route and the
influence-matrix route agree to rounding, which the acceptance suite checks.
ERIS for the r variant plugs in the observation's fitted OLS residual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEigenvalue, DegenerateLeverage, UndefinedCorrelation
from .linalg import mirror, project_out, sym_eigen
from .moments import (
    Dataset,
    LooMoments,
    MomentSet,
    compute_moments,
    loo_downdate,
    mahalanobis,
)
from .phd import VARIANTS, PhdFit, fit_from_moments
from .population import (
    ContaminationPoint,
    PopulationModel,
    if_h_r,
    if_h_y,
    ris_from_if_matrix,
    ris_r,
    ris_y,
)

#: a leave-one-out direction whose overlap with its full-sample partner is
#: beaten by another refit direction by more than this is flagged order_swap.
ORDER_SWAP_TOL = 0.2

TARGETS = ("eris", "hris", "md")


def estimated_model(fit: PhdFit, m: MomentSet) -> PopulationModel:
    """The fitted population model that the plug-in diagnostics evaluate."""
    for lam in fit.lambda_hat:
        if abs(float(lam)) < 1e-12:
            raise DegenerateEigenvalue(
                f"fitted eigenvalue {float(lam)!r} is numerically zero; "
                "the plug-in influence is undefined"
            )
    g = fit.gamma_hat.columns
    beta_hat = m.s_inv @ m.s_xy
    sigma_xy_proj = m.s @ (g @ (g.T @ beta_hat))
    return PopulationModel(
        mu=m.xbar,
        sigma=m.s,
        gamma=fit.gamma_hat,
        lam=fit.lambda_hat,
        mu_y=m.ybar,
        sigma_xy=sigma_xy_proj,
    )


def _deletion_row(fit: PhdFit, m: MomentSet, lm: LooMoments) -> tuple[np.ndarray, ...]:
    """(SRIS, HRIS, order_swap flags) of one left-out observation.

    Both measures read the leave-one-out Hessian H_(j): SRIS the sines of its
    leading eigenvectors against the full-sample span, HRIS the part of the
    deletion effect (n-1)(H - H_(j)) that leaves the span.
    """
    n = m.n
    g = fit.gamma_hat.columns
    mat_j = lm.sigma_yxx_j if fit.variant == "y" else lm.sigma_rxx_j
    h_j = mirror(lm.s_inv_j @ mat_j @ lm.s_inv_j)

    vectors = sym_eigen(h_j).vectors
    sines = np.linalg.norm(project_out(fit.gamma_hat, vectors[:, : fit.k]), axis=0)
    sris_vals = (n - 1) * np.clip(sines, 0.0, 1.0)
    overlaps = np.abs(vectors.T @ g)
    swapped = overlaps.max(axis=0) - overlaps.diagonal() > ORDER_SWAP_TOL

    sif = (n - 1) * (fit.h - h_j)
    resid = project_out(fit.gamma_hat, sif @ g)
    hris_vals = np.linalg.norm(resid, axis=0) / np.abs(fit.lambda_hat)
    return sris_vals, hris_vals, swapped


def sris(d: Dataset, fit: PhdFit) -> np.ndarray:
    """Leave-one-out refit influence, an n x K matrix.

    Row j refits the same PHD variant on the sample without observation j and
    measures (n-1) |sin| of each direction against the full-sample span.
    """
    m = compute_moments(d)
    out = np.empty((d.n, fit.k))
    for j in range(d.n):
        out[j] = _deletion_row(fit, m, loo_downdate(d, m, j))[0]
    return out


def eris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Plug-in closed-form influence of every observation, an n x K matrix."""
    model = estimated_model(fit, m)
    out = np.empty((d.n, fit.k))
    for j in range(d.n):
        pt = ContaminationPoint(y0=float(d.y[j]), x0=d.x[j])
        for k in range(fit.k):
            if fit.variant == "y":
                out[j, k] = ris_y(model, pt, k + 1).value
            else:
                out[j, k] = ris_r(model, pt, k + 1, residual=float(m.residuals[j])).value
    return out


def eris_matrix_route(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """ERIS through the influence matrix of the Hessian estimator.

    Independent code path from :func:`eris` (which goes through the alpha
    displays); the two must agree to rounding.
    """
    model = estimated_model(fit, m)
    out = np.empty((d.n, fit.k))
    for j in range(d.n):
        pt = ContaminationPoint(y0=float(d.y[j]), x0=d.x[j])
        if fit.variant == "y":
            f = if_h_y(model, pt)
        else:
            f = if_h_r(model, pt, residual=float(m.residuals[j]))
        for k in range(fit.k):
            out[j, k] = ris_from_if_matrix(model, f, k + 1)
    return out


def hris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Hybrid influence via the closed-form leave-one-out Hessian, n x K.

    Equals the value obtained by recomputing the Hessian on the n-1 subset.
    """
    if np.any(np.abs(fit.lambda_hat) < 1e-12):
        raise DegenerateEigenvalue("fitted eigenvalue is numerically zero")
    out = np.empty((d.n, fit.k))
    for j in range(d.n):
        out[j] = _deletion_row(fit, m, loo_downdate(d, m, j))[1]
    return out


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a vector; tied entries share their average rank."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks for ties; NaN if either
    vector holds a NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 2:
        raise ValueError("spearman needs two equal-length vectors of size >= 2")
    if np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    if float(a.max() - a.min()) == 0.0 or float(b.max() - b.min()) == 0.0:
        raise UndefinedCorrelation("rank correlation is undefined for a constant vector")
    ra = _average_ranks(a) - (a.size + 1) / 2.0
    rb = _average_ranks(b) - (b.size + 1) / 2.0
    return float((ra @ rb) / np.sqrt((ra @ ra) * (rb @ rb)))


@dataclass
class InfluenceRecord:
    """All diagnostics for one observation.

    Arrays are K-vectors keyed by variant; flagged entries are NaN and the
    reason is in ``flags``.
    """

    j: int
    sris: dict[str, np.ndarray]
    eris: dict[str, np.ndarray]
    hris: dict[str, np.ndarray]
    md: float
    flags: tuple[str, ...] = ()

    def avg(self, measure: str, variant: str) -> float:
        return float(np.mean(getattr(self, measure)[variant]))


@dataclass
class CorrelationReport:
    """Spearman correlations of SRIS against ERIS, HRIS and the Mahalanobis
    distance, per variant, per direction plus the direction average."""

    k: int
    values: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def get(self, variant: str, target: str, direction: int | None = None) -> float:
        """direction is 1-based; None means the direction average."""
        row = self.values[variant][target]
        return row[-1] if direction is None else row[direction - 1]


@dataclass
class InfluenceReport:
    """Everything cmd_influence serializes: records, correlations, both fits."""

    records: list[InfluenceRecord]
    correlations: CorrelationReport
    fits: dict[str, PhdFit]
    n: int
    p: int
    k: int


def influence_report(d: Dataset, k: int) -> InfluenceReport:
    """Fit both variants at rank k and compute SRIS/ERIS/HRIS plus MD.

    Observations at the leverage singularity get NaN SRIS and HRIS and a
    ``degenerate_leverage`` flag instead of aborting the report.  Records come back
    sorted by ascending y-based average SRIS (flagged records last).
    """
    m = compute_moments(d)
    fits = {v: fit_from_moments(m, v, k) for v in VARIANTS}
    md = mahalanobis(d, m)

    eris_vals = {v: eris(d, fits[v], m) for v in VARIANTS}

    records: list[InfluenceRecord] = []
    for j in range(d.n):
        flags: list[str] = []
        srs = {v: np.full(k, np.nan) for v in VARIANTS}
        hrs = {v: np.full(k, np.nan) for v in VARIANTS}

        try:
            lm = loo_downdate(d, m, j)
        except DegenerateLeverage:
            flags.append("degenerate_leverage")
        else:
            for v in VARIANTS:
                srs[v], hrs[v], swapped = _deletion_row(fits[v], m, lm)
                for i in np.flatnonzero(swapped):
                    flags.append(f"order_swap:{v}:{i + 1}")

        records.append(
            InfluenceRecord(
                j=j,
                sris=srs,
                eris={v: eris_vals[v][j].copy() for v in VARIANTS},
                hris=hrs,
                md=float(md[j]),
                flags=tuple(flags),
            )
        )

    def sort_key(rec: InfluenceRecord):
        avg = rec.avg("sris", "y")
        return (np.isnan(avg), avg)

    records.sort(key=sort_key)

    corr = CorrelationReport(k=k)
    for v in VARIANTS:
        corr.values[v] = {}
        sris_mat = np.array([rec.sris[v] for rec in records])
        target_mats = {
            "eris": np.array([rec.eris[v] for rec in records]),
            "hris": np.array([rec.hris[v] for rec in records]),
            "md": np.array([[rec.md] * k for rec in records]),
        }
        for t in TARGETS:
            row = []
            for i in range(k):
                row.append(_masked_spearman(sris_mat[:, i], target_mats[t][:, i]))
            row.append(
                _masked_spearman(sris_mat.mean(axis=1), target_mats[t].mean(axis=1))
            )
            corr.values[v][t] = row

    return InfluenceReport(
        records=records, correlations=corr, fits=fits, n=d.n, p=d.p, k=k
    )


def _masked_spearman(a: np.ndarray, b: np.ndarray) -> float:
    keep = np.isfinite(a) & np.isfinite(b)
    return spearman(a[keep], b[keep])


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

def write_records_csv(path, report: InfluenceReport) -> None:
    """Long-format CSV: one row per (observation, variant, direction)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,variant,direction,sris,eris,hris,md,flags\n")
        for rec in report.records:
            flags = ";".join(rec.flags)
            for v in VARIANTS:
                for i in range(report.k):
                    fh.write(
                        f"{rec.j},{v},{i + 1},"
                        f"{rec.sris[v][i]:.17g},{rec.eris[v][i]:.17g},"
                        f"{rec.hris[v][i]:.17g},{rec.md:.17g},{flags}\n"
                    )


def write_correlations_csv(path, report: InfluenceReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,target,direction,spearman\n")
        for v in VARIANTS:
            for t in TARGETS:
                row = report.correlations.values[v][t]
                for i in range(report.k):
                    fh.write(f"{v},{t},{i + 1},{row[i]:.17g}\n")
                fh.write(f"{v},{t},average,{row[-1]:.17g}\n")


def _f(x) -> float | None:
    """Finite float or None; flagged NaN entries become JSON null."""
    x = float(x)
    return x if np.isfinite(x) else None


def report_to_json_dict(report: InfluenceReport) -> dict:
    """The full report as one strictly-JSON-serializable document."""
    return {
        "n": report.n,
        "p": report.p,
        "k": report.k,
        "fits": {
            v: {
                "eigenvalues": [float(x) for x in report.fits[v].eig.values],
                "lambda_hat": [float(x) for x in report.fits[v].lambda_hat],
                "k": report.fits[v].k,
            }
            for v in VARIANTS
        },
        "records": [
            {
                "j": rec.j,
                "md": rec.md,
                "flags": list(rec.flags),
                "sris": {v: [_f(x) for x in rec.sris[v]] for v in VARIANTS},
                "eris": {v: [_f(x) for x in rec.eris[v]] for v in VARIANTS},
                "hris": {v: [_f(x) for x in rec.hris[v]] for v in VARIANTS},
            }
            for rec in report.records
        ],
        "correlations": {
            v: {
                t: {
                    "directions": [
                        _f(report.correlations.values[v][t][i]) for i in range(report.k)
                    ],
                    "average": _f(report.correlations.values[v][t][-1]),
                }
                for t in TARGETS
            }
            for v in VARIANTS
        },
    }


def write_report_json(path, report: InfluenceReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_to_json_dict(report), fh, indent=2, allow_nan=False)
        fh.write("\n")
