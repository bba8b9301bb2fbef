"""Per-observation influence diagnostics for fitted PHD bases.

Three measures of how much observation j moves the estimated reduction
subspace, all scaled so they estimate the same population rate:

* SRIS: (n-1) |sin| of the angle between each direction refitted without
  observation j and the full-sample span.  Exact: the refit directions are
  the eigenvectors of the leave-one-out Hessian H_(j) = S_(j)^-1 M_(j) S_(j)^-1.
* ERIS: the closed-form population influence rate with every parameter
  replaced by its full-sample estimate and (y_j, x_j) as the contamination
  point.  One call of the vectorised closed form ``ris_rows`` for all n
  observations, no refits.
* HRIS: like ERIS but with the influence matrix of the Hessian replaced by
  the exact deletion effect (n-1)(H - H_(j)).

Every measure accepts the same fits.  One gate, ``_require_measurable``,
raises InvalidRank unless 1 <= k < p (at k = p every measure is rounding
noise) and DegenerateEigenvalue when a fitted eigenvalue is numerically
zero.  ``sris``, ``hris`` and ``eris`` (through ``estimated_model``) call
it; ``influence_report`` checks the rank before any work and meets the rest
of the gate through ``eris``.

SRIS, HRIS and the order_swap flags all read one leave-one-out walk,
``_loo_hessians``: per block of ``loo_block_rows(p)`` observations (a fixed
byte budget per (rows, p, p) stack, see ``moments``) it yields the
``LooMoments`` of one closed-form downdate, the block's regular rows and,
per variant, the stack of their leave-one-out Hessians H_(j).  Each caller
applies the row kernels itself: ``hris`` reads the stack and makes no
eigendecomposition; ``sris`` and the report make one ``eigh`` per H_(j) and
keep its K leading eigenvectors.  At a row on the leverage singularity
``sris`` and ``hris`` raise DegenerateLeverage, while the report leaves
SRIS and HRIS NaN and flags the row ``degenerate_leverage``.

:func:`influence_report` returns all of it as one :class:`InfluenceReport`
of read-only arrays in report order, with the Spearman correlations of SRIS
against ERIS, HRIS and the Mahalanobis distance as a plain dict; the three
writers serialize that report and nothing else.  Every correlation is taken
over the same rows, the records without a ``degenerate_leverage`` flag, and
each vector is ranked once.

The plug-in model behind ERIS uses the rank-K reconstruction of the Hessian
and projects the fitted OLS slope onto the estimated span, which is the
plug-in that satisfies the population model's own constraints.  The reported
value is unchanged by that projection (it only enters through inner products
with basis vectors), and it makes the alpha-display route and the
influence-matrix route (a test oracle) agree to rounding, which the
acceptance suite checks.
ERIS for the r variant plugs in the observation's fitted OLS residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import DegenerateEigenvalue, InvalidRank, UndefinedCorrelation
from .linalg import check_orthonormal, eigen_order, mirror, project_out
from .moments import (
    Dataset,
    MomentSet,
    compute_moments,
    loo_block_rows,
    loo_downdates,
    mahalanobis,
    require_regular,
)
from .phd import VARIANTS, PhdFit, fit_from_moments
from .population import PopulationModel, ris_rows

#: a leave-one-out direction whose overlap with its full-sample partner is
#: beaten by another refit direction by more than this is flagged order_swap.
ORDER_SWAP_TOL = 0.2

#: a fitted eigenvalue at or below this share of sd(y) ||S^-1||_F is
#: numerically zero (see _require_measurable).
ZERO_EIGENVALUE_RTOL = 1e-12

TARGETS = ("eris", "hris", "md")


def _require_rank(k: int, p: int) -> None:
    """Raise InvalidRank unless 1 <= k < p: at k = p the span is the whole
    space and every measure is rounding noise."""
    if not 1 <= k < p:
        raise InvalidRank(f"influence needs rank 1 <= k < p={p}, got {k}")


def _require_measurable(fit: PhdFit, m: MomentSet) -> None:
    """The gate on the fits every influence measure accepts: rank 1 <= k < p
    and no fitted eigenvalue numerically zero (DegenerateEigenvalue).

    The Hessian carries the units of y over those of x squared, so the zero
    test is made against sd(y) ||S^-1||_F, with var(y) = s_xy' S^-1 s_xy +
    r'r/(n-1) read from the moments: rescaling y or x leaves the decision
    unchanged.  It does not use the fit's own |lambda_1|, which is zero
    when the whole Hessian is.
    """
    _require_rank(fit.k, m.p)
    var_y = float(m.s_xy @ m.s_inv @ m.s_xy) + float(m.residuals @ m.residuals) / (m.n - 1)
    scale = math.sqrt(var_y) * float(np.linalg.norm(m.s_inv))
    for lam in fit.lambda_hat.tolist():
        if abs(lam) <= ZERO_EIGENVALUE_RTOL * scale:
            raise DegenerateEigenvalue(
                f"fitted eigenvalue {lam!r} is numerically zero against "
                f"sd(y) ||S^-1||_F = {scale:.6e}; the plug-in influence is undefined"
            )


def estimated_model(fit: PhdFit, m: MomentSet) -> PopulationModel:
    """The fitted population model that the plug-in diagnostics evaluate."""
    _require_measurable(fit, m)
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


def _loo_hessians(d: Dataset, m: MomentSet, variants):
    """Per block of ``loo_block_rows(p)`` observations, yield its
    ``LooMoments``, the indices of its regular rows (not ``degenerate``) and,
    per variant in ``variants``, the stack of their leave-one-out Hessians
    H_(j) = S_(j)^-1 M_(j) S_(j)^-1."""
    step = loo_block_rows(d.p)
    for start in range(0, d.n, step):
        lm = loo_downdates(d, m, np.arange(start, min(start + step, d.n)))
        degenerate = lm.degenerate
        keep = ~degenerate if degenerate.any() else slice(None)  # a slice copies nothing
        s_inv = lm.s_inv_j[keep]
        yield lm, lm.j[keep], {
            v: mirror(s_inv @ (lm.sigma_yxx_j if v == "y" else lm.sigma_rxx_j)[keep] @ s_inv)
            for v in variants
        }


def _hris_rows(fit: PhdFit, h: np.ndarray, n: int) -> np.ndarray:
    """HRIS of a stack of leave-one-out Hessians."""
    sif = (n - 1) * (fit.h - h)
    resid = project_out(fit.gamma_hat, sif @ fit.gamma_hat.columns)
    return np.linalg.norm(resid, axis=-2) / np.abs(fit.lambda_hat)


def _sris_rows(fit: PhdFit, h: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(SRIS, order_swap flags) of a stack of leave-one-out Hessians, from one
    eigendecomposition per Hessian.

    Only the K leading eigenvectors are picked out (by ``eigen_order``); the
    order_swap maximum runs over the unsorted ones, and no output reads the
    sign of a leave-one-out eigenvector, so no sign rule is applied.
    """
    w = np.empty(h.shape[:-1])
    v = np.empty_like(h)
    for i, h_j in enumerate(h):
        w[i], v[i] = np.linalg.eigh(h_j)
    check_orthonormal(v)
    leading = eigen_order(w)[:, None, : fit.k]
    sines = np.linalg.norm(
        project_out(fit.gamma_hat, np.take_along_axis(v, leading, axis=-1)), axis=-2
    )
    overlaps = np.abs(np.swapaxes(v, -1, -2) @ fit.gamma_hat.columns)
    own = np.take_along_axis(overlaps, leading, axis=-2)[:, 0]
    swapped = overlaps.max(axis=-2) - own > ORDER_SWAP_TOL
    return (n - 1) * np.clip(sines, 0.0, 1.0), swapped


def sris(d: Dataset, fit: PhdFit) -> np.ndarray:
    """Leave-one-out refit influence, an n x K matrix.

    Row j refits the same PHD variant on the sample without observation j and
    measures (n-1) |sin| of each direction against the full-sample span.
    """
    m = compute_moments(d)
    _require_measurable(fit, m)
    out = np.empty((d.n, fit.k))
    for lm, rows, h in _loo_hessians(d, m, (fit.variant,)):
        require_regular(lm)
        out[rows] = _sris_rows(fit, h[fit.variant], d.n)[0]
    return out


def eris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Plug-in closed-form influence of every observation, an n x K matrix."""
    model = estimated_model(fit, m)
    w0 = d.y if fit.variant == "y" else m.residuals
    return ris_rows(model, fit.variant, d.x, w0)


def hris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Hybrid influence via the closed-form leave-one-out Hessian, n x K.

    Equals the value obtained by recomputing the Hessian on the n-1 subset.
    Reads only the Hessian stack: no eigendecomposition.
    """
    _require_measurable(fit, m)
    out = np.empty((d.n, fit.k))
    for lm, rows, h in _loo_hessians(d, m, (fit.variant,)):
        require_regular(lm)
        out[rows] = _hris_rows(fit, h[fit.variant], d.n)
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


def _centred_ranks(a: np.ndarray) -> np.ndarray:
    """Average ranks of a vector minus their mean, (a.size + 1) / 2."""
    return _average_ranks(a) - (a.size + 1) / 2.0


def _rank_correlation(ra: np.ndarray, rb: np.ndarray) -> float:
    """Spearman rank correlation from two vectors' centred ranks.  A constant
    vector's centred ranks are all zero, and its correlation is undefined."""
    norms = (ra @ ra) * (rb @ rb)
    if norms == 0.0:
        raise UndefinedCorrelation("rank correlation is undefined for a constant vector")
    return float((ra @ rb) / np.sqrt(norms))


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks for ties; NaN if either
    vector holds a NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 2:
        raise ValueError("spearman needs two equal-length vectors of size >= 2")
    if np.isnan(a).any() or np.isnan(b).any():
        return float("nan")
    return _rank_correlation(_centred_ranks(a), _centred_ranks(b))


_MEASURES = ("sris", "eris", "hris")


def _column(values: np.ndarray, k: int, measure: str, variant: str) -> np.ndarray:
    """The n x K block of a report's value matrix holding one measure of one
    variant."""
    start = (_MEASURES.index(measure) * len(VARIANTS) + VARIANTS.index(variant)) * k
    return values[:, start : start + k]


@dataclass
class InfluenceReport:
    """Everything cmd_influence serializes, as read-only arrays in report
    order (ascending y-based average SRIS, flagged records last).

    Row i is one record: ``j[i]`` is its observation index, ``md[i]`` its
    Mahalanobis distance, ``flags[i]`` its flags, and ``values[i]`` its 6K
    values of SRIS, ERIS and HRIS in (measure, variant, direction) order, the
    order report.json writes them.  ``correlations[variant][target]`` holds
    Spearman(SRIS, target) per direction followed by that of the direction
    averages, for the targets in TARGETS.
    """

    j: np.ndarray
    values: np.ndarray
    md: np.ndarray
    flags: list[tuple[str, ...]]
    correlations: dict[str, dict[str, list[float]]]
    fits: dict[str, PhdFit]
    n: int
    p: int
    k: int

    def column(self, measure: str, variant: str) -> np.ndarray:
        """The n x K block of ``values`` holding one measure of one variant."""
        return _column(self.values, self.k, measure, variant)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def influence_report(d: Dataset, k: int) -> InfluenceReport:
    """Fit both variants at rank k and compute SRIS/ERIS/HRIS plus MD.

    Observations at the leverage singularity get NaN SRIS and HRIS and a
    ``degenerate_leverage`` flag instead of aborting the report.  Records come back
    sorted by ascending y-based average SRIS (flagged records last).  Raises
    InvalidRank unless 1 <= k < p before any work.
    """
    _require_rank(k, d.p)
    m = compute_moments(d)
    fits = {v: fit_from_moments(m, v, k) for v in VARIANTS}
    md = mahalanobis(d, m)

    eris_vals = {v: eris(d, fits[v], m) for v in VARIANTS}
    n = d.n
    sris_vals = {v: np.full((n, k), np.nan) for v in VARIANTS}
    hris_vals = {v: np.full((n, k), np.nan) for v in VARIANTS}
    swapped = {v: np.zeros((n, k), dtype=bool) for v in VARIANTS}
    degenerate = np.zeros(n, dtype=bool)
    for lm, rows, h in _loo_hessians(d, m, VARIANTS):
        degenerate[lm.j] = lm.degenerate
        for v, fit in fits.items():
            hris_vals[v][rows] = _hris_rows(fit, h[v], n)
            sris_vals[v][rows], swapped[v][rows] = _sris_rows(fit, h[v], n)

    flags: list[list[str]] = [[] for _ in range(n)]
    for j in np.flatnonzero(degenerate):
        flags[j].append("degenerate_leverage")
    for v in VARIANTS:
        for j, i in zip(*np.nonzero(swapped[v])):
            flags[j].append(f"order_swap:{v}:{i + 1}")

    avg = sris_vals["y"].mean(axis=1)
    order = np.lexsort((avg, np.isnan(avg)))
    measures = {"sris": sris_vals, "eris": eris_vals, "hris": hris_vals}
    values = _read_only(
        np.concatenate([measures[t][v][order] for t in _MEASURES for v in VARIANTS], axis=1)
    )
    md = _read_only(md[order])
    return InfluenceReport(
        j=_read_only(order),
        values=values,
        md=md,
        flags=[tuple(flags[j]) for j in order],
        correlations=_correlation_table(values, md, k),
        fits=fits,
        n=n,
        p=d.p,
        k=k,
    )


def _correlation_table(
    values: np.ndarray, md: np.ndarray, k: int
) -> dict[str, dict[str, list[float]]]:
    """Spearman correlations of SRIS against each target, per variant, per
    direction and of the direction averages.  ``values`` and ``md`` are the
    report's arrays.

    Every correlation uses the same rows: those whose values and md are all
    finite.  These are the rows without a ``degenerate_leverage`` flag, since
    SRIS and HRIS are NaN exactly there and ERIS and md are finite on every
    row.  Each vector is ranked once; the direction average of md is md.
    """
    keep = np.isfinite(values).all(axis=1) & np.isfinite(md)
    values = values[keep]
    md_ranks = _centred_ranks(md[keep])
    table = {}
    for v in VARIANTS:
        ranks = {"md": [md_ranks] * (k + 1)}
        for t in _MEASURES:
            mat = _column(values, k, t, v)
            ranks[t] = [_centred_ranks(a) for a in (*mat.T, mat.mean(axis=1))]
        table[v] = {
            t: [_rank_correlation(a, b) for a, b in zip(ranks["sris"], ranks[t])]
            for t in TARGETS
        }
    return table


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

#: records formatted per write by the two record writers, so the text held in
#: memory is bounded whatever n is
WRITE_CHUNK = 64


def _record_chunks(report: InfluenceReport):
    """The records in report order, WRITE_CHUNK at a time: per record its j,
    md, flags and 6K values, as Python scalars."""
    for start in range(0, report.n, WRITE_CHUNK):
        rows = slice(start, start + WRITE_CHUNK)
        yield list(zip(
            report.j[rows].tolist(),
            report.md[rows].tolist(),
            report.flags[rows],
            report.values[rows].tolist(),
        ))


def _csv_record(k: int):
    """(%-template, argument picker) of one record's 2K lines of records.csv.

    The picker takes the record's 6K values in (measure, variant, direction)
    order followed by j and the record's ``md,flags`` text, and returns the
    template's fields line by line: j, the three ``.17g`` values, the text.
    """
    lines, fields = [], []
    for a, v in enumerate(VARIANTS):
        for i in range(k):
            lines.append(f"%d,{v},{i + 1},%.17g,%.17g,%.17g,%s\n")
            values = ((t * len(VARIANTS) + a) * k + i for t in range(len(_MEASURES)))
            fields += [6 * k, *values, 6 * k + 1]
    return "".join(lines), itemgetter(*fields)


def write_records_csv(path, report: InfluenceReport) -> None:
    """Long-format CSV: one row per (observation, variant, direction)."""
    template, pick = _csv_record(report.k)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,variant,direction,sris,eris,hris,md,flags\n")
        for chunk in _record_chunks(report):
            fh.write("".join([
                template % pick([*row, j, "%.17g,%s" % (md, ";".join(flags))])
                for j, md, flags, row in chunk
            ]))


def write_correlations_csv(path, report: InfluenceReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,target,direction,spearman\n")
        for v in VARIANTS:
            for t in TARGETS:
                row = report.correlations[v][t]
                for i in range(report.k):
                    fh.write(f"{v},{t},{i + 1},{row[i]:.17g}\n")
                fh.write(f"{v},{t},average,{row[-1]:.17g}\n")


def _f(x) -> float | None:
    """Finite float or None; flagged NaN entries become JSON null."""
    x = float(x)
    return x if np.isfinite(x) else None


def _head_json(report: InfluenceReport) -> dict:
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
    }


def _correlations_json(report: InfluenceReport) -> dict:
    return {
        v: {
            t: {
                "directions": [_f(x) for x in report.correlations[v][t][:-1]],
                "average": _f(report.correlations[v][t][-1]),
            }
            for t in TARGETS
        }
        for v in VARIANTS
    }


def _record_template(k: int) -> str:
    """%-template of one record at rank k, laid out as json.dumps(indent=2)
    lays out an element of the top-level "records" list.  Its fields are j,
    md, the flags text, then the 6k values in (measure, variant) order."""
    values = ",\n".join(["          %s"] * k)
    lists = ",\n".join(f'        "{v}": [\n{values}\n        ]' for v in VARIANTS)
    measures = ",\n".join(f'      "{m}": {{\n{lists}\n      }}' for m in _MEASURES)
    return '    {\n      "j": %d,\n      "md": %s,\n      "flags": %s,\n' + measures + "\n    }"


def _flags_json(flags: tuple[str, ...]) -> str:
    if not flags:
        return "[]"
    return "[\n" + ",\n".join("        " + json.dumps(f) for f in flags) + "\n      ]"


def write_report_json(path, report: InfluenceReport) -> None:
    """Write the report as one JSON document, streaming the records.

    The bytes are those of ``json.dumps(doc, indent=2, allow_nan=False)``
    plus a newline, where ``doc`` holds n, p, k and the fits, the records in
    report order (j, md, flags, then sris, eris and hris lists per variant,
    non-finite values as null) and the correlations.  The records are
    formatted WRITE_CHUNK at a time from the report's value matrix, with one
    template per chunk; only the head and the correlations go through
    ``json``.  A non-finite Mahalanobis distance raises ValueError before the
    file is opened.
    """
    bad = np.flatnonzero(~np.isfinite(report.md))
    if bad.size:
        raise ValueError(
            f"Out of range float values are not JSON compliant: {float(report.md[bad[0]])!r}"
        )
    record = _record_template(report.k)
    head = json.dumps(_head_json(report), indent=2, allow_nan=False)[:-2]
    tail = json.dumps(_correlations_json(report), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head + ',\n  "records": [\n')
        sep = ""
        for chunk in _record_chunks(report):
            template = ",\n".join([record] * len(chunk))
            fields = []
            for j, md, flags, row in chunk:
                if not math.isfinite(sum(row)):  # a non-finite entry makes the sum so
                    row = [x if math.isfinite(x) else "null" for x in row]
                fields += [j, md, _flags_json(flags), *row]
            fh.write(sep + template % tuple(fields))
            sep = ",\n"
        fh.write('\n  ],\n  "correlations": ' + tail.replace("\n", "\n  ") + "\n}\n")
