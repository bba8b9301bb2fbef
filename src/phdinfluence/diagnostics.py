"""Per-observation influence diagnostics for fitted PHD bases.

Three measures of how much observation j moves the estimated reduction
subspace, all scaled so they estimate the same population rate:

* SRIS: (n-1) |sin| of the angle between each direction refitted without
  observation j and the full-sample span.  Exact: the refit directions are
  the eigenvectors of the leave-one-out Hessian H_(j) = S_(j)^-1 M_(j) S_(j)^-1.
* ERIS: the closed-form population influence rate with every parameter
  replaced by its full-sample estimate and (y_j, x_j) as the contamination
  point: one call, for all n observations, of the kernel behind ``ris_rows``
  on the fit itself (Gamma-hat, lambda-hat and the moments' S^-1, u and OLS
  slope, so S is inverted once per report), at the moments' centred rows
  ``xc`` with weights their ``yc`` (y variant, whose slope coordinates
  Gamma-hat' S^-1 s_xy the kernel forms) or the fitted OLS residuals (r
  variant).  No refits.
* HRIS: like ERIS but with the influence matrix of the Hessian replaced by
  the exact deletion effect (n-1)(H - H_(j)).  Only its part off the fitted
  span counts, P (H - H_(j)) Gamma-hat with P = I - Gamma-hat Gamma-hat', and
  P H Gamma-hat = P Gamma-hat Lambda-hat = 0, so HRIS reads P H_(j) Gamma-hat.

Every measure accepts the same fits.  One gate, ``_require_measurable``,
raises InvalidArgument unless the dataset, the moments and the fit share one
shape (n, p), then InvalidRank unless 1 <= k < p (at k = p every measure is
rounding noise), then applies the ``fit`` command's gate
``phd.require_determined``: DegenerateEigenvalue when a fitted eigenvalue is
numerically zero (the zero rule ``phd.require_nonzero``) and
DegenerateSpectrum when two are tied (``phd.require_untied``, the tie rule
``PopulationModel`` applies to its own eigenvalues) or when |lambda_K| ties
|lambda_{K+1}| at the cut (``phd.require_gap``).  ``sris``, ``hris`` and
``eris`` call it; ``influence_report`` checks the rank before any work and
meets the rest of the gate through ``eris``.

SRIS, HRIS and the order_swap flags all read one leave-one-out walk,
``_LooWalk``, over V fits stacked on a variant axis (2 for the report, which
walks both variants in one pass, 1 for ``sris`` and ``hris``).  The walk
reads each row's leverage from the moments and marks the ``degenerate`` rows,
those on the leverage singularity.  Its one loop, ``measures()``, builds the
(rows, V, p, p) stack of the regular rows' leave-one-out Hessians H_(j) one
block of ``loo_block_rows(p)`` observations at a time, so the byte budget
LOO_BLOCK_BYTES, not n, bounds the memory of the pass.  H_(j) comes from a
closed form in the full-sample fit, per-row scalars and a rank-2 term; no
leave-one-out moment is formed, and the scalars of every row are formed once
per walk.  HRIS reads each stack with no eigendecomposition, then SRIS makes
one ``eigh`` call per observation on its (V, p, p) stack, not one per block:
perfbench/test_perfbench.py asserts more than n ``eigh`` calls at n = 40, so
batching waits for the benchmark change and the ROADMAP item on the cost of
SRIS's ``eigh``.  ``sris`` and ``hris`` raise DegenerateLeverage at the first
degenerate row before any stack is built, while the report leaves SRIS and HRIS NaN
there and flags the row ``degenerate_leverage``.

:func:`influence_report` returns all of it as one :class:`InfluenceReport`
of read-only arrays in report order, its values one (n, 3, 2, K) array with
axes (record, measure, variant, direction) and its Spearman correlations of
SRIS against ERIS, HRIS and the Mahalanobis distance one (2, 3, K + 1) array
with axes (variant, target, direction then average); its n, p and K are
read from the arrays' shapes.  The three writers serialize that report and
nothing else, and both record writers read ``values`` in its own axis order.
Every correlation is taken over the same rows, the records without a
``degenerate_leverage`` flag, and each vector is ranked once; neighbours
within RANK_TIE_RTOL of the larger magnitude tie.  A correlation against an
all-tied vector is undefined: NaN in the report, null in report.json, nan in
correlations.csv.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateLeverage, InvalidArgument, InvalidRank, UndefinedCorrelation,
                     is_integer, own_arrays)
from .linalg import check_orthonormal, eigen_order, project_out
from .moments import Dataset, MomentSet, compute_moments, mahalanobis
from .phd import VARIANTS, PhdFit, fit_from_moments, require_determined
from .population import _ris_kernel

#: a leave-one-out direction whose overlap with its full-sample partner is
#: beaten by another refit direction by more than this is flagged order_swap.
ORDER_SWAP_TOL = 0.2

#: smallest whitened leverage margin the leave-one-out walk accepts.  It
#: decides the singularity only: above it H_(j)'s closed form can lose digits
#: faster than margin^-3 (the ROADMAP item on accurate fits at gross outliers):
#: at margin 1e-2, 1.7e-3, 1e-4 or 1.7e-5 a planted outlier's SRIS or HRIS is
#: off by up to 4.9e-10, 1.5e-6, 1.8e-2 or 71 times the row's largest value.
LEVERAGE_RTOL = float(np.sqrt(np.finfo(float).eps))

#: byte budget of one (rows, p, p) float64 stack in a leave-one-out block:
#: 64 rows at p = 16, 16 at p = 32.  Raised from 64 KiB as the walk's
#: blocks shrank to about 3.3 Hessian stacks, it took about 6% off the
#: 2000 x 16 influence op and 18% off the 10000 x 32 report, for 0.1% more
#: peak RSS; the outputs are bit-identical at 64, 128 and 256 KiB on the
#: inputs tried.
LOO_BLOCK_BYTES = 128 * 1024

#: neighbours in sorted order within this share of the larger magnitude tie
#: in a rank: above the 6.0e-16 rounding spread of equal Mahalanobis distances
#: on factorials, below the 8.8e-13 gap of two distinct SRIS near the cap.
RANK_TIE_RTOL = 1e-14

TARGETS = ("eris", "hris", "md")


def loo_block_rows(p: int) -> int:
    """Rows per leave-one-out block at p predictors: as many as fit one
    (rows, p, p) float64 stack into LOO_BLOCK_BYTES."""
    return max(1, LOO_BLOCK_BYTES // (8 * p * p))


def _require_rank(k: int, p: int) -> None:
    """Raise InvalidRank unless k is an integer (``is_integer``) with
    1 <= k < p: at k = p the span is the whole space and every measure is
    rounding noise."""
    if not (is_integer(k) and 1 <= k < p):
        raise InvalidRank(f"influence needs an integer rank 1 <= k < p={p}, got {k!r}")


def _require_measurable(d: Dataset, fit: PhdFit, m: MomentSet) -> None:
    """The gate on the arguments every influence measure accepts: ``d``,
    ``m`` and ``fit`` of one shape (n, p), else InvalidArgument; rank
    1 <= k < p; and the ``fit`` command's gate, ``phd.require_determined``."""
    if (d.n, d.p, fit.gamma_hat.dim) != (m.n, m.p, m.p):
        raise InvalidArgument(
            f"dataset (n={d.n}, p={d.p}), moments (n={m.n}, p={m.p}) and fit "
            f"(p={fit.gamma_hat.dim}) must come from one sample"
        )
    _require_rank(fit.k, m.p)
    require_determined(fit, m)


class _LooWalk:
    """The leave-one-out walk over fits of one rank, stacked on a variant
    axis in the given order: Gamma-hat (V, p, K), |lambda-hat| (V, K) and,
    as ``shared``, c n H (V, p, p).

    With d = x_j - xbar, u = S^-1 d and D = (n-1)^2/n - d'u, deleting row j
    gives S_(j)^-1 = (n-2)/(n-1) (S^-1 + u u'/D) and, with L = n(n+1)/(n-1)^2,
    (n-1) M_(j) = N = n M - e T(u) + a S + g d' + d g' - b d d', T the
    contraction of the predictor third moment X3.  For y, a = y_j - ybar,
    e = 0, g = s_xy and b = a L; for r, a = r_j (n-1)^2/(n D), e = -n r_j/D,
    g = 0 and b = a L - 2 r_j/D, since deleting the row moves the OLS slope
    by -r_j u/D.  Sandwiching N gives

        H_(j) = c [n H + a S^-1 - e G(u) + u w' + w u'],

    c = ((n-2)/(n-1))^2/(n-1), G(u) = S^-1 T(u) S^-1 = sum_a u_a g_third[a]
    (the moments' ``g_third``), v = S^-1 N u and w = S^-1 g + v/D +
    (d'v/D^2 - b) u/2.  The walk takes c in once: it holds c n H, c S^-1 g and
    every row's c a, c e, c b and c d'S^-1 g (c u's_xy for y, 0 for r), so a
    block forms c v and c w from them and does only row-specific work.  Each
    variant's terms are computed on their own, so its values do not depend on
    which others share the walk.

    d, u, d'u and y_j - ybar are the moments' ``xc``, ``u``, ``q`` and ``yc``,
    so the walk reads no Dataset; from q it takes every row's
    ``denom`` D, the whitened ``margin`` D / ((n-1)^2/n) and the ``degenerate``
    mask, margin <= LEVERAGE_RTOL.  D is zero exactly when deleting row j
    leaves a singular covariance; the margin, in [0, 1], is the smallest
    eigenvalue of the whitened leave-one-out covariance over the largest.
    """

    def __init__(self, m: MomentSet, fits):
        n = m.n
        self.m, self.n = m, n
        self.variants = tuple(f.variant for f in fits)
        self.gamma = np.stack([f.gamma_hat.columns for f in fits])
        self.lam = np.abs(np.stack([f.lambda_hat for f in fits]))
        full = (n - 1) ** 2 / n
        self.denom = full - m.q
        self.margin = self.denom / full
        self.degenerate = self.margin <= LEVERAGE_RTOL
        # all times c: every row's a, e, b and d'S^-1 g as one (4, n, V) stack
        # (no block reads a degenerate row's), n H and S^-1 g per variant
        c = ((n - 2) / (n - 1)) ** 2 / (n - 1)
        lever = n * (n + 1) / (n - 1) ** 2
        zero = np.zeros(n)
        r_d = np.divide(m.residuals, self.denom, out=zero.copy(), where=~self.degenerate)
        by_variant = {"y": (m.yc, zero, lever * m.yc, m.u @ m.s_xy),
                      "r": (full * r_d, -n * r_d, (lever * full - 2.0) * r_d, zero)}
        self.scalars = c * np.stack([by_variant[v] for v in self.variants], axis=-1)
        self.shared = (c * n) * np.stack([f.h for f in fits])
        self.slope = c * np.stack([m.beta if v == "y" else 0.0 * m.beta for v in self.variants])

    def require_regular(self) -> None:
        """Raise DegenerateLeverage for the first row that sits at the
        leverage singularity."""
        if self.degenerate.any():
            j = int(np.argmax(self.degenerate))
            raise DegenerateLeverage(
                f"observation {j} sits at the leverage singularity: "
                f"whitened margin ((n-1)^2/n - z'z) / ((n-1)^2/n) = {self.margin[j]:.3e}",
                index=j,
            )

    def blocks(self):
        """Yield ``(rows, h)`` per block of ``loo_block_rows(p)`` observations:
        the block's rows that are not ``degenerate`` and the (R, V, p, p) stack
        of their H_(j), summed in place beside one scratch stack: c a S^-1,
        + c n H, + u (c w)', + (c w) u', - c e G(u) (e = 0 for y).  The einsum
        products write straight into their stack, with no broadcast buffer;
        u w' stays a matmul over a length-1 axis, since einsum would buffer that
        operand."""
        m, p = self.m, self.m.p
        step = loo_block_rows(p)
        for start in range(0, self.n, step):
            rows = start + np.flatnonzero(~self.degenerate[start : start + step])
            dj, u, q, denom = m.xc[rows], m.u[rows], m.q[rows], self.denom[rows]
            a, e, b, d_slope = self.scalars[:, rows]
            v = (np.swapaxes(dj @ self.shared, 0, 1)  # c v, per variant
                 + (a - b * q[:, None] + d_slope)[..., None] * u[:, None]
                 + q[:, None, None] * self.slope)
            g = None
            if "r" in self.variants:
                g = (u @ m.g_third.reshape(p, p * p)).reshape(-1, p, p)
                v -= e[..., None] * (g @ dj[..., None])[:, None, :, 0]
            dv = np.einsum("rp,rvp->rv", dj, v) / (denom**2)[:, None]
            w = self.slope + v / denom[:, None, None] + ((dv - b) / 2)[..., None] * u[:, None]
            h = np.einsum("rv,pq->rvpq", a, m.s_inv)
            h += self.shared  # c a S^-1 + c n H equals c n H + c a S^-1 bit for bit
            scratch = np.matmul(u[:, None, :, None], w[..., None, :])
            h += scratch
            h += np.einsum("rvp,rq->rvpq", w, u, out=scratch)
            if g is not None:  # e = 0 for y, so its slice subtracts zeros
                h -= np.einsum("rv,rpq->rvpq", e, g, out=scratch)
            del scratch, g  # the consumer holds only the block's stack
            yield rows, h
            del h  # so the next block is built without it

    def measures(self):
        """(HRIS, SRIS, order_swap flags) of every row, each (n, V, K), NaN or
        False at the ``degenerate`` rows: the one loop over ``blocks()``."""
        shape = (self.n, *self.lam.shape)
        hris_vals, sris_vals = np.full(shape, np.nan), np.full(shape, np.nan)
        swapped = np.zeros(shape, dtype=bool)
        for rows, h in self.blocks():
            hris_vals[rows] = self.hris(h)
            sris_vals[rows], swapped[rows] = self.sris(h)
            del h  # the walk builds the next stack without this one
        return hris_vals, sris_vals, swapped

    def sris(self, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(SRIS, order_swap flags), each (R, V, K), from one ``eigh`` call
        per observation on its (V, p, p) stack of H_(j), not one per block
        (see the module docstring).  The eigenvectors overwrite ``h``.

        Only the K leading eigenvectors are picked out (by ``eigen_order``);
        the order_swap maximum runs over the unsorted ones, and no output
        reads the sign of a leave-one-out eigenvector, so no sign rule is
        applied.
        """
        v, gamma = h, self.gamma
        w = np.empty(v.shape[:-1])
        for i, h_j in enumerate(v):  # each row's eigenvectors overwrite its Hessians
            w[i], v[i] = np.linalg.eigh(h_j)
        check_orthonormal(v)
        leading = eigen_order(w)[..., None, : gamma.shape[-1]]
        sines = np.linalg.norm(
            project_out(gamma, np.take_along_axis(v, leading, axis=-1)), axis=-2
        )
        overlaps = np.abs(np.swapaxes(v, -1, -2) @ gamma)
        own = np.take_along_axis(overlaps, leading, axis=-2)[..., 0, :]
        swapped = overlaps.max(axis=-2) - own > ORDER_SWAP_TOL
        return (self.n - 1) * np.clip(sines, 0.0, 1.0), swapped

    def hris(self, h: np.ndarray) -> np.ndarray:
        """HRIS, (R, V, K), read from the stack ``h`` of H_(j) with no
        ``eigh``: (n-1) ||P (H - H_(j)) Gamma|| / |lambda| per column,
        P = I - Gamma Gamma', which is (n-1) ||P H_(j) Gamma|| / |lambda|
        since H Gamma = Gamma Lambda, the fit's own eigenvectors, and P Gamma
        = 0.  Call it before ``sris``, which overwrites the stack."""
        cols = project_out(self.gamma, h @ self.gamma)
        return (self.n - 1) * np.linalg.norm(cols, axis=-2) / self.lam


def sris(d: Dataset, fit: PhdFit) -> np.ndarray:
    """Leave-one-out refit influence, an n x K matrix.

    Row j refits the same PHD variant on the sample without observation j and
    measures (n-1) |sin| of each direction against the full-sample span.
    """
    m = compute_moments(d)
    _require_measurable(d, fit, m)
    walk = _LooWalk(m, (fit,))
    walk.require_regular()
    return walk.measures()[1][:, 0]


def eris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Plug-in closed-form influence of every observation, an n x K matrix,
    read from ``m``, the moments of ``d``."""
    _require_measurable(d, fit, m)
    w = m.yc if fit.variant == "y" else m.residuals
    return _ris_kernel(fit.variant, fit.gamma_hat, fit.lambda_hat, m.s_inv, m.beta,
                       m.xc, m.u, w)


def hris(d: Dataset, fit: PhdFit, m: MomentSet) -> np.ndarray:
    """Hybrid influence via the closed-form leave-one-out Hessian, n x K.

    Equals the value obtained by recomputing the Hessian on the n-1 subset.
    Reads the leave-one-out walk's stacks of H_(j), whose blocks hold every
    row once no row is degenerate, with no eigendecomposition.
    """
    _require_measurable(d, fit, m)
    walk = _LooWalk(m, (fit,))
    walk.require_regular()
    return np.concatenate([walk.hris(h) for _, h in walk.blocks()])[:, 0]


def _centred_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks of a NaN-free vector minus their mean, (a.size + 1) / 2: sorted
    neighbours within RANK_TIE_RTOL times the larger magnitude of the two
    share their average rank, so an all-tied vector ranks all zero.  Being
    relative, the bound ignores units; a chain of tied gaps can tie values
    further apart, and rounding noise about an exact zero is not tied.  Equal
    infinities tie; an infinity never ties a finite value."""
    order = np.argsort(a, kind="stable")
    lo, hi = a[order[:-1]], a[order[1:]]
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, 1e308 + 1e308
        gap = hi - lo
    near = np.isfinite(gap) & (gap <= RANK_TIE_RTOL * np.maximum(abs(lo), abs(hi)))
    starts = np.flatnonzero(np.r_[True, (hi != lo) & ~near])
    ends = np.r_[starts[1:], a.size]
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + ends - a.size) / 2.0, ends - starts)
    return ranks


def _rank_correlation(ra: np.ndarray, rb: np.ndarray) -> float:
    """Spearman rank correlation from two vectors' centred ranks; NaN when
    either vector is all tied, since its centred ranks are all zero."""
    norms = (ra @ ra) * (rb @ rb)
    if norms == 0.0:
        return math.nan
    return float((ra @ rb) / np.sqrt(norms))


def spearman(a, b) -> float:
    """Spearman rank correlation, ties as ``_centred_ranks`` decides them (a
    chain of gaps within RANK_TIE_RTOL can tie values further apart; rounding
    noise about an exact zero is not tied); NaN if either vector holds a NaN.
    Two vectors that are not of one length of at least 2 raise
    InvalidArgument; an all-tied vector raises UndefinedCorrelation."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 2:
        raise InvalidArgument("spearman needs two equal-length vectors of size >= 2")
    if np.isnan(a).any() or np.isnan(b).any():
        return math.nan
    rho = _rank_correlation(_centred_ranks(a), _centred_ranks(b))
    if math.isnan(rho):
        raise UndefinedCorrelation("rank correlation is undefined for an all-tied vector")
    return rho


_MEASURES = ("sris", "eris", "hris")


@dataclass(frozen=True, eq=False)
class InfluenceReport:
    """Everything cmd_influence serializes, as read-only copies
    (``errors.own_arrays``) and tuples, in report order (ascending y-based
    average SRIS, flagged records last).

    Row i is one record: ``j[i]`` is its observation index, ``md[i]`` its
    Mahalanobis distance, ``flags[i]`` its flags, and ``values[i]`` its
    (3, 2, K) array of SRIS, ERIS and HRIS, with axes (measure in _MEASURES
    order, variant in VARIANTS order, direction).  ``correlations`` holds
    Spearman(SRIS, target) per direction followed by that of the direction
    averages, with axes (variant in VARIANTS order, target in TARGETS order,
    direction then average).  ``fits`` holds the two fits in VARIANTS order.
    The sizes n, p and K are read from ``j``, ``fits`` and ``values``, not
    stored.  The parts must agree, else InvalidArgument: ``j``, ``md``,
    ``flags`` and ``values`` of one length n, ``values`` of shape
    (n, 3, 2, K), ``correlations`` of shape (2, 3, K + 1), and one rank-K fit
    per variant, in VARIANTS order, all of one p.  Every ``md`` must be
    finite, as every distance ``influence_report`` computes is, else
    InvalidArgument.
    """

    j: np.ndarray
    values: np.ndarray
    md: np.ndarray
    flags: tuple[tuple[str, ...], ...]
    correlations: np.ndarray
    fits: tuple[PhdFit, ...]

    def __post_init__(self):
        own_arrays(self)
        n, k = len(self.flags), self.values.shape[-1]
        fits = [(f.variant, f.k, f.gamma_hat.dim) for f in self.fits]
        if not (self.j.shape == self.md.shape == (n,)
                and self.values.shape == (n, len(_MEASURES), len(VARIANTS), k)
                and self.correlations.shape == (len(VARIANTS), len(TARGETS), k + 1)
                and [f[:2] for f in fits] == [(v, k) for v in VARIANTS]
                and len({f[2] for f in fits}) == 1):
            raise InvalidArgument(
                f"a report's parts disagree: j {self.j.shape}, md {self.md.shape}, {n} flags, "
                f"values {self.values.shape}, correlations {self.correlations.shape}, "
                f"(variant, k, p) fits {fits}")
        if not np.isfinite(self.md).all():
            raise InvalidArgument("every md of a report must be finite")

    @property
    def n(self) -> int:
        """The number of records, the length of ``j``."""
        return self.j.shape[0]

    @property
    def p(self) -> int:
        """The number of predictors, the row count of the fits' Gamma-hat."""
        return self.fits[0].gamma_hat.dim

    @property
    def k(self) -> int:
        """The rank K, the last axis of ``values``."""
        return self.values.shape[-1]

    def column(self, measure: str, variant: str) -> np.ndarray:
        """The n x K block of ``values`` holding one measure of one variant."""
        return self.values[:, _MEASURES.index(measure), VARIANTS.index(variant)]

    def correlation(self, variant: str, target: str) -> np.ndarray:
        """The K + 1 Spearman correlations of SRIS against one target for one
        variant: per direction, then of the direction averages."""
        return self.correlations[VARIANTS.index(variant), TARGETS.index(target)]


def influence_report(d: Dataset, k: int) -> InfluenceReport:
    """Fit both variants at rank k and compute SRIS/ERIS/HRIS plus MD.

    Observations at the leverage singularity get NaN SRIS and HRIS and a
    ``degenerate_leverage`` flag instead of aborting the report.  Records come back
    sorted by ascending y-based average SRIS (flagged records last).  Raises
    InvalidRank unless 1 <= k < p before any work.
    """
    _require_rank(k, d.p)
    m = compute_moments(d)
    fits = tuple(fit_from_moments(m, v, k) for v in VARIANTS)
    md = mahalanobis(m)

    eris_vals = np.stack([eris(d, fit, m) for fit in fits], axis=1)
    walk = _LooWalk(m, fits)
    hris_vals, sris_vals, swapped = walk.measures()

    flags: list[list[str]] = [[] for _ in range(d.n)]
    for j in np.flatnonzero(walk.degenerate):
        flags[j].append("degenerate_leverage")
    for j, a, i in zip(*np.nonzero(swapped)):  # per row, variants in VARIANTS order
        flags[j].append(f"order_swap:{VARIANTS[a]}:{i + 1}")

    avg = sris_vals[:, VARIANTS.index("y")].mean(axis=1)
    order = np.lexsort((avg, np.isnan(avg)))
    values = np.stack((sris_vals, eris_vals, hris_vals), axis=1)[order]
    md = md[order]
    return InfluenceReport(
        j=order,
        values=values,
        md=md,
        flags=tuple(tuple(flags[j]) for j in order),
        correlations=_correlation_table(values, md),
        fits=fits,
    )


def _correlation_table(values: np.ndarray, md: np.ndarray) -> np.ndarray:
    """Spearman correlations of SRIS against each target, per variant, per
    direction and of the direction averages: the report's (2, 3, K + 1)
    ``correlations``.  ``values`` and ``md`` are the report's arrays.

    Every correlation uses the same rows: those whose values are all finite.
    These are the rows without a ``degenerate_leverage`` flag, since SRIS and
    HRIS are NaN exactly there and ERIS and md are finite on every row.
    Each vector is ranked once; the direction average of md is md.  A
    correlation against an all-tied vector (see ``_centred_ranks``) is NaN.
    """
    keep = np.isfinite(values).all(axis=(1, 2, 3))
    values = values[keep]
    md_ranks = _centred_ranks(md[keep])
    table = []
    # per variant, a (measure, record, direction) array
    for by_measure in values.transpose(2, 1, 0, 3):
        ranks = {"md": [md_ranks] * (values.shape[-1] + 1)}
        for t, mat in zip(_MEASURES, by_measure):
            ranks[t] = [_centred_ranks(a) for a in (*mat.T, mat.mean(axis=1))]
        table.append([[_rank_correlation(a, b) for a, b in zip(ranks["sris"], ranks[t])]
                      for t in TARGETS])
    return np.array(table)


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------

#: records formatted per write by the two record writers, so the text held in
#: memory is bounded whatever n is
WRITE_CHUNK = 64


def _record_chunks(report: InfluenceReport):
    """The records in report order, WRITE_CHUNK at a time: per record its j,
    md, flags and 6K values, as Python scalars, the values in the order of
    ``report.values``: (measure, variant, direction)."""
    for start in range(0, report.n, WRITE_CHUNK):
        rows = slice(start, start + WRITE_CHUNK)
        chunk = report.values[rows]
        yield list(zip(
            report.j[rows].tolist(),
            report.md[rows].tolist(),
            report.flags[rows],
            chunk.reshape(len(chunk), -1).tolist(),
        ))


def write_records_csv(path, report: InfluenceReport) -> None:
    """Long-format CSV: one row per (observation, variant, direction).

    Each record is one ``str.format`` call on a template of its 2K lines.
    The template's positional fields are the record's 6K values in the
    report's array order, (measure, variant, direction), then j and the
    record's ``md,flags`` text, formatted once per record; each line points
    at its own SRIS, ERIS and HRIS, written as ``.17g``.
    """
    place = np.arange(report.values[0].size).reshape(report.values.shape[1:])
    end = place.size  # the fields after the values: j, then the md,flags text
    template = "".join(
        "{%d},%s,%d,{%d:.17g},{%d:.17g},{%d:.17g},{%d}\n" % (end, v, i + 1, *place[:, a, i], end + 1)
        for a, v in enumerate(VARIANTS) for i in range(report.k))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("j,variant,direction,sris,eris,hris,md,flags\n")
        for chunk in _record_chunks(report):
            fh.write("".join([
                template.format(*row, j, "%.17g,%s" % (md, ";".join(flags)))
                for j, md, flags, row in chunk
            ]))


def write_correlations_csv(path, report: InfluenceReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("variant,target,direction,spearman\n")
        for v, table in zip(VARIANTS, report.correlations.tolist()):
            for t, row in zip(TARGETS, table):
                for i in range(report.k):
                    fh.write(f"{v},{t},{i + 1},{row[i]:.17g}\n")
                fh.write(f"{v},{t},average,{row[-1]:.17g}\n")


def _record_template(k: int) -> str:
    """%-template of one record at rank k, laid out as json.dumps(indent=2)
    lays out an element of the top-level "records" list.  Its fields are j,
    md, the flags text, then the 6k values in the report's array order:
    (measure, variant, direction)."""
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
    formatted WRITE_CHUNK at a time from the report's value array, with one
    template per chunk; only the head and the correlations go through
    ``json``.  Every md and eigenvalue is finite, an invariant of the report
    and its fits.
    """
    fits = {
        v: {"eigenvalues": fit.eigenvalues.tolist(), "lambda_hat": fit.lambda_hat.tolist(),
            "k": fit.k}
        for v, fit in zip(VARIANTS, report.fits)
    }
    # a correlation against an all-tied vector is NaN, written as null
    c = [[[None if math.isnan(x) else x for x in row] for row in table]
         for table in report.correlations.tolist()]
    correlations = {
        v: {t: {"directions": row[:-1], "average": row[-1]} for t, row in zip(TARGETS, table)}
        for v, table in zip(VARIANTS, c)
    }
    record = _record_template(report.k)
    head = json.dumps({"n": report.n, "p": report.p, "k": report.k, "fits": fits},
                      indent=2, allow_nan=False)[:-2]
    tail = json.dumps(correlations, indent=2, allow_nan=False)
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
