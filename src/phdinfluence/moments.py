"""Sample moments, OLS byproducts and closed-form leave-one-out downdates.

Conventions (they matter downstream, do not mix):

* ``s`` and ``s_xy`` are the unbiased estimators (divide by n - 1);
* ``sigma_yxx_hat`` and ``sigma_rxx_hat`` are maximum-likelihood third
  moments (divide by n);
* OLS residuals are ``r_i = y_i - ybar - (x_i - xbar)' s_inv s_xy``.

The leave-one-out quantities are computed by exact rank-one downdates of the
full-sample moments (Sherman-Morrison for the inverse), never by re-scanning
the data.  With ``d = x_j - xbar``, ``dy = y_j - ybar`` and ``u = S^{-1} d``:

    S_(j)^{-1} = (n-2)/(n-1) * [S^{-1} + u u' / ((n-1)^2/n - d'u)]

    Sigma_yxx,(j) = [ n Sigma_yxx + s_xy d' + d s_xy'
                      + dy (S - n(n+1)/(n-1)^2 * d d') ] / (n-1)

and the residual-weighted analogue subtracts the same-shaped downdate of the
predictor third moment contracted with the leave-one-out OLS slope
S_(j)^{-1} s_xy,(j).  The formulas are validated against brute-force and
high-precision refits in the test suite.

Blocked evaluation: :func:`loo_downdates` evaluates these closed forms once
for a whole block of rows, as (rows, p, p) stacks; a single row is a block
of one.  Callers walk the sample in blocks of :func:`loo_block_rows` rows,
sized so that one (rows, p, p) float64 stack fits in LOO_BLOCK_BYTES; the
byte budget, not the sample size, bounds the memory of a leave-one-out pass.

Leverage criterion: with z'z = d'S^{-1}d = d'u, the scalar (n-1)^2/n - z'z is
zero exactly when deleting row j leaves a singular covariance (the leverage
singularity).  Its whitened margin, (n-1)^2/n - z'z divided by (n-1)^2/n, is
the smallest eigenvalue of the whitened leave-one-out covariance relative to
the others and lies in [0, 1].  A margin at or below LEVERAGE_RTOL puts the
row in :attr:`LooMoments.degenerate`, which :func:`require_regular` turns
into DegenerateLeverage; that property is the only place the leverage
singularity is decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeverage, InsufficientData
from .linalg import mirror, spd_inverse

#: smallest whitened leverage margin a downdate accepts.  The u u' / denom
#: term amplifies the rounding error in denom by 1/margin, so below sqrt(eps)
#: the leave-one-out inverse keeps fewer than half of its significant digits.
LEVERAGE_RTOL = float(np.sqrt(np.finfo(float).eps))

#: byte budget of one (rows, p, p) float64 stack in a blocked downdate: 32
#: rows at p = 16.  Larger blocks buy little speed and raise peak memory.
LOO_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Dataset:
    """n observations of (scalar response, p-vector predictor).

    Requires n >= p + 2 so that every leave-one-out covariance can still be
    invertible.  Arrays are stored read-only.  ``names`` defaults to
    x1, ..., xp.
    """

    y: np.ndarray
    x: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        if x.ndim != 2:
            raise InsufficientData(f"x must be an n x p matrix, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InsufficientData(
                f"y must be a length-{x.shape[0]} vector, got shape {y.shape}"
            )
        n, p = x.shape
        if p < 1:
            raise InsufficientData("need at least one predictor column")
        if n < p + 2:
            raise InsufficientData(f"need n >= p + 2 observations, got n={n}, p={p}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InsufficientData("dataset has non-finite entries")
        names = tuple(f"x{i + 1}" for i in range(p)) if self.names is None else self.names
        if len(names) != p:
            raise InsufficientData(f"got {len(names)} column names for p={p} predictors")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class MomentSet:
    """Every moment a PHD fit or downdate needs, computed in one pass.

    ``x_third`` is the p x p x p maximum-likelihood third central moment
    tensor of the predictors; it powers the closed-form downdate of the
    residual-weighted third moment.
    """

    xbar: np.ndarray
    ybar: float
    s: np.ndarray
    s_inv: np.ndarray
    s_xy: np.ndarray
    sigma_yxx_hat: np.ndarray
    sigma_rxx_hat: np.ndarray
    residuals: np.ndarray
    x_third: np.ndarray

    @property
    def n(self) -> int:
        return self.residuals.shape[0]

    @property
    def p(self) -> int:
        return self.xbar.shape[0]


@dataclass(frozen=True)
class LooMoments:
    """Moments of the sample with each row of a block removed, from
    closed-form downdates (:func:`loo_downdates`).

    Every field carries a leading axis over the block's rows: ``j`` holds
    their observation indices and ``margin`` their whitened leverage margins.
    Rows at the leverage singularity (``degenerate``) hold NaN in ``s_inv_j``
    and ``sigma_rxx_j``, the quantities that need S_(j)^-1.
    """

    j: np.ndarray
    s_inv_j: np.ndarray
    s_xy_j: np.ndarray
    sigma_yxx_j: np.ndarray
    sigma_rxx_j: np.ndarray
    margin: np.ndarray

    @property
    def degenerate(self) -> np.ndarray:
        """Mask of the rows at the leverage singularity: whitened margin at
        or below LEVERAGE_RTOL."""
        return self.margin <= LEVERAGE_RTOL


def compute_moments(d: Dataset) -> MomentSet:
    """All first/second/third-order sample moments of a dataset.

    Raises NotPositiveDefinite when the sample covariance is singular.
    """
    y, x = d.y, d.x
    n, p = x.shape
    xbar = x.mean(axis=0)
    ybar = float(y.mean())
    xc = x - xbar
    yc = y - ybar

    s = mirror(xc.T @ xc / (n - 1))
    s_inv = spd_inverse(s)
    s_xy = xc.T @ yc / (n - 1)

    sigma_yxx = mirror((xc.T * yc) @ xc / n)
    beta = s_inv @ s_xy
    residuals = yc - xc @ beta
    sigma_rxx = mirror((xc.T * residuals) @ xc / n)

    x_third = np.empty((p, p, p))
    for a in range(p):
        x_third[a] = mirror((xc.T * xc[:, a]) @ xc / n)

    return MomentSet(
        xbar=xbar,
        ybar=ybar,
        s=s,
        s_inv=s_inv,
        s_xy=s_xy,
        sigma_yxx_hat=sigma_yxx,
        sigma_rxx_hat=sigma_rxx,
        residuals=residuals,
        x_third=x_third,
    )


def loo_block_rows(p: int) -> int:
    """Rows per block of :func:`loo_downdates` callers at p predictors: as
    many as fit one (rows, p, p) float64 stack into LOO_BLOCK_BYTES."""
    return max(1, LOO_BLOCK_BYTES // (8 * p * p))


def loo_downdates(d: Dataset, m: MomentSet, rows) -> LooMoments:
    """Closed-form moments of the sample without each observation in ``rows``,
    with a leading axis over ``rows``."""
    n = d.n
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or np.any((rows < 0) | (rows >= n)):
        raise IndexError(f"observation indices {rows.tolist()} out of range for n={n}")

    dj = d.x[rows] - m.xbar
    dyj = d.y[rows] - m.ybar

    u = dj @ m.s_inv
    full = (n - 1) ** 2 / n
    denom = full - np.einsum("ij,ij->i", dj, u)
    margin = denom / full
    # A denominator at or below LEVERAGE_RTOL * full is a row at the leverage
    # singularity (LooMoments.degenerate): the floor keeps it finite until it
    # is set to NaN below.
    denom = np.maximum(denom, LEVERAGE_RTOL * full)
    s_inv_j = (n - 2) / (n - 1) * (m.s_inv + u[:, :, None] * u[:, None, :] / denom[:, None, None])

    s_xy_j = ((n - 1) * m.s_xy - (n / (n - 1)) * dyj[:, None] * dj) / (n - 2)

    lever = n * (n + 1) / (n - 1) ** 2
    s_lever = m.s - lever * (dj[:, :, None] * dj[:, None, :])
    sigma_yxx_j = mirror(
        (
            n * m.sigma_yxx_hat
            + m.s_xy[:, None] * dj[:, None, :]
            + dj[:, :, None] * m.s_xy
            + dyj[:, None, None] * s_lever
        )
        / (n - 1)
    )

    # Residual-weighted analogue: subtract the downdated predictor third
    # moment contracted with the leave-one-out OLS slope.
    beta_j = np.einsum("rab,rb->ra", s_inv_j, s_xy_j)
    t_beta = np.tensordot(beta_j, m.x_third, axes=([1], [0]))
    s_beta = beta_j @ m.s
    d_beta = np.einsum("ra,ra->r", dj, beta_j)
    sigma_rxx_j = mirror(
        sigma_yxx_j
        - (
            n * t_beta
            + s_beta[:, :, None] * dj[:, None, :]
            + dj[:, :, None] * s_beta[:, None, :]
            + d_beta[:, None, None] * s_lever
        )
        / (n - 1)
    )
    lm = LooMoments(
        j=rows,
        s_inv_j=s_inv_j,
        s_xy_j=s_xy_j,
        sigma_yxx_j=sigma_yxx_j,
        sigma_rxx_j=sigma_rxx_j,
        margin=margin,
    )
    s_inv_j[lm.degenerate] = np.nan
    sigma_rxx_j[lm.degenerate] = np.nan
    return lm


def require_regular(lm: LooMoments) -> None:
    """Raise DegenerateLeverage for the first row of a block that sits at the
    leverage singularity."""
    degenerate = lm.degenerate
    if degenerate.any():
        i = int(np.argmax(degenerate))
        j = int(lm.j[i])
        raise DegenerateLeverage(
            f"observation {j} sits at the leverage singularity: "
            f"whitened margin ((n-1)^2/n - z'z) / ((n-1)^2/n) = {lm.margin[i]:.3e}",
            index=j,
        )


def mahalanobis(d: Dataset, m: MomentSet) -> np.ndarray:
    """Mahalanobis distance of every observation from the predictor mean:
    sqrt((x_i - xbar)' S^{-1} (x_i - xbar))."""
    xc = d.x - m.xbar
    q = np.einsum("ij,jk,ik->i", xc, m.s_inv, xc)
    return np.sqrt(np.maximum(q, 0.0))
