"""Sample moments, OLS byproducts and closed-form leave-one-out downdates.

Conventions (they matter downstream, do not mix):

* ``s`` and ``s_xy`` are the unbiased estimators (divide by n - 1);
* ``sigma_yxx_hat`` and ``sigma_rxx_hat`` are maximum-likelihood third
  moments (divide by n);
* OLS residuals are ``r_i = y_i - ybar - (x_i - xbar)' s_inv s_xy``.

The leave-one-out quantities are computed by exact rank-one downdates of the
full-sample moments, never by re-scanning the data.  With
``d = x_j - xbar``, ``dy = y_j - ybar`` and ``z = s^{-1/2} d``:

    S_(j)^{-1} = (n-2)/(n-1) * S^{-1/2} [I + z z' / ((n-1)^2/n - z'z)] S^{-1/2}

    Sigma_yxx,(j) = [ n Sigma_yxx + s_xy d' + d s_xy'
                      + dy (S - n(n+1)/(n-1)^2 * d d') ] / (n-1)

and the residual-weighted analogue subtracts the same-shaped downdate of the
predictor third moment contracted with the leave-one-out OLS slope.  The
formulas are validated against brute-force refits in the test suite.

Leverage criterion: the scalar (n-1)^2/n - z'z is zero exactly when deleting
row j leaves a singular covariance (the leverage singularity).  Its whitened
margin, (n-1)^2/n - z'z divided by (n-1)^2/n, is the smallest eigenvalue of
the whitened leave-one-out covariance relative to the others and lies in
[0, 1].  A margin at or below LEVERAGE_RTOL raises DegenerateLeverage; this
is the only place the leverage singularity is decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeverage, InsufficientData
from .linalg import inv_sqrt, mirror, sym_inverse

#: smallest whitened leverage margin a downdate accepts.  The z z' / denom
#: term amplifies the rounding error in denom by 1/margin, so below sqrt(eps)
#: the leave-one-out inverse keeps fewer than half of its significant digits.
LEVERAGE_RTOL = float(np.sqrt(np.finfo(float).eps))


@dataclass(frozen=True)
class Dataset:
    """n observations of (scalar response, p-vector predictor).

    Requires n >= p + 2 so that every leave-one-out covariance can still be
    invertible.  Arrays are stored read-only.
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
        if self.names is not None and len(self.names) != p:
            raise InsufficientData(
                f"got {len(self.names)} column names for p={p} predictors"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

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
    s_inv_sqrt: np.ndarray
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
    """Moments of the sample with row j removed, from closed-form downdates."""

    j: int
    xbar_j: np.ndarray
    ybar_j: float
    s_inv_j: np.ndarray
    s_xy_j: np.ndarray
    sigma_yxx_j: np.ndarray
    sigma_rxx_j: np.ndarray


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
    s_inv = sym_inverse(s)  # raises NotPositiveDefinite on singular designs
    s_inv_sqrt = inv_sqrt(s)
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
        s_inv_sqrt=s_inv_sqrt,
        s_xy=s_xy,
        sigma_yxx_hat=sigma_yxx,
        sigma_rxx_hat=sigma_rxx,
        residuals=residuals,
        x_third=x_third,
    )


def loo_downdate(d: Dataset, m: MomentSet, j: int) -> LooMoments:
    """Closed-form moments of the sample with observation j deleted."""
    n = d.n
    if not 0 <= j < n:
        raise IndexError(f"observation index {j} out of range for n={n}")

    dj = d.x[j] - m.xbar
    dyj = float(d.y[j] - m.ybar)

    xbar_j = (n * m.xbar - d.x[j]) / (n - 1)
    ybar_j = float((n * m.ybar - d.y[j]) / (n - 1))

    z = m.s_inv_sqrt @ dj
    denom = (n - 1) ** 2 / n - float(z @ z)
    margin = denom / ((n - 1) ** 2 / n)
    if margin <= LEVERAGE_RTOL:
        raise DegenerateLeverage(
            f"observation {j} sits at the leverage singularity: "
            f"whitened margin ((n-1)^2/n - z'z) / ((n-1)^2/n) = {margin:.3e}",
            index=j,
        )
    core = np.eye(d.p) + np.outer(z, z) / denom
    s_inv_j = mirror((n - 2) / (n - 1) * m.s_inv_sqrt @ core @ m.s_inv_sqrt)

    s_xy_j = ((n - 1) * m.s_xy - (n / (n - 1)) * dyj * dj) / (n - 2)

    lever = n * (n + 1) / (n - 1) ** 2
    ddt = np.outer(dj, dj)
    sigma_yxx_j = mirror(
        (
            n * m.sigma_yxx_hat
            + np.outer(m.s_xy, dj)
            + np.outer(dj, m.s_xy)
            + dyj * (m.s - lever * ddt)
        )
        / (n - 1)
    )

    # Residual-weighted analogue: subtract the downdated predictor third
    # moment contracted with the leave-one-out OLS slope.
    beta_j = s_inv_j @ s_xy_j
    t_beta = np.tensordot(m.x_third, beta_j, axes=([0], [0]))
    s_beta = m.s @ beta_j
    d_beta = float(dj @ beta_j)
    sigma_rxx_j = mirror(
        sigma_yxx_j
        - (
            n * t_beta
            + np.outer(s_beta, dj)
            + np.outer(dj, s_beta)
            + d_beta * (m.s - lever * ddt)
        )
        / (n - 1)
    )

    return LooMoments(
        j=j,
        xbar_j=xbar_j,
        ybar_j=ybar_j,
        s_inv_j=s_inv_j,
        s_xy_j=s_xy_j,
        sigma_yxx_j=sigma_yxx_j,
        sigma_rxx_j=sigma_rxx_j,
    )


def mahalanobis(d: Dataset, m: MomentSet) -> np.ndarray:
    """Mahalanobis distance of every observation from the predictor mean:
    sqrt((x_i - xbar)' S^{-1} (x_i - xbar))."""
    xc = d.x - m.xbar
    q = np.einsum("ij,jk,ik->i", xc, m.s_inv, xc)
    return np.sqrt(np.maximum(q, 0.0))
