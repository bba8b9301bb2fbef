"""Sample moments and OLS byproducts.

Conventions (they matter downstream, do not mix):

* S (inverted as ``s_inv``) and ``s_xy`` are unbiased (divide by n - 1);
* ``sigma_yxx_hat`` and ``sigma_rxx_hat`` are maximum-likelihood third
  moments (divide by n);
* OLS residuals are ``r_i = y_i - ybar - (x_i - xbar)' s_inv s_xy``.

The data are centred once, here, and nowhere else: ``xc`` and ``yc``, x - xbar
and y - ybar, are what every moment, ERIS and the ``diagnostics`` walk read.
They are formed by the corrected two-pass rule (Chan, Golub & LeVeque, Amer.
Statist. 37, 1983): subtract the rounded mean, then subtract the mean of what
is left, which is the rounding error of the first mean.  Without the second
pass a constant c added to x or y leaves xbar correct only to the ulp of c,
and that error enters the third moments as delta s_xy and delta_y S (x + 2^30
kept about six correct digits); with it, offsets up to 2^40 leave every report
value unchanged within rounding.

``u`` and ``q``, each row's S^-1 (x_j - xbar) and (x_j - xbar)'u_j, are formed
once for md, ERIS and the walk (no leave-one-out moment).  So is ``g_third``,
the predictor third moment X3 sandwiched by S^-1, the one full-sample term of
the walk that carries the r variant's moved OLS slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidArgument, as_real_array, own_arrays
from .linalg import mirror, spd_inverse


@dataclass(frozen=True, eq=False)
class Dataset:
    """n observations of (scalar response, p-vector predictor).

    Requires n >= p + 2 so that every leave-one-out covariance can still be
    invertible.  ``x`` and ``y`` are taken through the real-number rule
    (``errors.as_real_array``): arrays of anything but real numbers raise
    InvalidArgument, and they are stored as read-only float64 copies.
    ``names`` defaults to x1, ..., xp.  Arguments of the wrong shape (an
    ``x`` that is not n x p, a ``y`` that is not a length-n vector, ``names``
    that are not p long) raise InvalidArgument; data that cannot be fitted
    (no predictor, n < p + 2, a value that is not finite) raise
    InsufficientData.
    """

    y: np.ndarray
    x: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        x, y = as_real_array(self.x, "x"), as_real_array(self.y, "y")
        if x.ndim != 2:
            raise InvalidArgument(f"x must be an n x p matrix, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise InvalidArgument(f"y must be a length-{x.shape[0]} vector, got shape {y.shape}")
        n, p = x.shape
        if p < 1:
            raise InsufficientData("need at least one predictor column")
        if n < p + 2:
            raise InsufficientData(f"need n >= p + 2 observations, got n={n}, p={p}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise InsufficientData("dataset has non-finite entries")
        names = tuple(f"x{i + 1}" for i in range(p)) if self.names is None else self.names
        if len(names) != p:
            raise InvalidArgument(f"got {len(names)} column names for p={p} predictors")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Every moment a PHD fit or leave-one-out Hessian needs, computed in one
    pass and stored as read-only copies (``errors.own_arrays``).

    ``xc`` (n x p) and ``yc`` (n) are the centred data, x - xbar and
    y - ybar each centred a second time (the module's two-pass rule), so
    their columns sum to zero within rounding even where the means are
    rounded to a large offset's ulp; every centred quantity downstream reads
    them, and the means themselves are not stored.

    ``beta`` is the OLS slope S^-1 s_xy behind ``residuals``.  ``g_third``
    is the p x p x p stack S^-1 X3[a] S^-1 = sum_j (x_ja - xbar_a) u_j u_j' / n,
    X3 the maximum-likelihood third central moment tensor of the predictors;
    the residual-based leave-one-out Hessians read it, because deleting a row
    moves the OLS slope.
    """

    xc: np.ndarray
    yc: np.ndarray
    s_inv: np.ndarray
    s_xy: np.ndarray
    beta: np.ndarray
    sigma_yxx_hat: np.ndarray
    sigma_rxx_hat: np.ndarray
    residuals: np.ndarray
    g_third: np.ndarray
    u: np.ndarray
    q: np.ndarray

    __post_init__ = own_arrays

    @property
    def n(self) -> int:
        return self.residuals.shape[0]

    @property
    def p(self) -> int:
        return self.xc.shape[1]


def compute_moments(d: Dataset) -> MomentSet:
    """All first/second/third-order sample moments of a dataset.

    Raises NotPositiveDefinite when the sample covariance is singular.
    """
    y, x = d.y, d.x
    n, p = x.shape
    xbar = x.mean(axis=0)
    ybar = float(y.mean())
    # corrected two-pass: the mean of x - xbar is the rounding error of xbar
    xc = x - xbar
    xc -= xc.mean(axis=0)
    yc = y - ybar
    yc -= yc.mean()

    s_inv = spd_inverse(xc.T @ xc / (n - 1))
    u = xc @ s_inv
    s_xy = xc.T @ yc / (n - 1)

    sigma_yxx = mirror((xc.T * yc) @ xc / n)
    beta = s_inv @ s_xy
    residuals = yc - xc @ beta
    sigma_rxx = mirror((xc.T * residuals) @ xc / n)

    return MomentSet(
        xc=xc,
        yc=yc,
        s_inv=s_inv,
        s_xy=s_xy,
        beta=beta,
        sigma_yxx_hat=sigma_yxx,
        sigma_rxx_hat=sigma_rxx,
        residuals=residuals,
        g_third=mirror(np.stack([(u.T * xc[:, a]) @ u for a in range(p)]) / n),
        u=u,
        q=np.einsum("ij,ij->i", xc, u),
    )


def mahalanobis(m: MomentSet) -> np.ndarray:
    """Mahalanobis distance sqrt((x_i - xbar)' S^-1 (x_i - xbar)) of every row: sqrt(m.q)."""
    return np.sqrt(np.maximum(m.q, 0.0))
