"""Sample moments, OLS byproducts and the leave-one-out leverage.

Conventions (they matter downstream, do not mix):

* ``s`` and ``s_xy`` are the unbiased estimators (divide by n - 1);
* ``sigma_yxx_hat`` and ``sigma_rxx_hat`` are maximum-likelihood third
  moments (divide by n);
* OLS residuals are ``r_i = y_i - ybar - (x_i - xbar)' s_inv s_xy``.

No leave-one-out moment is formed: ``diagnostics`` builds each leave-one-out
Hessian from the full-sample fit and the leverage of the row.  With
``d = x_j - xbar`` and ``u = S^{-1} d``, deleting row j gives

    S_(j)^{-1} = (n-2)/(n-1) * [S^{-1} + u u' / D],   D = (n-1)^2/n - d'u.

:func:`loo_leverage` computes u, D and the margin below for a block of rows
at once.  Callers walk the sample in blocks of :func:`loo_block_rows` rows,
sized so that one (rows, p, p) float64 stack fits in LOO_BLOCK_BYTES; the
byte budget, not the sample size, bounds the memory of a leave-one-out pass.

Leverage criterion: D is zero exactly when deleting row j leaves a singular
covariance (the leverage singularity).  Its whitened margin, D divided by
(n-1)^2/n, is the smallest eigenvalue of the whitened leave-one-out
covariance relative to the others and lies in [0, 1].  A margin at or below
LEVERAGE_RTOL puts the row in :attr:`LooLeverage.degenerate`, which
:func:`require_regular` turns into DegenerateLeverage; that property is the
only place the leverage singularity is decided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLeverage, InsufficientData
from .linalg import mirror, spd_inverse

#: smallest whitened leverage margin the leave-one-out walk accepts.  The
#: u u' / D term amplifies the rounding error in D by 1/margin, so below
#: sqrt(eps) a leave-one-out Hessian keeps fewer than half of its digits.
LEVERAGE_RTOL = float(np.sqrt(np.finfo(float).eps))

#: byte budget of one (rows, p, p) float64 stack in a leave-one-out block:
#: 64 rows at p = 16, 16 at p = 32.  Raised from 64 KiB as the walk's
#: blocks shrank to about 3.3 Hessian stacks, it took about 6% off the
#: 2000 x 16 influence op and 18% off the 10000 x 32 report, for 0.1% more
#: peak RSS; the outputs are bit-identical at 64, 128 and 256 KiB on the
#: inputs tried.
LOO_BLOCK_BYTES = 128 * 1024


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
    """Every moment a PHD fit or leave-one-out Hessian needs, computed in one
    pass.

    ``x_third`` is the p x p x p maximum-likelihood third central moment
    tensor of the predictors; the residual-based leave-one-out Hessians
    read it, because deleting a row moves the OLS slope.
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
class LooLeverage:
    """Leverage of each row of a block (:func:`loo_leverage`): observation
    indices ``j``, d_j = x_j - xbar, u_j = S^-1 d_j, ``denom``
    D_j = (n-1)^2/n - d_j'u_j and ``margin`` D_j / ((n-1)^2/n)."""

    j: np.ndarray
    d: np.ndarray
    u: np.ndarray
    denom: np.ndarray
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
    """Rows per leave-one-out block at p predictors: as many as fit one
    (rows, p, p) float64 stack into LOO_BLOCK_BYTES."""
    return max(1, LOO_BLOCK_BYTES // (8 * p * p))


def loo_leverage(d: Dataset, m: MomentSet, rows) -> LooLeverage:
    """Leave-one-out leverage of each observation in ``rows``, with a
    leading axis over ``rows``."""
    n = d.n
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or np.any((rows < 0) | (rows >= n)):
        raise IndexError(f"observation indices {rows.tolist()} out of range for n={n}")
    dj = d.x[rows] - m.xbar
    u = dj @ m.s_inv
    full = (n - 1) ** 2 / n
    denom = full - np.einsum("ij,ij->i", dj, u)
    return LooLeverage(j=rows, d=dj, u=u, denom=denom, margin=denom / full)


def require_regular(lev: LooLeverage) -> None:
    """Raise DegenerateLeverage for the first row of a block that sits at the
    leverage singularity."""
    degenerate = lev.degenerate
    if degenerate.any():
        i = int(np.argmax(degenerate))
        j = int(lev.j[i])
        raise DegenerateLeverage(
            f"observation {j} sits at the leverage singularity: "
            f"whitened margin ((n-1)^2/n - z'z) / ((n-1)^2/n) = {lev.margin[i]:.3e}",
            index=j,
        )


def mahalanobis(d: Dataset, m: MomentSet) -> np.ndarray:
    """Mahalanobis distance of every observation from the predictor mean:
    sqrt((x_i - xbar)' S^{-1} (x_i - xbar))."""
    xc = d.x - m.xbar
    q = np.einsum("ij,jk,ik->i", xc, m.s_inv, xc)
    return np.sqrt(np.maximum(q, 0.0))
