"""Seeded generator of multi-index regression data.

One model: y = LINK_CATALOG[link](x B) + sigma eps.  Predictors are always
i.i.d. standard p-variate normal and the noise is independent N(0, sigma^2);
streams come from numpy's PCG64 generator so a (seed, spec) pair reproduces
the dataset bit for bit on any platform.  The link catalog is closed:
simulations stay reproducible artifacts, this is not a modeling framework.
The cosine link is the population module's, so the simulator, the Monte
Carlo check of the cosine constants and the influence surface share one
statement of the example.  :class:`SimSpec` is the one judge of a request:
it rejects sizes no dataset can have, a link outside the catalog and an
index matrix B of the wrong shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, as_real, as_real_array, is_integer, owned
from .moments import Dataset
from .population import _cosine_response

#: Closed catalog of link functions.  Each maps the n x K index matrix x B to
#: the noiseless response.
LINK_CATALOG = {
    "cosine": lambda t: _cosine_response(t[:, 0]),
    "linear": lambda t: t.sum(axis=1),
    "quadratic": lambda t: t[:, 0] ** 2,
    "product": lambda t: t[:, 0] * t[:, -1],
    "sum_squares": lambda t: (t**2).sum(axis=1),
}


@dataclass(frozen=True, eq=False)
class SimSpec:
    """One reproducible simulation: sizes, seed, noise sd, index matrix, link.

    ``beta`` is the index matrix B, a length-p vector or a p x K matrix; it
    is stored p x K as a read-only copy in the caller's memory order
    (``errors.owned``), and defaults to the first axis e_1 as p x 1.
    ``link`` is a LINK_CATALOG name.  The one rule that ties two fields
    together: the cosine link needs a unit-norm first column of B.
    """

    n: int
    p: int
    seed: int
    sigma: float = 1.0
    beta: np.ndarray | None = None
    link: str = "cosine"

    def __post_init__(self):
        _require_seed(self.seed)
        _require_sizes(n=self.n, p=self.p)
        if self.p < 1 or self.n < self.p + 2:
            raise InvalidArgument(f"need p >= 1 and n >= p + 2, got n={self.n}, p={self.p}")
        sigma = _require_sigma(self.sigma)
        if not (isinstance(self.link, str) and self.link in LINK_CATALOG):
            raise InvalidArgument(f"link must be one of {sorted(LINK_CATALOG)}, got {self.link!r}")
        beta = owned(np.eye(self.p, 1)) if self.beta is None else as_real_array(self.beta, "beta")
        if beta.ndim == 1:
            beta = beta[:, None]
        if beta.ndim != 2 or beta.shape[0] != self.p or beta.shape[1] < 1:
            raise InvalidArgument(f"beta must be a length-p vector or a p x K matrix with "
                                  f"p={self.p}, got shape {beta.shape}")
        if not np.isfinite(beta).all():
            raise InvalidArgument(f"beta must be finite, got {beta.tolist()!r}")
        if self.link == "cosine" and abs(np.linalg.norm(beta[:, 0]) - 1.0) > 1e-10:
            raise InvalidArgument("the cosine link requires a unit-norm first beta column")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "beta", beta)


def _require_seed(seed: int) -> None:
    """Raise InvalidArgument for a seed numpy's generators do not take."""
    if not is_integer(seed) or seed < 0:
        raise InvalidArgument(f"seed must be a nonnegative integer, got {seed!r}")


def _require_sizes(**sizes) -> None:
    """Raise InvalidArgument for a size that is not an integer (``is_integer``,
    the rule of ``_require_seed``): numpy's generators take no other."""
    for name, size in sizes.items():
        if not is_integer(size):
            raise InvalidArgument(f"{name} must be an integer, got {size!r}")


def _require_sigma(sigma: float) -> float:
    """The noise sd as a float; InvalidArgument unless a finite, nonnegative
    real number."""
    sigma = as_real(sigma, "sigma")
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidArgument(f"sigma must be finite and nonnegative, got {sigma!r}")
    return sigma


def simulate(spec: SimSpec) -> Dataset:
    """Draw a dataset from the spec.  Same (seed, spec) gives identical bytes."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.p))
    y = LINK_CATALOG[spec.link](x @ spec.beta)
    if spec.sigma > 0:
        y = y + spec.sigma * rng.standard_normal(spec.n)
    return Dataset(y=y, x=x)


@dataclass(frozen=True)
class McConstants:
    """Monte Carlo estimates of the cosine-model constants with plug-in
    standard errors (sd of the per-sample terms over sqrt(n))."""

    mu_y: float
    se_mu_y: float
    cov_zy: float
    se_cov_zy: float
    lambda1: float
    se_lambda1: float


def mc_constants(n_mc: int, seed: int, sigma: float) -> McConstants:
    """Estimate E(Y), cov(beta'X, Y) and E[(Y - mu_y)(beta'X)^2] for the
    cosine model with noise sd sigma from n_mc seeded draws of the scalar
    index Z = beta'X ~ N(0,1).

    The three targets depend on (Z, Y) only, so sampling Z instead of the
    full predictor vector is exact and keeps 1e7-sample runs cheap.
    """
    _require_sizes(n_mc=n_mc)
    if n_mc < 3:
        raise InvalidArgument(f"n_mc must be at least 3, got {n_mc}: with two draws the covariance "
                              "terms are equal, so their standard error is zero or rounding")
    sigma = _require_sigma(sigma)
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
        z = rng.standard_normal(n_mc)
        y = _cosine_response(z)
        if sigma > 0:
            y = y + sigma * rng.standard_normal(n_mc)

        dy = y - y.mean()
        # (mean, s.e.) of the terms of E(Y), cov(Z, Y) and E[(Y - mu_y) Z^2]
        pairs = [(float(t.mean()), float(t.std(ddof=1) / math.sqrt(n_mc)))
                 for t in (y, (z - z.mean()) * dy, dy * z**2)]
    if any(se == 0.0 for _, se in pairs) or not np.isfinite(pairs).all():
        raise InvalidArgument(
            f"a Monte Carlo standard error is zero, or an estimate or standard error overflows "
            f"float64, at n_mc={n_mc}, sigma={sigma!r}, seed={seed}: the z-scores against the "
            "targets are undefined"
        )
    return McConstants(*(v for pair in pairs for v in pair))
