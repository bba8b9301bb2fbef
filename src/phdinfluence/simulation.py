"""Seeded generators for multi-index regression models.

Predictors are always i.i.d. standard p-variate normal and the noise is
independent N(0, sigma^2); streams come from numpy's PCG64 generator so a
(seed, spec) pair reproduces the dataset bit for bit on any platform.  The
link catalog is closed: simulations stay reproducible artifacts, this is not
a modeling framework.  Every model draws its response through a catalog
link; the cosine link is the population module's, so the simulator, the
Monte Carlo check of the cosine constants and the influence surface share
one statement of the example.  :class:`SimSpec` is the one judge of a
request: it rejects sizes no dataset can have and a parameter its model
would not read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, is_integer
from .moments import Dataset
from .population import _cosine_response

MODELS = ("cosine_index", "quadratic_first", "linear_index", "custom_index")

#: Closed catalog of link functions.  Each maps the n x K index matrix B'X to
#: the noiseless response; custom_index names its link, the other models have
#: theirs in _MODEL_LINKS.
LINK_CATALOG = {
    "cosine": lambda t: _cosine_response(t[:, 0]),
    "linear": lambda t: t.sum(axis=1),
    "quadratic": lambda t: t[:, 0] ** 2,
    "product": lambda t: t[:, 0] * t[:, -1],
    "sum_squares": lambda t: (t**2).sum(axis=1),
}

_MODEL_LINKS = {"cosine_index": "cosine", "linear_index": "linear", "quadratic_first": "quadratic"}


@dataclass(frozen=True)
class SimSpec:
    """One reproducible simulation: model family, sizes, parameters, seed.

    ``beta`` is a length-p vector (or p x 1 matrix) for cosine_index and
    linear_index and a p x K matrix for custom_index; quadratic_first takes
    none, its beta is the first axis.  ``link``, a LINK_CATALOG name, is
    read by custom_index only.
    """

    model: str
    n: int
    p: int
    seed: int
    sigma: float = 1.0
    beta: np.ndarray | None = None
    link: str | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidArgument(f"model must be one of {MODELS}, got {self.model!r}")
        _require_seed(self.seed)
        _require_sizes(n=self.n, p=self.p)
        if self.p < 1 or self.n < self.p + 2:
            raise InvalidArgument(f"need p >= 1 and n >= p + 2, got n={self.n}, p={self.p}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidArgument(f"sigma must be finite and nonnegative, got {self.sigma!r}")
        if self.link is not None and self.model != "custom_index":
            raise InvalidArgument(f"link is read by custom_index only, not {self.model}")
        if self.beta is not None and self.model == "quadratic_first":
            raise InvalidArgument("quadratic_first reads no beta: its index is the first axis")
        beta = self.beta
        if beta is None:
            if self.model == "custom_index":
                raise InvalidArgument("custom_index needs an explicit p x K beta matrix")
            beta = np.zeros(self.p)
            beta[0] = 1.0
        beta = np.asarray(beta, dtype=float)
        if not np.isfinite(beta).all():
            raise InvalidArgument(f"beta must be finite, got {beta.tolist()!r}")
        if self.model == "custom_index":
            if beta.ndim != 2 or beta.shape[0] != self.p or beta.shape[1] < 1:
                raise InvalidArgument(f"beta must be p x K for custom_index, got {beta.shape}")
            if self.link not in LINK_CATALOG:
                raise InvalidArgument(
                    f"link must be one of {sorted(LINK_CATALOG)}, got {self.link!r}"
                )
        else:
            if beta.ndim == 2 and beta.shape[1] == 1:
                beta = beta[:, 0]
            if beta.shape != (self.p,):
                raise InvalidArgument(f"beta must be a length-p vector, got shape {beta.shape}")
            if self.model == "cosine_index" and abs(np.linalg.norm(beta) - 1.0) > 1e-10:
                raise InvalidArgument("the cosine model requires a unit-norm beta")
        beta.setflags(write=False)
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


def _noiseless(spec: SimSpec, x: np.ndarray) -> np.ndarray:
    # a single-index beta is a vector: its index is the n x 1 matrix B'X
    link = LINK_CATALOG[_MODEL_LINKS.get(spec.model, spec.link)]
    return link((x @ spec.beta).reshape(len(x), -1))


def simulate(spec: SimSpec) -> Dataset:
    """Draw a dataset from the spec.  Same (seed, spec) gives identical bytes."""
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.p))
    y = _noiseless(spec, x)
    if spec.sigma > 0:
        y = y + spec.sigma * rng.standard_normal(spec.n)
    return Dataset(y=y, x=x)


@dataclass(frozen=True)
class McConstants:
    """Monte Carlo estimates of the cosine-model constants with plug-in
    standard errors (sd of the per-sample terms over sqrt(n))."""

    n_mc: int
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
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidArgument(f"sigma must be finite and nonnegative, got {sigma!r}")
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
    return McConstants(n_mc, *(v for pair in pairs for v in pair))
