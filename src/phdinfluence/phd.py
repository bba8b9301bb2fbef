"""Principal Hessian direction fits.

Both variants estimate the same average Hessian matrix by sandwiching a
third-moment matrix between inverse covariances:

    H = S^{-1} M S^{-1},   M = Sigma_yxx_hat (y-based)  or
                           M = Sigma_rxx_hat (r-based, OLS-residual weighted)

The estimated reduction basis is the first K eigenvectors of H ranked by
absolute eigenvalue.  All p eigenvalues are retained on the fit so users can
judge K from the spectrum gap; no automatic rank selection is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRank, is_integer
from .linalg import Basis, EigenSystem, mirror, sym_eigen
from .moments import Dataset, MomentSet, compute_moments

VARIANTS = ("y", "r")


def check_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return variant


@dataclass(frozen=True)
class PhdFit:
    """One estimated average Hessian with its ordered eigensystem.

    ``eig`` holds all p eigenpairs; ``gamma_hat`` the first ``k`` eigenvectors
    and ``lambda_hat`` the matching eigenvalues.
    """

    variant: str
    h: np.ndarray
    eig: EigenSystem
    k: int
    gamma_hat: Basis
    lambda_hat: np.ndarray


def fit_from_moments(m: MomentSet, variant: str, k: int) -> PhdFit:
    """Fit a PHD variant directly from a MomentSet."""
    check_variant(variant)
    p = m.p
    if not (is_integer(k) and 1 <= k <= p):
        raise InvalidRank(f"rank k must be an integer with 1 <= k <= p={p}, got {k!r}")
    mat = m.sigma_yxx_hat if variant == "y" else m.sigma_rxx_hat
    h = mirror(m.s_inv @ mat @ m.s_inv)
    eig = sym_eigen(h)
    return PhdFit(
        variant=variant,
        h=h,
        eig=eig,
        k=int(k),
        gamma_hat=Basis(eig.vectors[:, :k]),
        lambda_hat=eig.values[:k].copy(),
    )


def fit_phd(d: Dataset, variant: str, k: int) -> PhdFit:
    """Fit the y-based or r-based PHD estimator at rank k.  To fit both
    variants on the same data, compute the moments once and call
    :func:`fit_from_moments`."""
    return fit_from_moments(compute_moments(d), variant, k)


def population_h(model) -> np.ndarray:
    """Exact average Hessian of a population model: Gamma diag(lambda) Gamma'."""
    g = model.gamma.columns
    return mirror((g * model.lam) @ g.T)
