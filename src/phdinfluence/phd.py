"""Principal Hessian direction fits.

Both variants estimate the same average Hessian matrix by sandwiching a
third-moment matrix between inverse covariances:

    H = S^{-1} M S^{-1},   M = Sigma_yxx_hat (y-based)  or
                           M = Sigma_rxx_hat (r-based, OLS-residual weighted)

The estimated reduction basis is the first K eigenvectors of H ranked by
absolute eigenvalue.  All p eigenvalues are retained on the fit so users can
judge K from the spectrum gap; no automatic rank selection is attempted.

A fit whose K leading eigenvalues include a numerically zero one estimates
no direction: its basis is an arbitrary one of a null space.  Nor does one
whose cut falls in a tie, |lambda_K| and |lambda_{K+1}| within SPECTRUM_RTOL
|lambda_1|: which tied eigenvector enters the span is then arbitrary.  The
zero rule, :func:`require_nonzero`, and the cut rule, :func:`require_gap`,
are stated here once, beside the tie rule on a set of eigenvalues,
:func:`require_untied`: a tie among the K fitted eigenvalues leaves each of
their eigenvectors arbitrary.  :func:`require_determined` applies all three
to a fit; the ``fit`` command and every influence measure call it, while
:func:`fit_from_moments` and :func:`fit_phd` return such a fit unchecked.
The fit keeps all p eigenvalues but only the K leading eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateEigenvalue, DegenerateSpectrum, InvalidArgument, InvalidRank,
                     is_integer, own_arrays)
from .linalg import Basis, mirror, sym_eigen
from .moments import Dataset, MomentSet, compute_moments

VARIANTS = ("y", "r")

#: a fitted eigenvalue at or below this share of sd(y) ||S^-1||_F is
#: numerically zero (see require_nonzero).
ZERO_EIGENVALUE_RTOL = 1e-12

#: two eigenvalues closer than this share of |lambda_1| are tied (see
#: require_untied and require_gap); relative, so rescaling y or x does not
#: change the decision.
SPECTRUM_RTOL = 1e-9


def check_variant(variant: str) -> None:
    """Raise InvalidArgument unless ``variant`` is one of VARIANTS."""
    if variant not in VARIANTS:
        raise InvalidArgument(f"variant must be one of {VARIANTS}, got {variant!r}")


@dataclass(frozen=True)
class PhdFit:
    """One estimated average Hessian with its ordered spectrum.

    ``eigenvalues`` holds all p eigenvalues and ``gamma_hat`` the first ``k``
    eigenvectors.  ``lambda_hat``, the matching eigenvalues, is read from
    ``eigenvalues`` rather than stored, so a fit built with
    ``dataclasses.replace`` reads one spectrum.  Every array is a read-only
    copy made at construction (``errors.own_arrays``).  The parts must agree,
    else InvalidArgument: ``gamma_hat`` a Basis of p rows and ``k`` columns,
    p ``eigenvalues`` and a p x p ``h``.
    """

    variant: str
    h: np.ndarray
    eigenvalues: np.ndarray
    k: int
    gamma_hat: Basis

    def __post_init__(self):
        own_arrays(self)
        if not isinstance(self.gamma_hat, Basis):
            raise InvalidArgument(
                f"gamma_hat must be a linalg.Basis, got {type(self.gamma_hat).__name__}")
        p, rank = self.gamma_hat.dim, self.gamma_hat.rank
        if not (is_integer(self.k) and self.k == rank and self.eigenvalues.shape == (p,)
                and self.h.shape == (p, p)):
            raise InvalidArgument(
                f"a fit with a {p} x {rank} gamma_hat needs k = {rank}, {p} eigenvalues and "
                f"a {p} x {p} h; got k = {self.k!r}, eigenvalues of shape "
                f"{self.eigenvalues.shape} and h of shape {self.h.shape}"
            )

    @property
    def lambda_hat(self) -> np.ndarray:
        """The K leading eigenvalues, a read-only view of ``eigenvalues``."""
        return self.eigenvalues[: self.k]


def fit_from_moments(m: MomentSet, variant: str, k: int) -> PhdFit:
    """Fit a PHD variant directly from a MomentSet."""
    check_variant(variant)
    p = m.p
    if not (is_integer(k) and 1 <= k <= p):
        raise InvalidRank(f"rank k must be an integer with 1 <= k <= p={p}, got {k!r}")
    mat = m.sigma_yxx_hat if variant == "y" else m.sigma_rxx_hat
    h = mirror(m.s_inv @ mat @ m.s_inv)
    values, vectors = sym_eigen(h)
    return PhdFit(variant=variant, h=h, eigenvalues=values, k=int(k),
                  gamma_hat=Basis(vectors[:, :k]))


def fit_phd(d: Dataset, variant: str, k: int) -> PhdFit:
    """Fit the y-based or r-based PHD estimator at rank k.  To fit both
    variants on the same data, compute the moments once and call
    :func:`fit_from_moments`."""
    return fit_from_moments(compute_moments(d), variant, k)


def require_nonzero(fit: PhdFit, m: MomentSet) -> None:
    """Raise DegenerateEigenvalue when one of the fit's K eigenvalues
    ``lambda_hat`` is numerically zero: at or below ZERO_EIGENVALUE_RTOL
    sd(y) ||S^-1||_F.

    The Hessian carries the units of y over those of x squared, so the test
    is made against sd(y) ||S^-1||_F, with var(y) = s_xy' beta + r'r/(n-1)
    read from the moments ``m`` of the fit (beta = S^-1 s_xy, the OLS slope):
    rescaling y or x leaves the decision unchanged.  It does not use the
    fit's own |lambda_1|, which is zero when the whole Hessian is.
    """
    var_y = float(m.s_xy @ m.beta) + float(m.residuals @ m.residuals) / (m.n - 1)
    scale = float(np.sqrt(var_y) * np.linalg.norm(m.s_inv))
    for lam in fit.lambda_hat.tolist():
        if abs(lam) <= ZERO_EIGENVALUE_RTOL * scale:
            raise DegenerateEigenvalue(f"fitted eigenvalue {lam!r} is numerically zero "
                                       f"against sd(y) ||S^-1||_F = {scale:.6e}")


def require_untied(lam: np.ndarray) -> None:
    """Raise DegenerateSpectrum when two of the eigenvalues ``lam``, ordered by
    descending magnitude, are tied: closer than SPECTRUM_RTOL |lam[0]|."""
    lam = lam.tolist()
    for i in range(len(lam)):
        for j in range(i + 1, len(lam)):
            if abs(lam[i] - lam[j]) < SPECTRUM_RTOL * abs(lam[0]):
                raise DegenerateSpectrum(
                    f"eigenvalues {i + 1} and {j + 1} coincide ({lam[i]!r} vs "
                    f"{lam[j]!r}); each eigenvector of a tied pair, and its influence, is "
                    "arbitrary"
                )


def require_gap(fit: PhdFit) -> None:
    """Raise DegenerateSpectrum when the cut after the fit's K eigenvalues
    falls in a tie: K < p and |lambda_K| - |lambda_{K+1}| < SPECTRUM_RTOL
    |lambda_1|.  The span is ranked by |lambda|, so which of the tied
    eigenvectors enters it is then arbitrary."""
    vals = fit.eigenvalues.tolist()
    k = fit.k
    if k < len(vals) and abs(vals[k - 1]) - abs(vals[k]) < SPECTRUM_RTOL * abs(vals[0]):
        raise DegenerateSpectrum(
            f"eigenvalues {k} and {k + 1} tie in magnitude ({vals[k - 1]!r} vs "
            f"{vals[k]!r}); the rank-{k} span is undefined at a tied cut"
        )


def require_determined(fit: PhdFit, m: MomentSet) -> None:
    """The gate on a fit whose K eigenvectors are each determined: no fitted
    eigenvalue numerically zero (:func:`require_nonzero`), no two of them
    tied (:func:`require_untied`) and no tie at the cut (:func:`require_gap`)."""
    require_nonzero(fit, m)
    require_untied(fit.lambda_hat)
    require_gap(fit)


def population_h(model) -> np.ndarray:
    """Exact average Hessian of a population model: Gamma diag(lambda) Gamma'."""
    g = model.gamma.columns
    return mirror((g * model.lam) @ g.T)
