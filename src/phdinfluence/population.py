"""Closed-form population influence of contamination on PHD directions.

The central quantity is the rate at which the sine of the angle between a
perturbed direction estimate and the true reduction subspace grows when the
sampling distribution is mixed with a point mass eps at (y0, x0).  For the
k-th direction of either PHD variant it has the closed form

    RIS_k = || (I - P) Sigma^{-1/2} alpha_k || / |lambda_k|,    P = Gamma Gamma'

with, writing z0 = Sigma^{-1/2}(x0 - mu) and r0 = y0 - mu_y - (x0 - mu)'beta
for the population OLS residual of (y0, x0), beta = Sigma^{-1} sigma_xy,

    alpha_{y,k} = { (y0 - mu_y) g_k' Sigma^{-1/2} z0 - lambda_k g_k' Sigma^{1/2} z0
                    - g_k' Sigma^{-1} sigma_xy } z0  -  (y0 - mu_y) Sigma^{-1/2} g_k
    alpha_{r,k} = { r0 g_k' Sigma^{-1/2} z0 - lambda_k g_k' Sigma^{1/2} z0 } z0
                  -  r0 Sigma^{-1/2} g_k .

The code evaluates Sigma^{-1/2} alpha_k through Sigma^{-1} only: with
d = x0 - mu, Sigma^{-1/2} z0 = Sigma^{-1} d, g_k' Sigma^{-1/2} z0 =
g_k' Sigma^{-1} d and g_k' Sigma^{1/2} z0 = g_k' d.

The alpha displays are evaluated in one place, the kernel behind
:func:`ris_rows`, for a whole array of contamination points at once.  Both
variants take the same points (y0, x0), and ``ris_rows`` forms r0 itself:
:func:`ris` is its one-row view, the influence surface calls it once per
variant for all grid cells, and the sample plug-in ERIS calls the kernel
itself on the fit, once for all n observations, with the sample OLS
residuals of the moments.  Like every sample measure, each call returns the
rates of all K directions at once, RIS_k at index k - 1.

The cosine single-index example Y = cos(2 beta_1'X - pi/4) + sigma eps is
stated once, at the end of this module: its link ``_cosine_response`` (which
the simulation module imports), its constants and :func:`cosine_model`.  The
influence surface is that model's surface, both variants in one (N, C, 2)
array so they are compared at the same points.  It places x0 in the e_1-e_2
plane of a model with Sigma = I and Gamma = e_1, so every term of the closed
form lies in that plane and the surface is the same at every p >= 2: it is
evaluated at p = 2 and takes no p.  The tie rule a model's eigenvalues must
pass is ``phd.require_untied``, the one the fitted eigenvalues pass.

A second route to the same number, through the influence matrix of the
Hessian estimator, is kept outside the package as a test oracle (the test
suite's ``oracles`` module); the two agree to rounding.

Everything is additionally validated against a numeric oracle that builds the
EXACT moments of the contaminated mixture at a small finite eps, recomputes
the Hessian eigensystem once, and measures each direction's sine directly.
The mixture moments (no first-order truncation anywhere) are, with
dy = y0 - mu_y and t = eps (1 - eps):

    mu_eps        = (1 - eps) mu + eps x0
    mu_y,eps      = (1 - eps) mu_y + eps y0
    Sigma_eps     = (1 - eps) Sigma + t d d'
    sigma_xy,eps  = (1 - eps) sigma_xy + t dy d
    Sigma_yxx,eps = (1 - eps) Sigma_yxx
                    + t [ dy (1 - 2 eps) d d' - dy Sigma - sigma_xy d' - d sigma_xy' ]

and the residual-weighted matrix re-centers the residual at the contaminated
OLS solution b_eps = Sigma_eps^{-1} sigma_xy,eps:

    Sigma_rxx,eps = Sigma_yxx,eps
                    + t [ (d'b_eps) Sigma + (Sigma b_eps) d' + d (Sigma b_eps)'
                          - (1 - 2 eps) (d'b_eps) d d' ]

where the Gaussian predictor makes all centered third moments of X vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AmbiguousMatch, InvalidArgument, InvalidMatrix, as_real, as_real_array,
                     is_integer, own_arrays, owned)
from .linalg import Basis, mirror, project_out, spd_inverse, sym_eigen
from .phd import VARIANTS, check_variant, require_untied

MATCH_TOL = 1e-8
DEFAULT_ORACLE_EPS = 1e-6


@dataclass(frozen=True, eq=False)
class PopulationModel:
    """Exact model parameters at which the closed forms are evaluated.

    ``gamma`` spans the reduction subspace, ``lam`` holds the K nonzero
    Hessian eigenvalues ordered by descending magnitude.  The OLS direction
    Sigma^{-1} sigma_xy must lie inside span(gamma): that membership is what
    makes the r-based residual blind to contamination orthogonal to the
    subspace.

    ``sigma`` is the one symmetric matrix the package takes from outside, and
    the only one whose symmetry it tests: each skew |sigma_ij - sigma_ji| must
    be within 1e-12 sqrt(sigma_ii sigma_jj), the diagonal scaling of
    ``spd_inverse``, so the decision does not depend on units.  It is stored
    exactly symmetric.  Every array is stored as a read-only copy
    (``errors.owned``), so no later write to the caller's arrays can undo
    these checks; so are ``sigma_inv``, ``beta`` and the exact average Hessian
    ``h``, built once here.

    A ``gamma`` that is not a Basis, a field that is not real numbers
    (``errors.as_real`` and ``as_real_array``), a field of the wrong shape, a
    value that is not finite, a zero or misordered eigenvalue and an OLS
    direction outside span(gamma) raise InvalidArgument; a skewed sigma
    raises InvalidMatrix.
    """

    mu: np.ndarray
    sigma: np.ndarray
    gamma: Basis
    lam: np.ndarray
    mu_y: float
    sigma_xy: np.ndarray
    sigma_inv: np.ndarray = field(init=False)
    #: population OLS slope Sigma^{-1} sigma_xy
    beta: np.ndarray = field(init=False)
    #: exact average Hessian Gamma diag(lam) Gamma'
    h: np.ndarray = field(init=False)

    def __post_init__(self):
        if not isinstance(self.gamma, Basis):
            raise InvalidArgument(f"gamma must be a linalg.Basis, got {type(self.gamma).__name__}")
        mu, lam, sigma_xy, given = (as_real_array(getattr(self, name), name)
                                    for name in ("mu", "lam", "sigma_xy", "sigma"))
        mu_y = as_real(self.mu_y, "mu_y")
        p, k = self.gamma.dim, self.gamma.rank
        if mu.shape != (p,) or sigma_xy.shape != (p,):
            raise InvalidArgument("mu and sigma_xy must be length-p vectors")
        if given.shape != (p, p):
            raise InvalidArgument("sigma must be p x p")
        if lam.shape != (k,):
            raise InvalidArgument("lam must have one eigenvalue per basis column")
        if not all(np.isfinite(a).all() for a in (mu, given, lam, sigma_xy, mu_y)):
            raise InvalidArgument("mu, sigma, lam, mu_y and sigma_xy must be finite")
        sigma = mirror(given)
        # abs: a non-positive diagonal entry is spd_inverse's to reject, not a NaN here
        root = np.sqrt(np.abs(np.diag(sigma)))
        skewed = np.argwhere(np.abs(given - given.T) > 1e-12 * np.outer(root, root))
        if skewed.size:
            i, j = skewed[0]
            raise InvalidMatrix(
                f"sigma is not symmetric: sigma[{i}, {j}] = {given[i, j]:.17g} and "
                f"sigma[{j}, {i}] = {given[j, i]:.17g} differ by more than "
                f"1e-12 sqrt(sigma[{i}, {i}] sigma[{j}, {j}])"
            )
        if np.any(np.abs(lam) <= 0.0):
            raise InvalidArgument("all reduction eigenvalues must be nonzero")
        if np.any(np.diff(np.abs(lam)) > 0):
            raise InvalidArgument("eigenvalues must be ordered by descending magnitude")
        require_untied(lam)
        sigma_inv = spd_inverse(sigma)
        beta = sigma_inv @ sigma_xy
        leak = float(np.abs(project_out(self.gamma, beta)).max())
        if leak > 1e-10 * (1.0 + float(np.abs(beta).max())):
            raise InvalidArgument(
                "the OLS direction Sigma^{-1} sigma_xy must lie in span(gamma); "
                f"residual component {leak:.3e}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_y", mu_y)
        object.__setattr__(self, "sigma", owned(sigma))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "sigma_xy", sigma_xy)
        object.__setattr__(self, "sigma_inv", owned(sigma_inv))
        object.__setattr__(self, "beta", owned(beta))
        g = self.gamma.columns
        object.__setattr__(self, "h", owned(mirror((g * lam) @ g.T)))

    @property
    def p(self) -> int:
        return self.gamma.dim


@dataclass(frozen=True, eq=False)
class ContaminationPoint:
    """The location (y0, x0) of the contaminating point mass; a y0 that is
    not a real number, an x0 that is not a vector of them, or a point that is
    not finite, raises InvalidArgument."""

    y0: float
    x0: np.ndarray

    def __post_init__(self):
        y0, x0 = as_real(self.y0, "y0"), as_real_array(self.x0, "x0")
        if x0.ndim != 1:
            raise InvalidArgument(f"x0 must be a vector, got shape {x0.shape}")
        if not (math.isfinite(y0) and np.all(np.isfinite(x0))):
            raise InvalidArgument("contamination point must be finite")
        object.__setattr__(self, "y0", y0)
        object.__setattr__(self, "x0", x0)


def ris_rows(model: PopulationModel, variant: str, x0, y0) -> np.ndarray:
    """Closed-form influence rates of m contamination points, an m x K array.

    Row i is contaminated at (y0[i], x0[i]) for either variant; the r variant
    weights it by its population OLS residual y0 - mu_y - (x0 - mu)'beta,
    formed here.  Column k - 1 holds RIS_k, evaluated through the alpha
    display of the module docstring.  A variant outside VARIANTS or arrays
    of the wrong shape raise InvalidArgument; a point that is not finite, or
    whose residual or rates overflow float64, raises InvalidArgument naming
    the first such row, also as its ``row``.
    """
    check_variant(variant)
    x0, y0 = as_real_array(x0, "x0"), as_real_array(y0, "y0")
    if x0.ndim != 2 or x0.shape[1] != model.p or y0.shape != x0.shape[:1]:
        raise InvalidArgument(
            f"need an m x {model.p} x0 and a length-m y0, got {x0.shape} and {y0.shape}"
        )
    finite = np.isfinite(x0).all(axis=1) & np.isfinite(y0)
    with np.errstate(over="ignore", invalid="ignore"):  # rates that are not finite raise below
        d = x0 - model.mu
        w = y0 - model.mu_y if variant == "y" else y0 - model.mu_y - d @ model.beta
        rates = _ris_kernel(variant, model.gamma, model.lam, model.sigma_inv, model.beta,
                            d, d @ model.sigma_inv, w)
    bad = ~(finite & np.isfinite(rates).all(axis=1))
    if bad.any():
        i = int(np.argmax(bad))
        if not finite[i]:
            raise InvalidArgument(f"the contamination point at row {i} of x0 is not finite", row=i)
        raise InvalidArgument(
            f"the {variant}-based influence rates overflow float64 at row {i} of x0", row=i
        )
    return rates


def _ris_kernel(variant: str, gamma: Basis, lam, sigma_inv, beta, d, u, w) -> np.ndarray:
    """:func:`ris_rows` without input checks, from the OLS slope beta =
    Sigma^{-1} sigma_xy, the offsets d = x0 - mu, their images u = d Sigma^{-1}
    and the weights w (y0 - mu_y or r0).  The y variant's scalar reads the
    slope coordinates Gamma' beta, the r variant's none."""
    g = gamma.columns
    scal = w[:, None] * (u @ g) - lam * (d @ g) - (g.T @ beta if variant == "y" else 0.0)
    # Sigma^{-1/2} alpha_k of every point, an m x p x K stack
    root_alpha = u[:, :, None] * scal[:, None, :] - w[:, None, None] * (sigma_inv @ g)
    resid = project_out(gamma, root_alpha)
    return np.linalg.norm(resid, axis=-2) / np.abs(lam)


def ris(model: PopulationModel, variant: str, pt: ContaminationPoint) -> np.ndarray:
    """Closed-form influence rates of one contamination point on the K
    directions of a variant, RIS_k at index k - 1: the one row of
    :func:`ris_rows` at (pt.y0, pt.x0)."""
    return ris_rows(model, variant, pt.x0[None], [pt.y0])[0]


@dataclass(frozen=True, eq=False)
class ContaminatedMoments:
    """Exact moments of the eps-mixture of the model and a point mass, as
    read-only copies (``errors.own_arrays``)."""

    mu_eps: np.ndarray
    sigma_eps: np.ndarray
    sigma_yxx_eps: np.ndarray
    sigma_rxx_eps: np.ndarray
    mu_y_eps: float
    sigma_xy_eps: np.ndarray

    __post_init__ = own_arrays


def contaminated_moments(
    model: PopulationModel, pt: ContaminationPoint, eps: float
) -> ContaminatedMoments:
    """Exact (not first-order) moments of (1 - eps) G + eps point mass.  An
    eps that is not a real number in (0, 1) or an x0 whose length is not the
    model's p raises InvalidArgument."""
    eps = as_real(eps, "eps")
    if not 0.0 < eps < 1.0:
        raise InvalidArgument(f"eps must lie strictly in (0, 1), got {eps!r}")
    if pt.x0.shape != (model.p,):
        raise InvalidArgument(f"x0 must have length p={model.p}, got {pt.x0.size}")
    d = pt.x0 - model.mu
    dy = pt.y0 - model.mu_y
    t = eps * (1.0 - eps)
    ddt = np.outer(d, d)
    sigma_yxx = mirror(model.sigma @ model.h @ model.sigma)

    mu_eps = (1.0 - eps) * model.mu + eps * pt.x0
    mu_y_eps = (1.0 - eps) * model.mu_y + eps * pt.y0
    sigma_eps = mirror((1.0 - eps) * model.sigma + t * ddt)
    sigma_xy_eps = (1.0 - eps) * model.sigma_xy + t * dy * d
    sigma_yxx_eps = mirror(
        (1.0 - eps) * sigma_yxx
        + t
        * (
            dy * (1.0 - 2.0 * eps) * ddt
            - dy * model.sigma
            - np.outer(model.sigma_xy, d)
            - np.outer(d, model.sigma_xy)
        )
    )
    beta_eps = np.linalg.solve(sigma_eps, sigma_xy_eps)
    sb = model.sigma @ beta_eps
    db = float(d @ beta_eps)
    sigma_rxx_eps = mirror(
        sigma_yxx_eps
        + t
        * (
            db * model.sigma
            + np.outer(sb, d)
            + np.outer(d, sb)
            - (1.0 - 2.0 * eps) * db * ddt
        )
    )
    return ContaminatedMoments(
        mu_eps=mu_eps,
        sigma_eps=sigma_eps,
        sigma_yxx_eps=sigma_yxx_eps,
        sigma_rxx_eps=sigma_rxx_eps,
        mu_y_eps=mu_y_eps,
        sigma_xy_eps=sigma_xy_eps,
    )


def ris_numeric_oracle(
    model: PopulationModel,
    variant: str,
    pt: ContaminationPoint,
    eps: float = DEFAULT_ORACLE_EPS,
) -> np.ndarray:
    """Finite-eps influence rates of the K directions, measured directly on
    the contaminated model, RIS_k at index k - 1.

    Builds the exact mixture moments, recomputes the Hessian eigensystem
    once, matches each direction to the perturbed eigenvector of maximal
    absolute inner product with it (eigenvalue order may swap near ties, the
    eigenvector moves continuously), and returns each sine / eps.  Two
    candidates within MATCH_TOL of each other raise AmbiguousMatch naming
    the first such direction.  Its point and eps are checked as
    :func:`contaminated_moments` checks them.
    """
    check_variant(variant)
    cm = contaminated_moments(model, pt, eps)
    mat = cm.sigma_yxx_eps if variant == "y" else cm.sigma_rxx_eps
    sig_inv_eps = spd_inverse(cm.sigma_eps)
    h_eps = mirror(sig_inv_eps @ mat @ sig_inv_eps)
    vectors = sym_eigen(h_eps)[1]
    # |v' g_k|, a row per candidate eigenvector v and a column per direction
    inner = np.abs(vectors.T @ model.gamma.columns)
    top = np.sort(inner, axis=0)[-2:]  # each direction's two best candidates
    ambiguous = np.flatnonzero(np.diff(top, axis=0) < MATCH_TOL)
    if ambiguous.size:
        i = ambiguous[0]
        raise AmbiguousMatch(
            f"cannot match direction {i + 1} to a perturbed eigenvector: two candidates "
            f"have |inner product| within {MATCH_TOL} of each other "
            f"({top[1, i]:.12f} vs {top[0, i]:.12f})"
        )
    # one matched vector at a time: a sine of order eps is a small difference
    # of unit vectors, whose last digits a batched product would change
    sines = [np.linalg.norm(project_out(model.gamma, vectors[:, i]))
             for i in np.argmax(inner, axis=0)]
    return np.minimum(1.0, sines) / eps


# ----------------------------------------------------------------------
# The cosine single-index example and its influence surface
# ----------------------------------------------------------------------

def _cosine_response(t):
    """The noiseless response cos(2 t - pi/4) of the cosine single-index
    model at the index t = beta_1'X."""
    return np.cos(2.0 * t - math.pi / 4.0)


#: E(Y), the coefficient of beta_1 in cov(X, Y), and the nonzero Hessian
#: eigenvalue of the model Y = cos(2 beta_1'X - pi/4) + sigma eps with
#: standard normal X.  Derived via the moment generating function; the
#: eigenvalue equals E[f''(Z)] = -4 E(Y) = -2 sqrt(2) exp(-2) by Stein's
#: identity.  Dropping a factor of two here yields the tempting near miss
#: -sqrt(2) exp(-2) = -cov(Z, Y), so the Monte Carlo validator checks its
#: estimate against the true value AND against that near miss.
COSINE_MODEL_MU_Y = math.exp(-2.0) / math.sqrt(2.0)
COSINE_MODEL_SIGMA_XY_COEF = math.sqrt(2.0) * math.exp(-2.0)
COSINE_MODEL_LAMBDA1 = -2.0 * math.sqrt(2.0) * math.exp(-2.0)


def cosine_model(p: int = 3) -> PopulationModel:
    """The cosine single-index population model on standard normal
    predictors, with beta_1 the first coordinate axis."""
    if not is_integer(p):
        raise InvalidArgument(f"p must be an integer, got {p!r}")
    if p < 2:
        raise InvalidArgument(f"the cosine example needs p >= 2, got {p}")
    beta1 = np.zeros(p)
    beta1[0] = 1.0
    return PopulationModel(
        mu=np.zeros(p),
        sigma=np.eye(p),
        gamma=Basis(beta1[:, None]),
        lam=np.array([COSINE_MODEL_LAMBDA1]),
        mu_y=COSINE_MODEL_MU_Y,
        sigma_xy=COSINE_MODEL_SIGMA_XY_COEF * beta1,
    )


def influence_surface(norm_grid, costheta_grid) -> np.ndarray:
    """Influence surface over (||x0||, cos theta0) of :func:`cosine_model`,
    an (N, C, 2) array for N norms and C cosines whose last axis is the
    variant, in VARIANTS order.

    x0 = ||x0|| (cos(theta0) e_1 + sin(theta0) e_2) lies in the plane of
    beta_1 = e_1 and the second axis, with y0 on the noiseless curve.  With
    Sigma = I every term of the closed form lies in that plane, so the
    surface is the same at every p >= 2; it is evaluated at p = 2.  All
    cells of a variant go through one :func:`ris_rows` call.  The
    single-index shortcut of this model (the c_y / c_r factorisation) is not
    evaluated here; it is the test suite's oracle for this function.  A norm
    that is negative or not finite, or a cos theta0 outside [-1, 1], raises
    InvalidArgument, as does a cell whose value overflows float64, named by
    its ||x0|| and cos theta0.
    """
    model = cosine_model(2)
    norms = np.asarray(list(norm_grid), dtype=float)
    costhetas = np.asarray(list(costheta_grid), dtype=float)
    if not (np.all(np.isfinite(norms) & (norms >= 0.0)) and np.all(np.abs(costhetas) <= 1.0)):
        raise InvalidArgument("norms must be finite and nonnegative, cos(theta0) in [-1, 1]")
    nrm = norms[:, None]
    ct = costhetas[None, :]
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    x0 = np.stack((nrm * ct, nrm * st), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):  # ris_rows rejects a y0 that overflowed
        y0 = _cosine_response(x0[..., 0])
    surface = np.empty((y0.size, len(VARIANTS)))
    for v, variant in enumerate(VARIANTS):
        try:
            surface[:, v] = ris_rows(model, variant, x0.reshape(-1, 2), y0.ravel())[:, 0]
        except InvalidArgument as exc:  # name the grid cell, not the row of the flattened grid
            i, c = divmod(exc.row, costhetas.size)
            raise InvalidArgument(
                f"the {variant}-based influence surface overflows float64 at "
                f"||x0|| = {norms[i]:g}, cos theta0 = {costhetas[c]:g}"
            ) from exc
    return surface.reshape(*y0.shape, len(VARIANTS))


def write_surface_csv(path, norm_grid, costheta_grid, surface) -> None:
    """Serialize an :func:`influence_surface` to CSV in row-major grid order,
    one line per cell with its y- and r-based rates.  A surface whose shape
    is not (N, C, 2) for the N norms and C cosines raises InvalidArgument."""
    norms = [f"{a:.17g}" for a in np.asarray(list(norm_grid), dtype=float).tolist()]
    costhetas = [f"{b:.17g}" for b in np.asarray(list(costheta_grid), dtype=float).tolist()]
    surface = np.asarray(surface, dtype=float)
    shape = (len(norms), len(costhetas), len(VARIANTS))
    if surface.shape != shape:
        raise InvalidArgument(f"the grids need a surface of shape {shape}, got {surface.shape}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("norm_x0,cos_theta0,ris_y,ris_r\n")
        for norm, row in zip(norms, surface.tolist()):
            fh.writelines(f"{norm},{c},{y:.17g},{r:.17g}\n" for c, (y, r) in zip(costhetas, row))
