import math

import numpy as np
import pytest

from phdinfluence import (
    Basis,
    ContaminationPoint,
    PopulationModel,
    contaminated_moments,
    cosine_model,
    influence_surface,
    ris,
    ris_numeric_oracle,
    write_surface_csv,
)
from phdinfluence.linalg import spd_inverse
from phdinfluence.phd import VARIANTS
from phdinfluence.population import (
    COSINE_MODEL_LAMBDA1,
    COSINE_MODEL_MU_Y,
    COSINE_MODEL_SIGMA_XY_COEF,
    ris_rows,
)
from phdinfluence.errors import (
    AmbiguousMatch,
    DegenerateSpectrum,
    InvalidArgument,
    InvalidMatrix,
    NotPositiveDefinite,
)
from conftest import random_model, random_orthonormal
from oracles import if_h_r, if_h_y, ris_from_if_matrix, surface_shortcut


def identity_cov_model(rng, p=4, k=2):
    """Zero-mean identity-covariance multi-index model with a nonzero
    covariance between response and predictors."""
    return random_model(rng, p, k, identity_sigma=True)


# ----------------------------------------------------------------------
# the population OLS residual that the r variant weights by
# ----------------------------------------------------------------------

def test_residual_zero_at_the_center(rng):
    # at (mu_y, mu) the residual and the offset d are zero, so is every rate
    model = random_model(rng, 4, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    for k in (1, 2):
        assert ris(model, "r", pt)[k - 1] == 0.0
        assert ris_from_if_matrix(model, if_h_r(model, pt, residual=0.0))[k - 1] <= 1e-12


def test_residual_reduces_to_centered_response_when_uncorrelated(rng):
    # with sigma_xy = 0 the residual is y0 - mu_y, and the r rate is the y rate
    model = random_model(rng, 4, 2, zero_sigma_xy=True)
    pt = ContaminationPoint(y0=1.7, x0=rng.standard_normal(4))
    f = if_h_r(model, pt, residual=1.7 - model.mu_y)
    for k in (1, 2):
        want = ris_from_if_matrix(model, f)[k - 1]
        assert ris(model, "r", pt)[k - 1] == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert ris(model, "r", pt)[k - 1] == pytest.approx(ris(model, "y", pt)[k - 1], rel=1e-12)


def test_residual_on_the_cosine_model():
    # y0 on the noiseless curve at index 2, x0 off the subspace so the rate is
    # not zero: the r variant weights by y0 - mu_y - 2 c with the model's constants
    model = cosine_model(p=3)
    x0 = np.array([2.0, 1.0, 0.0])
    y0 = math.cos(4.0 - math.pi / 4.0)
    expected = y0 - COSINE_MODEL_MU_Y - 2.0 * COSINE_MODEL_SIGMA_XY_COEF
    pt = ContaminationPoint(y0=y0, x0=x0)
    want = ris_from_if_matrix(model, if_h_r(model, pt, residual=expected))[0]
    assert want > 0.1
    assert ris(model, "r", pt)[0] == pytest.approx(want, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------
# closed forms: the analytic special cases
# ----------------------------------------------------------------------

def test_orthogonal_contamination_splits_the_variants(rng):
    # x0 orthogonal to the subspace: the r-based direction ignores it, the
    # y-based one moves in proportion to the response covariance
    model = identity_cov_model(rng)
    u = rng.standard_normal(4)
    u -= model.gamma.columns @ (model.gamma.columns.T @ u)
    u /= np.linalg.norm(u)
    for c in (0.5, 2.0, -3.0):
        pt = ContaminationPoint(y0=rng.standard_normal(), x0=c * u)
        for k in (1, 2):
            g = model.gamma.columns[:, k - 1]
            lam = model.lam[k - 1]
            expected = abs(c * float(model.sigma_xy @ g) / lam)
            assert ris(model, "y", pt)[k - 1] == pytest.approx(expected, abs=1e-12)
            assert ris(model, "r", pt)[k - 1] <= 1e-12


def test_orthogonal_contamination_scales_linearly(rng):
    model = identity_cov_model(rng)
    u = rng.standard_normal(4)
    u -= model.gamma.columns @ (model.gamma.columns.T @ u)
    u /= np.linalg.norm(u)
    y0 = 0.3
    base = ris(model, "y", ContaminationPoint(y0=y0, x0=u))[0]
    tripled = ris(model, "y", ContaminationPoint(y0=y0, x0=3.0 * u))[0]
    assert abs(tripled - 3.0 * base) <= 1e-12


def test_contamination_at_the_center_is_harmless(rng):
    model = random_model(rng, 5, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    for k in (1, 2):
        assert ris(model, "y", pt)[k - 1] <= 1e-12
        assert ris(model, "r", pt)[k - 1] <= 1e-12


def test_variants_agree_when_response_is_uncorrelated(rng):
    model = random_model(rng, 4, 2, zero_sigma_xy=True)
    for _ in range(10):
        pt = ContaminationPoint(
            y0=float(rng.standard_normal()), x0=rng.standard_normal(4)
        )
        for k in (1, 2):
            assert abs(
                ris(model, "y", pt)[k - 1] - ris(model, "r", pt)[k - 1]
            ) <= 1e-12


def test_cosine_checkpoint_norm_two_orthogonal():
    model = cosine_model(p=3)
    u = np.array([0.0, 1.0, 0.0])
    y0 = math.cos(-math.pi / 4.0)  # noiseless response at cos(theta0) = 0
    pt = ContaminationPoint(y0=y0, x0=2.0 * u)
    assert ris(model, "y", pt)[0] == pytest.approx(1.0, abs=1e-9)
    assert ris(model, "r", pt)[0] <= 1e-9


def test_rotation_invariance(rng):
    model = random_model(rng, 5, 2)
    q = random_orthonormal(rng, 5, 5)
    rotated = PopulationModel(
        mu=q @ model.mu,
        sigma=q @ model.sigma @ q.T,
        gamma=Basis(q @ model.gamma.columns),
        lam=model.lam,
        mu_y=model.mu_y,
        sigma_xy=q @ model.sigma_xy,
    )
    for _ in range(10):
        x0 = rng.standard_normal(5)
        y0 = float(rng.standard_normal())
        pt, pt_rot = ContaminationPoint(y0, x0), ContaminationPoint(y0, q @ x0)
        for k in (1, 2):
            assert ris(model, "y", pt)[k - 1] == pytest.approx(
                ris(rotated, "y", pt_rot)[k - 1], abs=1e-10
            )
            assert ris(model, "r", pt)[k - 1] == pytest.approx(
                ris(rotated, "r", pt_rot)[k - 1], abs=1e-10
            )


def test_model_decomposes_sigma_once(rng, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    model = random_model(rng, 5, 2)
    assert len(calls) == 1
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert np.array_equal(model.sigma_inv, spd_inverse(model.sigma))


def test_ris_rows_matches_the_influence_matrix_route(rng):
    # both variants take the points (y0, x0); the oracle forms r0 itself
    model = random_model(rng, 5, 2)
    x0 = model.mu + 2.0 * rng.standard_normal((30, 5))
    y0 = model.mu_y + rng.standard_normal(30)
    got = {v: ris_rows(model, v, x0, y0) for v in ("y", "r")}
    assert got["y"].shape == got["r"].shape == (30, 2)
    for i in range(30):
        pt = ContaminationPoint(y0=float(y0[i]), x0=x0[i])
        f = {"y": if_h_y(model, pt), "r": if_h_r(model, pt)}
        for v in ("y", "r"):
            for k in (1, 2):
                want = ris_from_if_matrix(model, f[v])[k - 1]
                assert got[v][i, k - 1] == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert got["y"][i, 1] == pytest.approx(ris(model, "y", pt)[1], rel=1e-12)
        assert got["r"][i, 0] == pytest.approx(ris(model, "r", pt)[0], rel=1e-12)


def test_degenerate_spectrum_is_rejected(rng):
    gamma = random_orthonormal(rng, 4, 2)
    with pytest.raises(DegenerateSpectrum):
        PopulationModel(
            mu=np.zeros(4),
            sigma=np.eye(4),
            gamma=Basis(gamma),
            lam=np.array([1.5, 1.5]),
            mu_y=0.0,
            sigma_xy=np.zeros(4),
        )


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_spectrum_tie_is_decided_relative_to_the_leading_eigenvalue(rng, scale):
    gamma = Basis(random_orthonormal(rng, 4, 2))

    def model(lam):
        return PopulationModel(mu=np.zeros(4), sigma=np.eye(4), gamma=gamma,
                               lam=scale * np.array(lam), mu_y=0.0, sigma_xy=np.zeros(4))

    assert model([-0.45, 0.42]).lam.shape == (2,)
    with pytest.raises(DegenerateSpectrum):
        model([1.5, 1.5 * (1.0 - 1e-10)])


@pytest.mark.parametrize("field", ["mu", "lam", "sigma_xy", "mu_y"])
def test_non_finite_parameters_are_rejected(field):
    # each passed every other check, and the closed form then returned NaN
    params = dict(mu=np.zeros(3), sigma=np.eye(3), gamma=Basis(np.eye(3)[:, :1]),
                  lam=np.array([1.0]), mu_y=0.0, sigma_xy=np.array([0.5, 0.0, 0.0]))
    PopulationModel(**params)
    bad = {"mu": [np.nan, 0.0, 0.0], "lam": [np.nan], "sigma_xy": [np.nan, 0.0, 0.0],
           "mu_y": np.inf}
    params[field] = np.array(bad[field])
    with pytest.raises(ValueError, match="finite"):
        PopulationModel(**params)


def test_membership_violation_is_rejected(rng):
    gamma = np.zeros((4, 1))
    gamma[0, 0] = 1.0
    off_span = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PopulationModel(
            mu=np.zeros(4),
            sigma=np.eye(4),
            gamma=Basis(gamma),
            lam=np.array([1.0]),
            mu_y=0.0,
            sigma_xy=off_span,
        )


#: a covariance whose only skew is one ulp at an entry near 1e6
ONE_ULP_SKEW = np.array([[1.0, 0.0, 0.0],
                         [0.0, 4e6, 1e6],
                         [0.0, np.nextafter(1e6, np.inf), 9e6]])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_sigma_symmetry_is_judged_against_its_diagonal(scale):
    # each skew is compared with sqrt(sigma_ii sigma_jj), so the decision
    # does not depend on units; a non-positive diagonal is still a
    # positive-definiteness fault
    def model(sigma):
        p = sigma.shape[0]
        return PopulationModel(mu=np.zeros(p), sigma=scale * sigma, gamma=Basis(np.eye(p)[:, :1]),
                               lam=np.array([1.0]), mu_y=0.0, sigma_xy=np.zeros(p))

    sigma = model(ONE_ULP_SKEW).sigma
    assert np.array_equal(sigma, sigma.T)
    with pytest.raises(InvalidMatrix):
        model(np.array([[1.0, 2.0], [0.5, 3.0]]))
    for diag in ([1.0, -2.0], [1.0, 0.0]):
        with pytest.raises(NotPositiveDefinite):
            model(np.diag(diag))


# ----------------------------------------------------------------------
# exact contaminated moments
# ----------------------------------------------------------------------

def test_moments_continuous_at_zero(rng):
    model = random_model(rng, 4, 2)
    pt = ContaminationPoint(y0=1.0, x0=model.mu + 1.0)
    cm = contaminated_moments(model, pt, 1e-12)
    sigma_yxx = model.sigma @ model.h @ model.sigma
    for got, ref in (
        (cm.mu_eps, model.mu),
        (cm.sigma_eps, model.sigma),
        (cm.sigma_xy_eps, model.sigma_xy),
        (cm.sigma_yxx_eps, sigma_yxx),
        (cm.sigma_rxx_eps, sigma_yxx),
    ):
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(np.asarray(got) - np.asarray(ref)).max() <= 1e-10 * scale
    assert cm.mu_y_eps == pytest.approx(model.mu_y, abs=1e-10)


def test_covariance_derivative_matches_influence_function(rng):
    model = random_model(rng, 4, 1)
    x0 = model.mu + rng.standard_normal(4)
    pt = ContaminationPoint(y0=0.7, x0=x0)
    eps = 1e-7
    cm = contaminated_moments(model, pt, eps)
    d = x0 - model.mu
    expected = np.outer(d, d) - model.sigma
    got = (cm.sigma_eps - model.sigma) / eps
    rel = np.abs(got - expected).max() / np.abs(expected).max()
    assert rel <= 1e-5


def test_third_moment_derivative_matches_expansion(rng):
    model = random_model(rng, 4, 2)
    x0 = model.mu + rng.standard_normal(4)
    y0 = model.mu_y + 1.3
    pt = ContaminationPoint(y0=y0, x0=x0)
    eps = 1e-7
    cm = contaminated_moments(model, pt, eps)
    sigma_yxx = model.sigma @ model.h @ model.sigma
    d = x0 - model.mu
    dy = y0 - model.mu_y
    coeff = (
        dy * (np.outer(d, d) - model.sigma)
        - np.outer(d, model.sigma_xy)
        - np.outer(model.sigma_xy, d)
    )
    got = (cm.sigma_yxx_eps - (1 - eps) * sigma_yxx) / eps
    rel = np.abs(got - coeff).max() / np.abs(coeff).max()
    assert rel <= 1e-5


def test_residual_moment_derivative_recenters_at_the_ols_solution(rng):
    model = random_model(rng, 4, 2)
    x0 = model.mu + rng.standard_normal(4)
    y0 = model.mu_y - 0.9
    pt = ContaminationPoint(y0=y0, x0=x0)
    eps = 1e-7
    cm = contaminated_moments(model, pt, eps)
    sigma_rxx = model.sigma @ model.h @ model.sigma
    d = x0 - model.mu
    r0 = y0 - model.mu_y - d @ model.beta
    coeff = r0 * (np.outer(d, d) - model.sigma)
    got = (cm.sigma_rxx_eps - (1 - eps) * sigma_rxx) / eps
    rel = np.abs(got - coeff).max() / max(1.0, np.abs(coeff).max())
    assert rel <= 1e-5


def test_epsilon_bounds(rng):
    model = random_model(rng, 3, 1)
    pt = ContaminationPoint(y0=0.0, x0=np.zeros(3))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidArgument):
            contaminated_moments(model, pt, bad)


# ----------------------------------------------------------------------
# the finite-eps oracle against the closed forms
# ----------------------------------------------------------------------

def test_oracle_vanishes_where_closed_form_does(rng):
    model = identity_cov_model(rng)
    u = rng.standard_normal(4)
    u -= model.gamma.columns @ (model.gamma.columns.T @ u)
    u /= np.linalg.norm(u)
    pt = ContaminationPoint(y0=0.4, x0=2.0 * u)
    assert ris(model, "r", pt)[0] <= 1e-12
    assert ris_numeric_oracle(model, "r", pt)[0] <= 1e-4


@pytest.mark.parametrize("model_seed,p,k,identity", [
    (101, 3, 1, True),
    (202, 5, 2, False),
    (303, 4, 1, False),
])
def test_oracle_matches_closed_forms(model_seed, p, k, identity):
    rng = np.random.default_rng(model_seed)
    model = random_model(rng, p, k, identity_sigma=identity)
    rel_errors = []
    for _ in range(20):
        pt = ContaminationPoint(
            y0=model.mu_y + 2.0 * float(rng.standard_normal()),
            x0=model.mu + 2.0 * rng.standard_normal(p),
        )
        for variant in ("y", "r"):
            closed = ris(model, variant, pt)
            oracle = ris_numeric_oracle(model, variant, pt)
            rel_errors.extend(np.abs(closed - oracle) / np.maximum(closed, 1e-8))
    assert len(rel_errors) == 2 * 20 * k
    assert max(rel_errors) <= 1e-3


def test_oracle_converges_first_order():
    rng = np.random.default_rng(404)
    model = random_model(rng, 4, 2)
    shrink = []
    for _ in range(5):
        pt = ContaminationPoint(
            y0=model.mu_y + float(rng.standard_normal()),
            x0=model.mu + rng.standard_normal(4),
        )
        closed = ris(model, "y", pt)[0]
        err_big = abs(ris_numeric_oracle(model, "y", pt, eps=1e-4)[0] - closed)
        err_small = abs(ris_numeric_oracle(model, "y", pt, eps=5e-5)[0] - closed)
        shrink.append(err_small / err_big)
    # halving eps roughly halves the truncation error
    assert np.median(shrink) <= 0.8


def test_oracle_names_the_first_direction_it_cannot_match():
    # x0 in the e_2-e_3 plane leaves e_1 an exact eigenvector, so direction 1
    # matches; the contaminated Hessian is linear in y0, and at the y0 where
    # its (2, 2) and (3, 3) entries agree its e_2-e_3 eigenvectors lie at 45
    # degrees to e_2, both candidates for direction 2
    model = PopulationModel(mu=np.zeros(3), sigma=np.eye(3), gamma=Basis(np.eye(3)[:, :2]),
                            lam=np.array([2.0, 1.0]), mu_y=0.0, sigma_xy=np.zeros(3))
    x0, eps = np.array([0.0, 1.0, 2.0]), 0.1

    def spread(y0):
        cm = contaminated_moments(model, ContaminationPoint(y0, x0), eps)
        si = spd_inverse(cm.sigma_eps)
        h = si @ cm.sigma_yxx_eps @ si
        return h[1, 1] - h[2, 2]

    y0 = spread(0.0) / (spread(0.0) - spread(1.0))
    with pytest.raises(AmbiguousMatch, match="direction 2 "):
        ris_numeric_oracle(model, "y", ContaminationPoint(y0, x0), eps)
    assert ris_numeric_oracle(model, "y", ContaminationPoint(y0 + 0.5, x0), eps)[0] == 0.0


# ----------------------------------------------------------------------
# the influence matrix route
# ----------------------------------------------------------------------

def test_influence_matrix_at_the_center_is_the_hessian(rng):
    model = random_model(rng, 4, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    assert np.abs(if_h_y(model, pt) - model.h).max() <= 1e-14


def test_matrix_route_agrees_with_alpha_route(rng):
    model = random_model(rng, 5, 2)
    for _ in range(20):
        pt = ContaminationPoint(
            y0=model.mu_y + float(rng.standard_normal()),
            x0=model.mu + rng.standard_normal(5),
        )
        fy = if_h_y(model, pt)
        fr = if_h_r(model, pt)
        for k in (1, 2):
            assert ris_from_if_matrix(model, fy)[k - 1] == pytest.approx(
                ris(model, "y", pt)[k - 1], abs=1e-9
            )
            assert ris_from_if_matrix(model, fr)[k - 1] == pytest.approx(
                ris(model, "r", pt)[k - 1], abs=1e-9
            )


def test_influence_matrix_matches_finite_difference(rng):
    model = random_model(rng, 4, 1)
    pt = ContaminationPoint(
        y0=model.mu_y + 0.8, x0=model.mu + rng.standard_normal(4)
    )
    eps = 1e-7
    cm = contaminated_moments(model, pt, eps)
    sig_inv_eps = np.linalg.inv(cm.sigma_eps)
    h_eps = sig_inv_eps @ cm.sigma_yxx_eps @ sig_inv_eps
    fd = (h_eps - model.h) / eps
    f = if_h_y(model, pt)
    assert np.abs(fd - f).max() / np.abs(f).max() <= 1e-4


# ----------------------------------------------------------------------
# the influence surface of the cosine example
# ----------------------------------------------------------------------

def test_surface_checkpoints(tmp_path):
    norms = np.linspace(0.0, 3.0, 13)   # includes 2.0
    costhetas = np.linspace(-1.0, 1.0, 9)  # includes -1, 0, 1
    surface = influence_surface(norms, costhetas)
    grid_y, grid_r = surface[..., 0], surface[..., 1]

    a = int(np.where(np.isclose(norms, 2.0))[0][0])
    b = int(np.where(np.isclose(costhetas, 0.0))[0][0])
    assert grid_y[a, b] == pytest.approx(1.0, abs=1e-9)
    assert grid_r[a, b] == pytest.approx(0.0, abs=1e-9)
    # inside the span the sine factor vanishes for both variants
    assert np.abs(grid_y[:, 0]).max() <= 1e-12
    assert np.abs(grid_y[:, -1]).max() <= 1e-12
    assert np.abs(grid_r[:, 0]).max() <= 1e-12
    assert np.abs(grid_r[:, -1]).max() <= 1e-12

    path = tmp_path / "surface.csv"
    write_surface_csv(path, norms, costhetas, surface)
    lines = path.read_text().splitlines()
    assert lines[0] == "norm_x0,cos_theta0,ris_y,ris_r"
    assert len(lines) == 1 + norms.size * costhetas.size
    cells = lines[1 + a * costhetas.size + b].split(",")
    assert float(cells[0]) == 2.0
    assert float(cells[1]) == 0.0
    assert float(cells[2]) == pytest.approx(1.0, abs=1e-9)


def test_surface_csv_is_the_per_cell_layout(tmp_path):
    norms = np.linspace(0.0, 3.0, 8)
    costhetas = np.linspace(-1.0, 1.0, 6)
    surface = influence_surface(norms, costhetas)
    path = tmp_path / "surface.csv"
    write_surface_csv(path, norms, costhetas, surface)
    want = "norm_x0,cos_theta0,ris_y,ris_r\n" + "".join(
        f"{norms[a]:.17g},{costhetas[b]:.17g},{surface[a, b, 0]:.17g},{surface[a, b, 1]:.17g}\n"
        for a in range(norms.size)
        for b in range(costhetas.size)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_surface_csv_rejects_a_surface_that_does_not_fit_the_grids(tmp_path):
    # one array per grid: the paired grids of another shape, or a surface
    # missing its variant axis, raise before the file is opened
    norms, costhetas = np.linspace(0.0, 3.0, 4), np.linspace(-1.0, 1.0, 3)
    surface = influence_surface(norms, costhetas)
    path = tmp_path / "surface.csv"
    for bad in (surface[:3], surface[:, :2], surface[..., 0], surface[..., :1]):
        with pytest.raises(InvalidArgument, match=r"need a surface of shape \(4, 3, 2\)"):
            write_surface_csv(path, norms, costhetas, bad)
    assert not path.exists()


def test_surface_holds_both_variants_of_ris_rows_bit_for_bit():
    # the last axis is the variant, in VARIANTS order, each cell the rate of
    # ris_rows on cosine_model(2) at the cell's (y0, x0)
    norms, costhetas = np.linspace(0.0, 3.0, 7), np.linspace(-1.0, 1.0, 5)
    surface = influence_surface(norms, costhetas)
    assert surface.shape == (7, 5, 2)
    sines = np.sqrt(1.0 - costhetas * costhetas)
    x0 = np.stack((norms[:, None] * costhetas, norms[:, None] * sines), axis=-1)
    y0 = np.cos(2.0 * x0[..., 0] - math.pi / 4.0)  # on the noiseless curve
    for v, variant in enumerate(VARIANTS):
        want = ris_rows(cosine_model(2), variant, x0.reshape(-1, 2), y0.ravel())[:, 0]
        assert np.array_equal(surface[..., v], want.reshape(7, 5))


def test_surface_cross_section_peak_favors_residual_variant():
    costhetas = np.linspace(-1.0, 1.0, 201)
    surface = influence_surface([2.0], costhetas)
    assert surface[..., VARIANTS.index("r")].max() > surface[..., VARIANTS.index("y")].max()


@pytest.mark.parametrize("p", [2, 3, 16])
@pytest.mark.parametrize("variant", ["y", "r"])
def test_surface_matches_the_single_index_shortcut(variant, p):
    # the CLI's default grid, ||x0|| <= 3, 61 x 61, is the surface of the
    # cosine model at every p
    norms = np.linspace(0.0, 3.0, 61)
    costhetas = np.linspace(-1.0, 1.0, 61)
    got = influence_surface(norms, costhetas)[..., VARIANTS.index(variant)]
    want = surface_shortcut(cosine_model(p), variant, norms, costhetas)
    assert got.shape == want.shape == (61, 61)
    assert np.abs(got - want).max() <= 1e-9


def test_ris_rows_and_surface_reject_bad_points():
    model = cosine_model(p=3)
    with pytest.raises(ValueError):
        ris_rows(model, "y", np.zeros(3), [0.0])
    with pytest.raises(ValueError):
        ris_rows(model, "y", np.zeros((2, 3)), [0.0])
    with pytest.raises(ValueError):
        ris_rows(model, "r", np.full((1, 3), np.inf), [0.0])
    with pytest.raises(InvalidArgument, match="row 1 of x0 is not finite") as exc:
        ris_rows(model, "y", np.zeros((2, 3)), [0.0, np.nan])
    assert exc.value.row == 1
    # a negative norm is the mirrored cell: (-1, 0.5) would read the value of
    # (1, -0.5) and be written to the CSV as norm_x0 = -1
    for norms, costhetas in (([np.nan], [0.0]), ([1.0], [np.nan]), ([1.0], [1.5]),
                             ([-1.0, 1.0], [0.5, -0.5]), ([0.0, -1e-300], [0.0])):
        with pytest.raises(ValueError):
            influence_surface(norms, costhetas)


@pytest.mark.parametrize("variant", ["y", "r"])
def test_ris_rows_rejects_finite_points_whose_rates_overflow(variant):
    # the kernel's products overflow at ||x0|| = 5e159: NaN or inf, once with
    # numpy warnings, which pytest makes errors here
    model = cosine_model(p=2)
    with pytest.raises(InvalidArgument, match="at row 0 of x0"):
        ris_rows(model, variant, [[5e159, 0.0], [0.0, 5e159]], [0.5, 0.5])
    with pytest.raises(InvalidArgument, match="at row 1 of x0") as exc:
        ris_rows(model, variant, [[1.0, 0.0], [5e159, 0.0]], [0.5, 0.5])
    assert exc.value.row == 1
    # the first offending row is named, whichever way the later ones fail
    with pytest.raises(InvalidArgument, match="overflow float64 at row 0 of x0"):
        ris_rows(model, variant, [[5e159, 0.0], [np.inf, 0.0]], [0.5, 0.5])
    with pytest.raises(InvalidArgument):
        ris(model, "r", ContaminationPoint(y0=0.5, x0=np.array([5e159, 0.0])))[0]
    # the residual y0 - mu_y - x0'beta = -1e309 of a finite point overflows
    # before the kernel's products do
    steep = PopulationModel(mu=np.zeros(3), sigma=np.eye(3), gamma=Basis(np.eye(3)[:, :1]),
                            lam=[1.0], mu_y=0.0, sigma_xy=[10.0, 0.0, 0.0])
    with pytest.raises(InvalidArgument, match="r-based influence rates overflow float64 "
                                              "at row 0 of x0") as exc:
        ris(steep, "r", ContaminationPoint(y0=0.0, x0=np.array([1e308, 0.0, 0.0])))[0]
    assert exc.value.row == 0


def test_surface_needs_p_at_least_2():
    # the surface is the cosine model's, which needs a second axis for x0
    with pytest.raises(InvalidArgument, match="needs p >= 2"):
        cosine_model(1)


def test_constants_match_their_decimal_values():
    assert COSINE_MODEL_MU_Y == pytest.approx(0.0956965, abs=1e-6)
    assert COSINE_MODEL_SIGMA_XY_COEF == pytest.approx(0.1913931, abs=1e-6)
    assert COSINE_MODEL_LAMBDA1 == pytest.approx(-0.3827862, abs=1e-6)
