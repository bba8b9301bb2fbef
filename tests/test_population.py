import math

import numpy as np
import pytest

from phdinfluence import (
    Basis,
    ContaminationPoint,
    PopulationModel,
    contaminated_moments,
    cosine_model_constants,
    cosine_model,
    influence_surface,
    population_h,
    population_ols_residual,
    ris_numeric_oracle,
    ris_r,
    ris_y,
    write_surface_csv,
)
from phdinfluence.linalg import spd_inverse
from phdinfluence.population import ris_rows
from phdinfluence.errors import (
    DegenerateSpectrum,
    InvalidArgument,
    InvalidEpsilon,
    InvalidMatrix,
    NotPositiveDefinite,
    UnsupportedModel,
)
from conftest import random_model, random_orthonormal
from oracles import if_h_r, if_h_y, ris_from_if_matrix, surface_shortcut


def identity_cov_model(rng, p=4, k=2):
    """Zero-mean identity-covariance multi-index model with a nonzero
    covariance between response and predictors."""
    return random_model(rng, p, k, identity_sigma=True)


# ----------------------------------------------------------------------
# population OLS residual
# ----------------------------------------------------------------------

def test_residual_zero_at_the_center(rng):
    model = random_model(rng, 4, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    assert population_ols_residual(model, pt) == 0.0


def test_residual_reduces_to_centered_response_when_uncorrelated(rng):
    model = random_model(rng, 4, 2, zero_sigma_xy=True)
    pt = ContaminationPoint(y0=1.7, x0=rng.standard_normal(4))
    assert population_ols_residual(model, pt) == pytest.approx(
        1.7 - model.mu_y, abs=1e-14
    )


def test_residual_on_the_cosine_model():
    model = cosine_model(p=3)
    beta1 = model.gamma.columns[:, 0]
    x0 = 2.0 * beta1
    y0 = math.cos(4.0 - math.pi / 4.0)
    mu_y, coef, _ = cosine_model_constants()
    expected = y0 - mu_y - 2.0 * coef
    assert population_ols_residual(
        model, ContaminationPoint(y0=y0, x0=x0)
    ) == pytest.approx(expected, abs=1e-14)


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
            assert ris_y(model, pt, k) == pytest.approx(expected, abs=1e-12)
            assert ris_r(model, pt, k) <= 1e-12


def test_orthogonal_contamination_scales_linearly(rng):
    model = identity_cov_model(rng)
    u = rng.standard_normal(4)
    u -= model.gamma.columns @ (model.gamma.columns.T @ u)
    u /= np.linalg.norm(u)
    y0 = 0.3
    base = ris_y(model, ContaminationPoint(y0=y0, x0=u), 1)
    tripled = ris_y(model, ContaminationPoint(y0=y0, x0=3.0 * u), 1)
    assert abs(tripled - 3.0 * base) <= 1e-12


def test_contamination_at_the_center_is_harmless(rng):
    model = random_model(rng, 5, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    for k in (1, 2):
        assert ris_y(model, pt, k) <= 1e-12
        assert ris_r(model, pt, k) <= 1e-12


def test_variants_agree_when_response_is_uncorrelated(rng):
    model = random_model(rng, 4, 2, zero_sigma_xy=True)
    for _ in range(10):
        pt = ContaminationPoint(
            y0=float(rng.standard_normal()), x0=rng.standard_normal(4)
        )
        for k in (1, 2):
            assert abs(
                ris_y(model, pt, k) - ris_r(model, pt, k)
            ) <= 1e-12


def test_cosine_checkpoint_norm_two_orthogonal():
    model = cosine_model(p=3)
    u = np.array([0.0, 1.0, 0.0])
    y0 = math.cos(-math.pi / 4.0)  # noiseless response at cos(theta0) = 0
    pt = ContaminationPoint(y0=y0, x0=2.0 * u)
    assert ris_y(model, pt, 1) == pytest.approx(1.0, abs=1e-9)
    assert ris_r(model, pt, 1) <= 1e-9


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
            assert ris_y(model, pt, k) == pytest.approx(
                ris_y(rotated, pt_rot, k), abs=1e-10
            )
            assert ris_r(model, pt, k) == pytest.approx(
                ris_r(rotated, pt_rot, k), abs=1e-10
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
    model = random_model(rng, 5, 2)
    x0 = model.mu + 2.0 * rng.standard_normal((30, 5))
    y0 = model.mu_y + rng.standard_normal(30)
    r0 = rng.standard_normal(30)
    got = {"y": ris_rows(model, "y", x0, y0), "r": ris_rows(model, "r", x0, r0)}
    assert got["y"].shape == got["r"].shape == (30, 2)
    for i in range(30):
        pt = ContaminationPoint(y0=float(y0[i]), x0=x0[i])
        f = {"y": if_h_y(model, pt), "r": if_h_r(model, pt, residual=float(r0[i]))}
        for v in ("y", "r"):
            for k in (1, 2):
                want = ris_from_if_matrix(model, f[v], k)
                assert got[v][i, k - 1] == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert got["y"][i, 1] == pytest.approx(ris_y(model, pt, 2), rel=1e-12)
        # ris_r is the one-row view at the population OLS residual
        r_pop = population_ols_residual(model, pt)
        assert ris_r(model, pt, 1) == pytest.approx(
            ris_rows(model, "r", x0[i][None], [r_pop])[0, 0], rel=1e-12
        )


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
    # each passed every other check, and ris_y then returned NaN
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
    sigma_yxx = model.sigma @ population_h(model) @ model.sigma
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
    sigma_yxx = model.sigma @ population_h(model) @ model.sigma
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
    sigma_rxx = model.sigma @ population_h(model) @ model.sigma
    d = x0 - model.mu
    r0 = population_ols_residual(model, pt)
    coeff = r0 * (np.outer(d, d) - model.sigma)
    got = (cm.sigma_rxx_eps - (1 - eps) * sigma_rxx) / eps
    rel = np.abs(got - coeff).max() / max(1.0, np.abs(coeff).max())
    assert rel <= 1e-5


def test_epsilon_bounds(rng):
    model = random_model(rng, 3, 1)
    pt = ContaminationPoint(y0=0.0, x0=np.zeros(3))
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(InvalidEpsilon):
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
    assert ris_r(model, pt, 1) <= 1e-12
    assert ris_numeric_oracle(model, pt, 1, "r") <= 1e-4


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
        for kk in range(1, k + 1):
            for variant, closed in (
                ("y", ris_y(model, pt, kk)),
                ("r", ris_r(model, pt, kk)),
            ):
                oracle = ris_numeric_oracle(model, pt, kk, variant)
                rel_errors.append(abs(closed - oracle) / max(closed, 1e-8))
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
        closed = ris_y(model, pt, 1)
        err_big = abs(ris_numeric_oracle(model, pt, 1, "y", eps=1e-4) - closed)
        err_small = abs(ris_numeric_oracle(model, pt, 1, "y", eps=5e-5) - closed)
        shrink.append(err_small / err_big)
    # halving eps roughly halves the truncation error
    assert np.median(shrink) <= 0.8


# ----------------------------------------------------------------------
# the influence matrix route
# ----------------------------------------------------------------------

def test_influence_matrix_at_the_center_is_the_hessian(rng):
    model = random_model(rng, 4, 2)
    pt = ContaminationPoint(y0=model.mu_y, x0=model.mu)
    assert np.abs(if_h_y(model, pt) - population_h(model)).max() <= 1e-14


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
            assert ris_from_if_matrix(model, fy, k) == pytest.approx(
                ris_y(model, pt, k), abs=1e-9
            )
            assert ris_from_if_matrix(model, fr, k) == pytest.approx(
                ris_r(model, pt, k), abs=1e-9
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
    fd = (h_eps - population_h(model)) / eps
    f = if_h_y(model, pt)
    assert np.abs(fd - f).max() / np.abs(f).max() <= 1e-4


# ----------------------------------------------------------------------
# the influence surface of the cosine example
# ----------------------------------------------------------------------

def test_surface_checkpoints(tmp_path):
    norms = np.linspace(0.0, 3.0, 13)   # includes 2.0
    costhetas = np.linspace(-1.0, 1.0, 9)  # includes -1, 0, 1
    grid_y = influence_surface(3, "y", norms, costhetas)
    grid_r = influence_surface(3, "r", norms, costhetas)

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
    write_surface_csv(path, norms, costhetas, grid_y, grid_r)
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
    grid_y = influence_surface(3, "y", norms, costhetas)
    grid_r = influence_surface(3, "r", norms, costhetas)
    path = tmp_path / "surface.csv"
    write_surface_csv(path, norms, costhetas, grid_y, grid_r)
    want = "norm_x0,cos_theta0,ris_y,ris_r\n" + "".join(
        f"{norms[a]:.17g},{costhetas[b]:.17g},{grid_y[a, b]:.17g},{grid_r[a, b]:.17g}\n"
        for a in range(norms.size)
        for b in range(costhetas.size)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_surface_cross_section_peak_favors_residual_variant():
    costhetas = np.linspace(-1.0, 1.0, 201)
    grid_y = influence_surface(3, "y", [2.0], costhetas)
    grid_r = influence_surface(3, "r", [2.0], costhetas)
    assert grid_r.max() > grid_y.max()


@pytest.mark.parametrize("variant", ["y", "r"])
def test_surface_matches_the_single_index_shortcut(variant):
    # the CLI's default grid: p = 3, ||x0|| <= 3, 61 x 61
    model = cosine_model(p=3)
    norms = np.linspace(0.0, 3.0, 61)
    costhetas = np.linspace(-1.0, 1.0, 61)
    got = influence_surface(3, variant, norms, costhetas)
    want = surface_shortcut(model, variant, norms, costhetas)
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
    for norms, costhetas in (([np.nan], [0.0]), ([1.0], [np.nan]), ([1.0], [1.5])):
        with pytest.raises(ValueError):
            influence_surface(3, "y", norms, costhetas)


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
        ris_r(model, ContaminationPoint(y0=0.5, x0=np.array([5e159, 0.0])), 1)


def test_surface_needs_p_at_least_2():
    # the surface is the cosine model's, which needs a second axis for x0
    with pytest.raises(UnsupportedModel):
        influence_surface(1, "y", [1.0], [0.0])


def test_constants_match_their_decimal_values():
    mu_y, coef, lam1 = cosine_model_constants()
    assert mu_y == pytest.approx(0.0956965, abs=1e-6)
    assert coef == pytest.approx(0.1913931, abs=1e-6)
    assert lam1 == pytest.approx(-0.3827862, abs=1e-6)
