import numpy as np
import pytest

from phdinfluence import LINK_CATALOG, SimSpec, mc_constants, simulate
from phdinfluence.population import (
    COSINE_MODEL_LAMBDA1,
    COSINE_MODEL_MU_Y,
    COSINE_MODEL_SIGMA_XY_COEF,
)
from phdinfluence.errors import InvalidArgument
from phdinfluence.moments import Dataset, compute_moments


def test_noiseless_cosine_is_deterministic_in_x():
    beta = np.array([0.6, 0.8, 0.0])
    spec = SimSpec(n=500, p=3, seed=42, sigma=0.0, beta=beta)
    d = simulate(spec)
    assert np.array_equal(d.y, np.cos(2.0 * d.x @ beta - np.pi / 4))


#: each catalog link's formula on the n x K index matrix t = x B
LINK_FORMULAS = {
    "cosine": lambda t: np.cos(2.0 * t[:, 0] - np.pi / 4),
    "linear": lambda t: t.sum(axis=1),
    "quadratic": lambda t: t[:, 0] ** 2,
    "product": lambda t: t[:, 0] * t[:, -1],
    "sum_squares": lambda t: (t**2).sum(axis=1),
}


@pytest.mark.parametrize("link", sorted(LINK_CATALOG))
def test_every_link_draws_its_formula_on_x_b(link):
    # the first column has unit norm, as the cosine link needs
    vector = np.array([0.6, 0.8, 0.0, 0.0])
    matrix = np.column_stack([vector, [1.0, -0.5, 2.0, 0.25]])
    for beta in (vector, matrix):
        d = simulate(SimSpec(n=100, p=4, seed=1, sigma=0.0, beta=beta, link=link))
        assert np.array_equal(d.y, LINK_FORMULAS[link](d.x @ beta.reshape(4, -1)))
    # a p-vector is its p x 1 column: same stored beta, same bytes drawn
    flat = SimSpec(n=40, p=4, seed=8, beta=vector, link=link)
    column = SimSpec(n=40, p=4, seed=8, beta=vector[:, None], link=link)
    assert flat.beta.shape == column.beta.shape == (4, 1)
    assert simulate(flat).y.tobytes() == simulate(column).y.tobytes()


def test_linear_model_ols_recovery():
    beta = np.array([1.0, -0.5, 2.0, 0.0])
    spec = SimSpec(n=10_000, p=4, seed=5, sigma=1.0, beta=beta, link="linear")
    d = simulate(spec)
    m = compute_moments(d)
    beta_hat = m.s_inv @ m.s_xy
    assert np.linalg.norm(beta_hat - beta) <= 5.0 / np.sqrt(d.n)


def test_quadratic_first_has_null_response_covariance():
    spec = SimSpec(n=100_000, p=3, seed=9, link="quadratic")
    d = simulate(spec)
    m = compute_moments(d)
    assert np.linalg.norm(m.s_xy) <= 0.02


def test_same_seed_same_bytes():
    spec = SimSpec(n=200, p=3, seed=123, sigma=0.7)
    a, b = simulate(spec), simulate(spec)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    other = simulate(SimSpec(n=200, p=3, seed=124, sigma=0.7))
    assert a.x.tobytes() != other.x.tobytes()


def test_predictors_look_standard_normal():
    spec = SimSpec(n=20_000, p=4, seed=31, sigma=0.0)
    d = simulate(spec)
    root_n = np.sqrt(d.n)
    assert np.abs(d.x.mean(axis=0)).max() <= 4.0 / root_n
    cov = np.cov(d.x, rowvar=False)
    assert np.abs(cov - np.eye(4)).max() <= 5.0 / root_n


def test_spec_validation():
    with pytest.raises(ValueError):
        SimSpec(n=10, p=2, seed=0, beta=np.array([1.0, 1.0]))  # not unit norm
    with pytest.raises(ValueError):
        SimSpec(n=10, p=2, seed=0, beta=np.eye(2), link="nope")
    with pytest.raises(InvalidArgument):
        SimSpec(n=10, p=2, seed=-1)  # numpy takes no negative seed
    with pytest.raises(InvalidArgument):
        SimSpec(n=10, p=2, seed=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param(dict(n=3, p=2), id="n-below-p-plus-2"),
        pytest.param(dict(n=4, p=3, link="linear"), id="linear-n-below-p-plus-2"),
        # sizes numpy takes only as integers: simulate would raise its TypeError
        pytest.param(dict(n=10.5, p=3), id="fractional-n"),
        pytest.param(dict(n=10, p=3.0), id="float-p"),
        pytest.param(dict(n="10", p=3), id="string-n"),
    ],
)
def test_spec_rejects_what_its_model_does_not_allow(kwargs):
    with pytest.raises(InvalidArgument):
        SimSpec(seed=0, **kwargs)


def test_spec_takes_numpy_integer_sizes():
    spec = SimSpec(n=np.int64(10), p=np.int32(3), seed=1)
    assert simulate(spec).x.shape == (10, 3)


def test_returns_dataset_type():
    d = simulate(SimSpec(n=50, p=3, seed=2, sigma=0.1))
    assert isinstance(d, Dataset)
    assert d.names == ("x1", "x2", "x3")


# ----------------------------------------------------------------------
# the Monte Carlo validator of the analytic constants
# ----------------------------------------------------------------------

def test_mc_constants_hit_their_targets():
    est = mc_constants(1_000_000, seed=7, sigma=0.0)
    assert abs(est.mu_y - COSINE_MODEL_MU_Y) <= 3 * est.se_mu_y
    assert abs(est.cov_zy - COSINE_MODEL_SIGMA_XY_COEF) <= 3 * est.se_cov_zy
    assert abs(est.lambda1 - COSINE_MODEL_LAMBDA1) <= 3 * est.se_lambda1
    # the estimate must discriminate the true eigenvalue from the
    # factor-two-off value
    assert abs(est.lambda1 - (-COSINE_MODEL_SIGMA_XY_COEF)) > 3 * est.se_lambda1


def test_mc_constants_insensitive_to_noise_level():
    a = mc_constants(400_000, seed=15, sigma=0.0)
    b = mc_constants(400_000, seed=16, sigma=1.0)
    for field in ("mu_y", "cov_zy", "lambda1"):
        va, vb = getattr(a, field), getattr(b, field)
        se = np.hypot(getattr(a, "se_" + field), getattr(b, "se_" + field))
        assert abs(va - vb) <= 3 * se


@pytest.mark.parametrize("seed", [2, 3, 4, 5, 6])
def test_mc_constants_reject_a_zero_standard_error(seed):
    # two noiseless draws: the covariance standard error is zero, exactly at
    # seeds 2-4 and up to rounding at 5 and 6, so a z-score against its
    # target would divide by zero or by noise
    with pytest.raises(InvalidArgument, match="standard error is zero"):
        mc_constants(2, seed=seed, sigma=0.0)


def test_mc_constants_reject_a_negative_seed():
    with pytest.raises(InvalidArgument, match="seed"):
        mc_constants(100, seed=-1, sigma=0.5)


@pytest.mark.parametrize("n_mc", [10.5, 100.0])
def test_mc_constants_reject_a_sample_size_that_is_not_an_integer(n_mc):
    with pytest.raises(InvalidArgument, match="n_mc must be an integer"):
        mc_constants(n_mc, seed=1, sigma=0.5)
