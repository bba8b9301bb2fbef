import dataclasses

import numpy as np
import pytest

from phdinfluence import (
    Basis,
    Dataset,
    PopulationModel,
    compute_moments,
    fit_from_moments,
    fit_phd,
)
from phdinfluence.errors import (DegenerateEigenvalue, DegenerateSpectrum, InvalidArgument,
                                 InvalidRank)
from phdinfluence.phd import require_gap, require_nonzero
from phdinfluence.linalg import project_out, sym_eigen
from phdinfluence.population import COSINE_MODEL_LAMBDA1, cosine_model
from phdinfluence.simulation import SimSpec, simulate
from conftest import hitters_like, hitters_refit, random_orthonormal
from oracles import mp_eigh


def test_population_h_rank_one():
    model = cosine_model(p=3)
    h = model.h
    expected = np.zeros((3, 3))
    expected[0, 0] = COSINE_MODEL_LAMBDA1
    assert np.allclose(h, expected)


def test_population_h_eigen_round_trip(rng):
    gamma = random_orthonormal(rng, 5, 2)
    lam = np.array([2.0, -1.0])
    model = PopulationModel(
        mu=np.zeros(5),
        sigma=np.eye(5),
        gamma=Basis(gamma),
        lam=lam,
        mu_y=0.0,
        sigma_xy=np.zeros(5),
    )
    values, vectors = sym_eigen(model.h)
    assert np.allclose(values[:2], lam, atol=1e-10)
    assert np.abs(values[2:]).max() <= 1e-10
    for k in range(2):
        assert np.linalg.norm(project_out(model.gamma, vectors[:, k])) <= 1e-10


def test_fit_structure_and_sandwich(rng):
    x = rng.standard_normal((200, 4))
    y = x[:, 0] ** 2 + 0.3 * rng.standard_normal(200)
    d = Dataset(y=y, x=x)
    m = compute_moments(d)
    fit = fit_from_moments(m, "y", 2)
    assert np.array_equal(fit.h, fit.h.T)
    assert np.abs(fit.h - m.s_inv @ m.sigma_yxx_hat @ m.s_inv).max() <= 1e-10
    values, vectors = sym_eigen(fit.h)
    assert np.array_equal(fit.gamma_hat.columns, vectors[:, :2])
    assert np.array_equal(fit.eigenvalues, values)  # full spectrum retained
    assert np.array_equal(fit.lambda_hat, values[:2])
    assert len(fit.eigenvalues) == 4
    fit_r = fit_from_moments(m, "r", 2)
    assert np.abs(fit_r.h - m.s_inv @ m.sigma_rxx_hat @ m.s_inv).max() <= 1e-10


def test_fit_rejects_bad_rank(rng):
    x = rng.standard_normal((30, 3))
    d = Dataset(y=rng.standard_normal(30), x=x)
    with pytest.raises(InvalidRank):
        fit_phd(d, "y", 4)
    with pytest.raises(InvalidRank):
        fit_phd(d, "y", 0)


def test_the_cut_rule_compares_magnitudes_at_k_only(rng):
    # the span is ranked by |lambda|, so lambda_K = -lambda_{K+1} ties at the
    # cut; ties inside the K fitted values or past K + 1 are not the cut's
    d = Dataset(y=rng.standard_normal(30), x=rng.standard_normal((30, 3)))
    fits = {k: fit_phd(d, "y", k) for k in (1, 2, 3)}
    for values, k, tied in (([1.0, -1.0 + 1e-12, 0.3], 1, True),
                            ([1.0, 1.0 - 1e-12, 0.3], 1, True),
                            ([1.0, -0.9, 0.3], 1, False),
                            ([1.0, 1.0, 0.3], 2, False),
                            ([1.0, 0.3, -0.3], 2, True),
                            ([1.0, 0.3, 0.3], 3, False)):
        tie = dataclasses.replace(fits[k], eigenvalues=np.array(values))
        if tied:
            with pytest.raises(DegenerateSpectrum, match=f"eigenvalues {k} and {k + 1}"):
                require_gap(tie)
        else:
            require_gap(tie)


def test_lambda_hat_is_read_from_the_spectrum_of_a_replaced_fit(rng):
    # lambda_hat is eigenvalues[:k], not a second stored copy, so a fit built
    # by dataclasses.replace gives the zero rule and the cut rule one spectrum
    d = Dataset(y=rng.standard_normal(30), x=rng.standard_normal((30, 3)))
    m = compute_moments(d)
    fit = fit_from_moments(m, "y", 2)
    values = np.array([3.0, 0.0, -0.5])
    moved = dataclasses.replace(fit, eigenvalues=values)
    assert np.array_equal(moved.lambda_hat, values[:2])
    assert not moved.lambda_hat.flags.writeable
    with pytest.raises(DegenerateEigenvalue):
        require_nonzero(moved, m)


@pytest.mark.parametrize("change", [
    pytest.param({"eigenvalues": np.array([3.0])}, id="eigenvalues-not-p"),
    pytest.param({"h": np.eye(4)}, id="h-shape"),
    pytest.param({"gamma_hat": np.eye(3)[:, :2]}, id="gamma-array"),
    pytest.param({"variant": "x"}, id="variant-unknown"),
    pytest.param({"eigenvalues": np.array([np.nan, 0.5, 0.1])}, id="eigenvalue-nan"),
    pytest.param({"eigenvalues": np.array([np.inf, 0.5, 0.1])}, id="eigenvalue-inf"),
    pytest.param({"h": np.diag([np.inf, 1.0, 1.0])}, id="h-inf"),
    pytest.param({"eigenvalues": np.array(["3", "2", "1"])}, id="eigenvalues-strings"),
])
def test_a_fit_whose_parts_disagree_is_rejected(rng, change):
    # an unknown variant was accepted: eris then read it as r, and sris and
    # hris raised a bare KeyError from the leave-one-out walk; a NaN
    # eigenvalue made eris return NaN, an inf in h made hris return NaN, and
    # an inf eigenvalue made write_report_json raise json's bare ValueError
    d = Dataset(y=rng.standard_normal(30), x=rng.standard_normal((30, 3)))
    fit = fit_phd(d, "y", 2)
    with pytest.raises(InvalidArgument):
        dataclasses.replace(fit, **change)


def test_independent_response_gives_null_spectrum():
    spec = SimSpec(n=100_000, p=3, seed=77, sigma=1.0, beta=np.zeros(3),
                   link="linear")
    d = simulate(spec)  # y is pure noise, independent of x
    fit = fit_phd(d, "y", 1)
    assert np.abs(fit.eigenvalues).max() <= 0.05 * d.y.std()


@pytest.mark.parametrize("variant", ["y", "r"])
def test_cosine_model_recovers_eigenvalue_and_direction(variant):
    spec = SimSpec(n=1_000_000, p=3, seed=11, sigma=0.5)
    d = simulate(spec)
    fit = fit_phd(d, variant, 1)
    assert fit.lambda_hat[0] == pytest.approx(COSINE_MODEL_LAMBDA1, abs=0.01)
    beta1 = np.array([1.0, 0.0, 0.0])
    gap = np.linalg.norm(project_out(fit.gamma_hat, beta1))
    assert gap <= 0.02


def test_projector_invariant_to_sign_flips(rng):
    x = rng.standard_normal((120, 3))
    y = np.cos(2 * x[:, 0] - np.pi / 4) + 0.2 * rng.standard_normal(120)
    fit = fit_phd(Dataset(y=y, x=x), "y", 2)
    flipped = fit.gamma_hat.columns.copy()
    flipped[:, 0] = -flipped[:, 0]
    p_flipped = flipped @ flipped.T
    p_hat = fit.gamma_hat.columns @ fit.gamma_hat.columns.T
    assert np.abs(p_flipped - p_hat).max() <= 1e-12
    assert np.array_equal(np.abs(fit.lambda_hat), np.abs(fit.eigenvalues[:2]))


def test_variants_converge_to_the_same_matrix():
    meds = []
    for n in (1_000, 10_000, 100_000):
        gaps = []
        for seed in range(10):
            d = simulate(SimSpec(n=n, p=3, seed=seed, sigma=0.5))
            m = compute_moments(d)
            fit_y = fit_from_moments(m, "y", 1)
            fit_r = fit_from_moments(m, "r", 1)
            gaps.append(np.abs(fit_y.h - fit_r.h).max())
        meds.append(np.median(gaps))
    assert meds[0] > meds[1] > meds[2]


def test_residual_variant_resists_added_linear_trend():
    dist_y, dist_r = [], []
    for seed in range(8):
        d = simulate(SimSpec(n=2_000, p=3, seed=300 + seed,
                             sigma=0.2))
        trend = 2.0 * d.x[:, 0]
        d_mod = Dataset(y=d.y + trend, x=d.x)
        for variant, acc in (("y", dist_y), ("r", dist_r)):
            base = fit_phd(d, variant, 1)
            mod = fit_phd(d_mod, variant, 1)
            acc.append(np.linalg.norm(project_out(base.gamma_hat, mod.gamma_hat.columns[:, 0])))
    assert np.median(dist_r) < np.median(dist_y)


@pytest.mark.parametrize("variant", ["y", "r"])
def test_fitted_spectrum_matches_a_high_precision_fit_on_mixed_units(variant):
    # predictors in mixed units (cond(S) about 4.5e6): with an accurate S^-1
    # every fitted eigenvalue sits at rounding of |lambda_1|
    fit = fit_phd(hitters_like(), variant, 2)
    want = mp_eigh(getattr(hitters_refit(None), f"h_{variant}"))[0]
    assert np.abs(fit.eigenvalues - want).max() <= 1e-13 * abs(want[0])
