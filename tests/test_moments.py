import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phdinfluence import (
    Dataset,
    compute_moments,
    diagnostics,
    fit_from_moments,
    hris,
    mahalanobis,
    sris,
)
from phdinfluence.diagnostics import LEVERAGE_RTOL, LOO_BLOCK_BYTES, _LooWalk, loo_block_rows
from phdinfluence.linalg import spd_inverse
from phdinfluence.phd import VARIANTS
from phdinfluence.errors import (
    DegenerateLeverage,
    InsufficientData,
    InvalidArgument,
    NotPositiveDefinite,
)
from conftest import hitters_like, hitters_refit, loo_hessians
from oracles import sample_covariance


# ----------------------------------------------------------------------
# brute-force oracles (independent of the implementation under test)
# ----------------------------------------------------------------------

def bf_third_moment(y, x, weights=None):
    """Triple loop for sum_i w_i (x_i - xbar)(x_i - xbar)' / n."""
    n, p = x.shape
    xbar = x.mean(axis=0)
    w = (y - y.mean()) if weights is None else weights
    out = np.zeros((p, p))
    for i in range(n):
        d = x[i] - xbar
        for a in range(p):
            for b in range(p):
                out[a, b] += w[i] * d[a] * d[b]
    return out / n


def bf_loo(y, x, j):
    """S_(j) and the y- and r-weighted third moments M_(j) of the sample
    without row j, recomputed from scratch on the subset."""
    mask = np.ones(len(y), bool)
    mask[j] = False
    ys, xs = y[mask], x[mask]
    m = len(ys)
    xc, yc = xs - xs.mean(axis=0), ys - ys.mean()
    s = xc.T @ xc / (m - 1)
    resid = yc - xc @ np.linalg.solve(s, xc.T @ yc / (m - 1))
    return s, [(xc.T * w) @ xc / m for w in (yc, resid)]


def bf_loo_hessians(y, x, j):
    """The y- and r-based Hessians S_(j)^-1 M_(j) S_(j)^-1 of the sample
    without row j, refitted from scratch."""
    s, thirds = bf_loo(y, x, j)
    s_inv = np.linalg.inv(s)
    return [s_inv @ t @ s_inv for t in thirds]


def walk_hessians(d, m=None):
    """loo_hessians of both variants, in VARIANTS order, with their mask."""
    m = compute_moments(d) if m is None else m
    return loo_hessians(m, [fit_from_moments(m, v, 1) for v in VARIANTS])


def make_data(rng, n, p, link=None):
    x = rng.standard_normal((n, p))
    y = (np.sin(x[:, 0]) + 0.5 * rng.standard_normal(n)) if link is None else link(x)
    return Dataset(y=y, x=x)


# ----------------------------------------------------------------------
# compute_moments
# ----------------------------------------------------------------------

def test_zero_response_zeroes_everything(rng):
    x = rng.standard_normal((20, 3))
    d = Dataset(y=np.zeros(20), x=x)
    m = compute_moments(d)
    assert np.abs(m.s_xy).max() == 0.0
    assert np.abs(m.sigma_yxx_hat).max() == 0.0
    assert np.abs(m.residuals).max() == 0.0


def test_exact_linear_fit_kills_residual_moment(rng):
    x = rng.standard_normal((25, 4))
    b = np.array([1.0, -2.0, 0.5, 3.0])
    d = Dataset(y=x @ b, x=x)
    m = compute_moments(d)
    scale = np.abs(d.y).max()
    assert np.abs(m.residuals).max() <= 1e-10 * scale
    assert np.abs(m.sigma_rxx_hat).max() <= 1e-9 * scale


def test_moments_decompose_the_covariance_once(rng, monkeypatch):
    d = make_data(rng, 30, 4)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    m = compute_moments(d)
    assert len(calls) == 1
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert np.array_equal(m.s_inv, spd_inverse(sample_covariance(d)))


def test_moment_arrays_are_read_only_and_hold_the_ols_slope(rng):
    d = make_data(rng, 30, 4)
    m = compute_moments(d)
    # the centred data every other moment is built from
    xc, eps = m.xc, np.finfo(float).eps
    assert np.abs(xc - (d.x - d.x.mean(axis=0))).max() <= 4 * eps * np.abs(d.x).max()
    assert np.abs(m.yc - (d.y - float(d.y.mean()))).max() <= 4 * eps * np.abs(d.y).max()
    assert np.array_equal(m.beta, m.s_inv @ m.s_xy)
    assert np.array_equal(m.residuals, m.yc - xc @ m.beta)
    assert np.array_equal(m.u, xc @ m.s_inv)
    assert np.array_equal(m.q, np.einsum("ij,ij->i", xc, m.u))
    arrays = [f.name for f in dataclasses.fields(m) if isinstance(getattr(m, f.name), np.ndarray)]
    assert len(arrays) == 11
    for name in arrays:
        a = getattr(m, name)
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_third_moment_matches_triple_loop(rng):
    d = make_data(rng, 50, 3)
    m = compute_moments(d)
    assert np.abs(m.sigma_yxx_hat - bf_third_moment(d.y, d.x)).max() <= 1e-12
    assert np.abs(
        m.sigma_rxx_hat - bf_third_moment(d.y, d.x, weights=m.residuals)
    ).max() <= 1e-12


def test_predictor_third_moment_matches_triple_loop(rng):
    # g_third[a] = S^-1 X3[a] S^-1, where X3[a] is the triple loop weighted
    # by the centred a-th predictor
    d = make_data(rng, 50, 3)
    m = compute_moments(d)
    s_inv = np.linalg.inv(sample_covariance(d))
    xc = d.x - d.x.mean(axis=0)
    want = np.stack([s_inv @ bf_third_moment(d.y, d.x, weights=xc[:, a]) @ s_inv
                     for a in range(d.p)])
    assert np.abs(m.g_third - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(m.g_third, np.swapaxes(m.g_third, 1, 2))


def test_residual_invariants(rng):
    d = make_data(rng, 60, 4)
    m = compute_moments(d)
    scale = max(1.0, np.abs(d.y).max())
    assert abs(m.residuals.sum()) <= 1e-8 * d.n * scale
    xc = d.x - d.x.mean(axis=0)
    assert np.abs(xc.T @ m.residuals).max() <= 1e-8 * d.n * scale


def test_residuals_affine_equivariant(rng):
    d = make_data(rng, 40, 3)
    m = compute_moments(d)
    a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    shifted = Dataset(y=d.y, x=d.x @ a + rng.standard_normal(3))
    m2 = compute_moments(shifted)
    assert np.abs(m.residuals - m2.residuals).max() <= 1e-9


def test_mle_vs_unbiased_conventions(rng):
    # the stated divisors: s by n-1, third moments by n
    d = make_data(rng, 30, 2)
    m = compute_moments(d)
    xc = d.x - d.x.mean(axis=0)
    assert np.allclose(m.s_inv @ (xc.T @ xc / (d.n - 1)), np.eye(d.p))
    yc = d.y - d.y.mean()
    direct = sum(
        yc[i] * np.outer(xc[i], xc[i]) for i in range(d.n)
    ) / d.n
    assert np.abs(m.sigma_yxx_hat - direct).max() <= 1e-12


def test_yxx_and_rxx_converge_for_gaussian_predictors():
    # the two third-moment matrices estimate the same object under normal
    # predictors, so their gap should shrink with n
    gaps = []
    for n in (300, 3000):
        per_seed = []
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((n, 3))
            y = np.cos(2 * x[:, 0] - np.pi / 4) + 0.5 * rng.standard_normal(n)
            m = compute_moments(Dataset(y=y, x=x))
            per_seed.append(np.abs(m.sigma_yxx_hat - m.sigma_rxx_hat).max())
        gaps.append(np.median(per_seed))
    assert gaps[1] < gaps[0]


def test_insufficient_rows_rejected(rng):
    x = rng.standard_normal((4, 3))
    with pytest.raises(InsufficientData):
        Dataset(y=np.zeros(4), x=x)


def test_dataset_names_default_to_x1_through_xp(rng):
    d = Dataset(y=np.zeros(6), x=rng.standard_normal((6, 4)))
    assert d.names == ("x1", "x2", "x3", "x4")
    assert Dataset(y=d.y, x=d.x, names=("a", "b", "c", "d")).names == ("a", "b", "c", "d")
    with pytest.raises(InvalidArgument):
        Dataset(y=d.y, x=d.x, names=("a", "b"))


def test_singular_design_rejected(rng):
    x = rng.standard_normal((20, 3))
    x[:, 2] = x[:, 0]  # exact collinearity
    with pytest.raises(NotPositiveDefinite):
        compute_moments(Dataset(y=rng.standard_normal(20), x=x))


# ----------------------------------------------------------------------
# leave-one-out leverage and Hessians
# ----------------------------------------------------------------------

def test_loo_walk_is_blocking_invariant_and_matches_refits(rng, monkeypatch):
    # the walk in blocks of one row and in one block of all rows builds every
    # row the same leave-one-out Hessians, and they match refits
    d = make_data(rng, 30, 4)
    m = compute_moments(d)
    fits = [fit_from_moments(m, v, 1) for v in VARIANTS]
    walks = []
    for budget in (1, 8 * d.p * d.p * d.n):
        monkeypatch.setattr(diagnostics, "LOO_BLOCK_BYTES", budget)
        walks.append(list(_LooWalk(m, fits).blocks()))
    ones, ((rows, block),) = walks
    assert rows.tolist() == list(range(d.n))
    assert block.shape == (d.n, len(VARIANTS), 4, 4)
    for j, (one_rows, one) in enumerate(ones):
        assert one_rows.tolist() == [j]
        assert np.abs(one[0] - block[j]).max() <= 1e-14 * np.abs(block[j]).max()
        for got, want in zip(block[j], bf_loo_hessians(d.y, d.x, j)):
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())


#: rows of hitters_like() where an eigenbasis inverse of S puts the
#: closed-form leave-one-out quantities furthest from a high-precision refit
HITTERS_ROWS = (33, 40, 114, 231)


def test_y_loo_hessian_matches_a_high_precision_refit():
    # built from the accurate full-sample S^-1 and H, the y-based H_(j)
    # stays at rounding of its largest entry on this mixed-unit input
    # (cond(S) about 4.5e6)
    d = hitters_like()
    h, _ = walk_hessians(d)
    for j in HITTERS_ROWS:
        want = hitters_refit(j).h_y
        got = h[j, VARIANTS.index("y")]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), j


def test_r_loo_hessian_matches_a_high_precision_refit():
    # the r-based H_(j) also carries the moved OLS slope, through
    # e_j G(u_j) and the rank-2 term
    d = hitters_like()
    h, _ = walk_hessians(d)
    for j in HITTERS_ROWS:
        want = hitters_refit(j).h_r
        got = h[j, VARIANTS.index("r")]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), j


def test_deleting_the_only_distinct_point_hits_leverage_singularity():
    # five rows on a line plus one distinct point off it: deleting that
    # point leaves a rank-one sample, which is exactly the configuration the
    # leverage denominator detects, and both leave-one-out measures name it
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0], [2.0, 5.0]])
    y = np.array([2.0, 1.0, 3.0, 0.0, 5.0, 7.0])
    d = Dataset(y=y, x=x)
    m = compute_moments(d)
    for v in VARIANTS:
        fit = fit_from_moments(m, v, 1)
        with pytest.raises(DegenerateLeverage) as err:
            sris(d, fit)
        assert err.value.index == 5
        with pytest.raises(DegenerateLeverage) as err:
            hris(d, fit, m)
        assert err.value.index == 5
    # removing a row on the line instead is fine and matches brute force
    h, degenerate = walk_hessians(d, m)
    assert degenerate.tolist() == [False] * 5 + [True]
    for got, want in zip(h[2], bf_loo_hessians(y, x, 2)):
        assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())


def test_loo_walk_masks_the_leverage_singularity():
    x = np.array([[1.0], [1.0], [1.0], [1.0], [1.0], [4.0]])
    y = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 7.0])
    d = Dataset(y=y, x=x)
    h, degenerate = walk_hessians(d)
    assert degenerate.tolist() == [False] * 5 + [True]
    assert np.isnan(h[5]).all() and np.isfinite(h[:5]).all()


def test_block_rows_follow_the_byte_budget():
    assert loo_block_rows(16) == 64
    assert loo_block_rows(130) == 1  # one 135 kB matrix exceeds the budget
    for p in (1, 3, 16, 32):
        stack = 8 * p * p
        assert loo_block_rows(p) * stack <= LOO_BLOCK_BYTES < (loo_block_rows(p) + 1) * stack


# ----------------------------------------------------------------------
# Mahalanobis distance
# ----------------------------------------------------------------------

def test_mahalanobis_zero_at_the_mean(rng):
    x = rng.standard_normal((12, 3))
    x[-1] = x[:-1].mean(axis=0)  # last row equals the mean of the others,
    # hence the mean of all rows
    d = Dataset(y=rng.standard_normal(12), x=x)
    m = compute_moments(d)
    assert mahalanobis(m)[-1] <= 1e-10


def test_mahalanobis_euclidean_case(rng):
    # a sample with zero mean and identity covariance: orthonormal columns,
    # orthogonal to the ones vector, scaled by sqrt(n - 1).  Its distance is
    # euclidean
    z = rng.standard_normal((8, 3))
    x = np.linalg.qr(z - z.mean(axis=0))[0] * np.sqrt(7.0)
    d = Dataset(y=np.zeros(8), x=x)
    m = compute_moments(d)
    assert np.abs(mahalanobis(m) - np.linalg.norm(x, axis=1)).max() <= 1e-12


def test_mahalanobis_matches_quadratic_form(rng):
    d = make_data(rng, 35, 4)
    m = compute_moments(d)
    md = mahalanobis(m)
    xbar = d.x.mean(axis=0)
    for i in range(d.n):
        diff = d.x[i] - xbar
        assert md[i] == pytest.approx(np.sqrt(diff @ m.s_inv @ diff), abs=1e-12)
    assert np.all(md >= 0)


def _moments_or_reject(d):
    # a design whose unit-diagonal covariance fails spd_inverse's
    # positive-definiteness test is not drawn
    try:
        return compute_moments(d)
    except NotPositiveDefinite:
        assume(False)


#: largest cond(S) of a drawn design.  Every downdate starts from S^-1, which
#: spd_inverse gets to about 1e-11 in unit-free coordinates at cond 1e9 but
#: only to 4e-10 at 1e10 and 1e-8 at 1e11.
SCALED_DESIGN_COND = 1e9


@settings(max_examples=60, deadline=None, print_blob=True)
@given(
    st.integers(2, 6).flatmap(lambda p: st.tuples(
        st.integers(p + 3, 40),
        st.just(p),
        st.integers(0, 2**32 - 1),
        st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p),
    ))
)
@example((7, 4, 24, [0.0, 0.0, 0.0, 1.0]))  # row 3: S_(j) nearly singular
@example((20, 4, 5, [0.0, 2.2, -2.2, 1.0]))  # mixed units: cond(S) 5.8e8
def test_loo_hessians_equal_a_refit_on_random_scaled_designs(case):
    # every row against compute_moments on the sample without it, with each
    # predictor in its own unit c = 10^u, compared in the unit-free
    # coordinates x / c where the tolerances of
    # test_loo_walk_is_blocking_invariant_and_matches_refits apply unchanged:
    # the leverage (u, D) gives S_(j)^-1, and each H_(j) maps back through
    # S_(j) to the refitted third moment M_(j) = S_(j) H_(j) S_(j)
    n, p, seed, u = case
    c = 10.0 ** np.array(u)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    y = np.sin(z[:, 0]) + 0.5 * rng.standard_normal(n)
    d = Dataset(y=y, x=z * c)
    m = _moments_or_reject(d)
    w = np.linalg.eigvalsh(sample_covariance(d))
    assume(w[-1] <= SCALED_DESIGN_COND * w[0])
    dx = d.x - d.x.mean(axis=0)
    u = dx @ m.s_inv
    full = (n - 1) ** 2 / n
    denom = full - np.einsum("ij,ij->i", dx, u)
    h, degenerate = walk_hessians(d, m)
    assert degenerate.tolist() == (denom / full <= LEVERAGE_RTOL).tolist()
    cc = np.outer(c, c)
    for j in np.flatnonzero(~degenerate):
        keep = np.arange(n) != j
        d_j = Dataset(y=y[keep], x=d.x[keep])
        refit, s_j = _moments_or_reject(d_j), sample_covariance(d_j)
        s_inv_j = (n - 2) / (n - 1) * (m.s_inv + np.outer(u[j], u[j]) / denom[j])
        assert np.abs((s_inv_j * cc) @ (s_j / cc) - np.eye(p)).max() <= 1e-9
        # the refit's residuals by least squares on its centred design: the
        # normal equations of a nearly singular S_(j) lose the OLS slope
        xc, yc = d.x[keep] - d.x[keep].mean(axis=0), y[keep] - y[keep].mean()
        resid = yc - xc @ np.linalg.lstsq(xc, yc, rcond=None)[0]
        sigma_rxx = (xc.T * resid) @ xc / (n - 1)
        for a, want in enumerate((refit.sigma_yxx_hat / cc, sigma_rxx / cc)):
            got = s_j @ h[j, a] @ s_j / cc
            assert np.abs(got - want).max() <= 1e-9 * (1 + np.abs(want).max())


@settings(max_examples=60, deadline=None, print_blob=True)
@given(
    st.integers(2, 6).flatmap(lambda p: st.tuples(
        st.integers(p + 3, 30),
        st.just(p),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    ))
)
def test_loo_hessians_equal_brute_force_refits(case):
    # each H_(j) of both variants against S_(j)^-1 M_(j) S_(j)^-1 refitted
    # from scratch, in the metric of S_(j): S_(j) H_(j) S_(j) = M_(j).  At
    # small n the factors c, f_j and n(n+1)/(n-1)^2 of the closed form are
    # far from 1; predictors on a small integer grid repeat rows, so some
    # deletions hit the leverage singularity, which the walk skips
    n, p, seed, grid = case
    rng = np.random.default_rng(seed)
    x = rng.integers(-1, 3, (n, p)).astype(float) if grid else rng.standard_normal((n, p))
    y = np.sin(x[:, 0]) + 0.5 * rng.standard_normal(n)
    d = Dataset(y=y, x=x)
    h, degenerate = walk_hessians(d, _moments_or_reject(d))
    for j in np.flatnonzero(~degenerate):
        s, thirds = bf_loo(y, x, j)
        for got, want in zip(h[j], thirds):
            assert np.abs(s @ got @ s - want).max() <= 1e-9 * (1 + np.abs(want).max()), j


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the walk loses digits at low margins")
def test_loo_hessians_equal_brute_force_refits_on_a_grid_design_at_cond_5e4():
    # the one failure of the test above among 83,359 grid designs (seeds
    # 0-2780, p 2-6, n <= 30): cond(S) 5.6e4, rows 6 and 7 degenerate, and
    # the y-variant H_(j) of rows 0-5 and 8 (margins 0.14-0.56) misses the
    # 1e-9 bound by 1.4-2.5 times; a float refit is within 1.1e-11 of a
    # high-precision one, the walk off by up to 2.2e-9 of max |H_(j)|
    test_loo_hessians_equal_brute_force_refits.hypothesis.inner_test((9, 6, 617, True))
