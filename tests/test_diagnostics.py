import functools
import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phdinfluence import (
    Basis,
    Dataset,
    compute_moments,
    diagnostics,
    eris,
    fit_from_moments,
    fit_phd,
    hris,
    influence_report,
    mahalanobis,
    spearman,
    sris,
)
from phdinfluence.diagnostics import (
    LOO_BLOCK_BYTES,
    RANK_TIE_RTOL,
    WRITE_CHUNK,
    _LooWalk,
    loo_block_rows,
    write_records_csv,
    write_report_json,
)
from phdinfluence.errors import (
    DegenerateEigenvalue,
    DegenerateLeverage,
    DegenerateSpectrum,
    InvalidRank,
    UndefinedCorrelation,
)
from phdinfluence.linalg import project_out
from phdinfluence.simulation import SimSpec, simulate
from conftest import hitters_like, hitters_refit, loo_hessians, run_python
from oracles import (
    eris_matrix_route,
    mp_eigh,
    mp_eris,
    mp_refit,
    report_to_json_dict,
    sample_covariance,
)


# ----------------------------------------------------------------------
# brute-force oracle for the refit and hybrid measures: recompute the
# Hessian on the n-1 subset from scratch, read SRIS from its leading
# eigenvectors and HRIS from the deletion effect
# ----------------------------------------------------------------------

def bf_sris_hris(d, fit, j):
    mask = np.ones(d.n, bool)
    mask[j] = False
    ys, xs = d.y[mask], d.x[mask]
    m = len(ys)
    xc = xs - xs.mean(axis=0)
    yc = ys - ys.mean()
    s = xc.T @ xc / (m - 1)
    s_inv = np.linalg.inv(s)
    if fit.variant == "y":
        third = (xc.T * yc) @ xc / m
    else:
        resid = yc - xc @ (s_inv @ (xc.T @ yc / (m - 1)))
        third = (xc.T * resid) @ xc / m
    h_j = s_inv @ third @ s_inv
    w, v = np.linalg.eigh((h_j + h_j.T) / 2)
    leading = v[:, np.argsort(-np.abs(w))[: fit.k]]
    sris_vals = (d.n - 1) * np.linalg.norm(project_out(fit.gamma_hat, leading), axis=0)
    sif = (d.n - 1) * (fit.h - h_j)
    hris_vals = np.empty(fit.k)
    for k in range(fit.k):
        resid_vec = project_out(fit.gamma_hat, sif @ fit.gamma_hat.columns[:, k])
        hris_vals[k] = np.linalg.norm(resid_vec) / abs(fit.lambda_hat[k])
    return sris_vals, hris_vals


def cosine_data(seed, n=80, p=3, sigma=0.3):
    return simulate(SimSpec(n=n, p=p, seed=seed, sigma=sigma))


# ----------------------------------------------------------------------
# spearman
# ----------------------------------------------------------------------

def test_spearman_perfect_agreement():
    a = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    assert spearman(a, a) == pytest.approx(1.0)
    assert spearman(a, -a) == pytest.approx(-1.0)


def test_spearman_hand_computed_swap():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 2.0, 3.0, 5.0, 4.0])
    # 1 - 6 * sum(d^2) / (n (n^2 - 1)) with d = (0,0,0,1,-1)
    assert spearman(a, b) == pytest.approx(0.9, abs=1e-12)


def test_spearman_average_ranks_for_ties():
    a = np.array([1.0, 1.0, 2.0, 3.0])
    b = np.array([10.0, 20.0, 30.0, 40.0])
    ra = np.array([1.5, 1.5, 3.0, 4.0])
    rb = np.array([1.0, 2.0, 3.0, 4.0])
    ra_c, rb_c = ra - ra.mean(), rb - rb.mean()
    expected = float(ra_c @ rb_c / np.sqrt((ra_c @ ra_c) * (rb_c @ rb_c)))
    assert spearman(a, b) == pytest.approx(expected, abs=1e-12)


def test_spearman_rejects_constant_input():
    with pytest.raises(UndefinedCorrelation):
        spearman(np.ones(5), np.arange(5.0))
    with pytest.raises(UndefinedCorrelation):  # inf - inf is no test of constancy
        spearman(np.full(5, np.inf), np.arange(5.0))
    # a spread of 2 ulp is rounding, not an order to rank
    noise = np.array([1.968501968502952, 1.9685019685029521, 1.9685019685029523] * 2)
    with pytest.raises(UndefinedCorrelation):
        spearman(noise, np.arange(6.0))
    with pytest.raises(UndefinedCorrelation):
        spearman(np.arange(6.0), -noise)


def test_spearman_decides_constancy_without_units():
    # tiny and huge values with a real spread are ranked; one infinite entry
    # makes no finite vector constant
    assert spearman(1e-300 * np.arange(5.0), np.arange(5.0)) == pytest.approx(1.0)
    assert spearman(1e300 * np.arange(5.0), np.arange(5.0)) == pytest.approx(1.0)
    assert spearman([1.0, 1.0, 1.0, 1.0, np.inf], np.arange(5.0)) == pytest.approx(
        spearman([1.0, 1.0, 1.0, 1.0, 2.0], np.arange(5.0)))


def test_spearman_ties_rounding_noise_but_ranks_close_distinct_values():
    # two distinct SRIS values beside the (n - 1) cap, 8.8e-13 apart relative
    # to their size, keep their order; two Mahalanobis distances equal in
    # exact arithmetic, which rounding leaves 2 ulp apart, tie
    b = [1.0, 2.0, 0.0]
    near_cap = [1998.999977241863, 1998.9999772436147, 3.0]
    assert spearman(near_cap, b) == spearman([1.0, 2.0, 0.0], b)
    md = [2.0310096011589893, 2.0310096011589898, 0.0]
    assert spearman(md, b) == spearman([1.0, 1.0, 0.0], b)


def test_package_imports_and_ranks_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import phdinfluence\n"
        "r = phdinfluence.spearman([1.0, 1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])\n"
        "assert abs(r - 0.9486832980505138) < 1e-12, r\n"
    )
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr


# ----------------------------------------------------------------------
# SRIS
# ----------------------------------------------------------------------

def test_sris_twin_rows_agree():
    d0 = cosine_data(5, n=60)
    x = d0.x.copy()
    y = d0.y.copy()
    x[10] = x[40]
    y[10] = y[40]
    d = Dataset(y=y, x=x)
    fit = fit_phd(d, "y", 1)
    vals = sris(d, fit)
    assert vals[10, 0] == pytest.approx(vals[40, 0], abs=1e-9)


def test_sris_equal_within_duplicate_classes():
    # four distinct design points in the plane, each repeated ten times:
    # exchangeability makes the refits identical within a class, and losing
    # one copy in ten barely rotates the direction
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]])
    ys = np.array([0.1, 0.9, -0.4, 1.2])
    m = 10
    d = Dataset(y=np.repeat(ys, m), x=np.repeat(pts, m, axis=0))
    fit = fit_phd(d, "y", 1)
    vals = sris(d, fit)
    for cls in range(4):
        block = vals[m * cls : m * cls + m, 0]
        assert np.ptp(block) <= 1e-9
    assert (vals / (d.n - 1)).max() <= 0.1  # sines stay small


def test_sris_raises_at_the_leverage_singularity():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0],
                  [0.0, 1.0]])
    y = np.array([0.0, 1.0, 4.2, 8.8, 16.5, 2.0])
    d = Dataset(y=y, x=x)
    fit = fit_phd(d, "y", 1)
    with pytest.raises(DegenerateLeverage) as err:
        sris(d, fit)
    assert err.value.index == 5


def test_sris_invariant_to_rebasing_the_span():
    # the projection target is the span, not the individual directions, so
    # sign flips and in-span rotations of the basis change nothing
    d = cosine_data(61, n=50, p=3)
    fit = fit_phd(d, "y", 2)
    baseline = sris(d, fit)
    theta = 0.77
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    for cols in (-fit.gamma_hat.columns, fit.gamma_hat.columns @ rot):
        rebased = replace(fit, gamma_hat=Basis(cols))
        assert np.abs(sris(d, rebased) - baseline).max() <= 1e-9


def test_order_swap_is_flagged():
    # tiny duplicated design where deleting one copy of a class crosses the
    # leading eigenvalues of the refit
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]])
    ys = np.array([0.1, 0.9, -0.4, 1.2])
    d = Dataset(y=np.repeat(ys, 3), x=np.repeat(pts, 3, axis=0))
    report = influence_report(d, 1)
    assert flagged_with(report, "order_swap:y:1") == {6, 7, 8}


def test_eris_rejects_numerically_zero_eigenvalue():
    # three distinct design points in the plane: the OLS fit is exact, every
    # residual vanishes, and the residual-weighted Hessian is identically zero
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ys = np.array([0.0, 1.0, 2.0])
    d = Dataset(y=np.tile(ys, 4), x=np.tile(pts, (4, 1)))
    m = compute_moments(d)
    fit = fit_from_moments(m, "r", 1)
    assert abs(fit.lambda_hat[0]) < 1e-12
    with pytest.raises(DegenerateEigenvalue):
        eris(d, fit, m)


@pytest.mark.parametrize("y_scale, x_scale", [(1e-12, 1.0), (1e12, 1.0), (1.0, 1e-6), (1.0, 1e6)])
def test_zero_eigenvalue_decision_ignores_units(y_scale, x_scale):
    # the design above in other units: still an identically zero r-variant
    # Hessian, though its rounding-level eigenvalue is far from 1e-12
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ys = np.array([0.0, 1.0, 2.0])
    d = Dataset(y=y_scale * np.tile(ys, 4), x=x_scale * np.tile(pts, (4, 1)))
    m = compute_moments(d)
    fit = fit_from_moments(m, "r", 1)
    with pytest.raises(DegenerateEigenvalue):
        eris(d, fit, m)
    with pytest.raises(DegenerateEigenvalue):
        hris(d, fit, m)


def test_every_measure_rejects_a_numerically_zero_eigenvalue():
    # the design of test_eris_rejects_numerically_zero_eigenvalue: SRIS,
    # HRIS and the report pass the same gate as ERIS
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = Dataset(y=np.tile([0.0, 1.0, 2.0], 4), x=np.tile(pts, (4, 1)))
    m = compute_moments(d)
    fit = fit_from_moments(m, "r", 1)
    for measure in (lambda: sris(d, fit), lambda: hris(d, fit, m), lambda: eris(d, fit, m),
                    lambda: influence_report(d, 1)):
        with pytest.raises(DegenerateEigenvalue):
            measure()


def test_every_measure_rejects_rank_equal_to_p():
    # at k = p the span is the whole space and every measure rounding noise
    d = simulate(SimSpec(n=40, p=3, seed=1))
    m = compute_moments(d)
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 3)
        for measure in (lambda: sris(d, fit), lambda: hris(d, fit, m), lambda: eris(d, fit, m)):
            with pytest.raises(InvalidRank):
                measure()
    with pytest.raises(InvalidRank):
        influence_report(d, 3)


def test_every_measure_rejects_tied_eigenvalues():
    # eight equally spaced angles make the sample rotation-symmetric in
    # (x1, x2), and y = x1^2 + x2^2 + 0.3 x3 gives both variants a Hessian
    # whose two leading eigenvalues are equal
    angle, radius, x3 = np.meshgrid(2 * np.pi * np.arange(8) / 8 + 0.1,
                                    np.arange(1, 6) * 0.5, [-1.0, 0.3, 1.2], indexing="ij")
    x = np.column_stack([(radius * np.cos(angle)).ravel(), (radius * np.sin(angle)).ravel(),
                         x3.ravel()])
    d = Dataset(y=x[:, 0] ** 2 + x[:, 1] ** 2 + 0.3 * x[:, 2], x=x)
    m = compute_moments(d)
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 2)
        for measure in (lambda: sris(d, fit), lambda: hris(d, fit, m), lambda: eris(d, fit, m)):
            with pytest.raises(DegenerateSpectrum):
                measure()
    with pytest.raises(DegenerateSpectrum):
        influence_report(d, 2)
    # at k = 1 the cut falls between the tied pair: the span itself is arbitrary
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 1)
        for measure in (lambda: sris(d, fit), lambda: hris(d, fit, m), lambda: eris(d, fit, m)):
            with pytest.raises(DegenerateSpectrum, match="tie in magnitude"):
                measure()
    with pytest.raises(DegenerateSpectrum, match="tie in magnitude"):
        influence_report(d, 1)


def test_report_inverts_the_covariance_once(monkeypatch):
    # ERIS reads the MomentSet's S^-1; nothing inverts S a second time
    import phdinfluence.moments
    import phdinfluence.population

    calls = []
    for module in (phdinfluence.moments, phdinfluence.population):
        def counted(a, _inverse=module.spd_inverse):
            calls.append(a.shape)
            return _inverse(a)

        monkeypatch.setattr(module, "spd_inverse", counted)
    influence_report(simulate(SimSpec(n=60, p=4, seed=2)), 2)
    assert calls == [(4, 4)]


def test_sris_cross_flags_top_observation():
    d = cosine_data(99, n=263, p=4, sigma=0.5)
    m = compute_moments(d)
    fit = fit_from_moments(m, "y", 1)
    s_vals = sris(d, fit)[:, 0]
    e_vals = eris(d, fit, m)[:, 0]
    h_vals = hris(d, fit, m)[:, 0]
    top = int(np.argmax(s_vals))
    assert top in np.argsort(e_vals)[-5:]
    assert top in np.argsort(h_vals)[-5:]


# ----------------------------------------------------------------------
# ERIS
# ----------------------------------------------------------------------

def test_eris_zero_at_an_exactly_average_observation():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((19, 3))
    x = np.vstack([x, x.mean(axis=0)])
    y = rng.standard_normal(19)
    y = np.append(y, y.mean())
    d = Dataset(y=y, x=x)
    m = compute_moments(d)
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 2)
        vals = eris(d, fit, m)
        assert np.abs(vals[-1]).max() <= 1e-12


def test_eris_variants_close_when_response_covariance_vanishes():
    # quadratic first-coordinate response: cov(x, y) = 0 at the population,
    # so the two variants differ only through the sampling error of s_xy
    gaps = []
    for n in (200, 2000):
        d = simulate(SimSpec(n=n, p=3, seed=21, sigma=0.5, link="quadratic"))
        m = compute_moments(d)
        fit_y = fit_from_moments(m, "y", 1)
        fit_r = fit_from_moments(m, "r", 1)
        ey = eris(d, fit_y, m)[:, 0]
        er = eris(d, fit_r, m)[:, 0]
        gaps.append(np.median(np.abs(ey - er) / np.maximum(ey, 1e-8)))
    assert gaps[1] < gaps[0]


def test_eris_two_routes_agree(rng):
    d = cosine_data(13, n=60, p=4)
    m = compute_moments(d)
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 2)
        a = eris(d, fit, m)
        b = eris_matrix_route(d, fit, m)
        assert np.abs(a - b).max() <= 1e-9


# ----------------------------------------------------------------------
# HRIS
# ----------------------------------------------------------------------

def test_hris_matches_brute_force_refit():
    d = cosine_data(31, n=40, p=3)
    m = compute_moments(d)
    for variant in ("y", "r"):
        fit = fit_from_moments(m, variant, 2)
        got = {"sris": sris(d, fit), "hris": hris(d, fit, m)}
        for j in range(d.n):
            expected = dict(zip(("sris", "hris"), bf_sris_hris(d, fit, j)))
            for measure, vals in got.items():
                want = expected[measure]
                rel = np.abs(vals[j] - want) / np.maximum(np.abs(want), 1e-12)
                assert rel.max() <= 1e-9, (variant, measure, j)


def test_hris_makes_no_eigendecomposition(monkeypatch):
    # over three blocks, hris reads every row's H_(j) with no eigh call and
    # gives the HRIS of the walk's one loop, which runs SRIS beside it
    d = cosine_data(31, n=2 * loo_block_rows(16) + 5, p=16)
    m = compute_moments(d)
    fits = [fit_from_moments(m, v, 2) for v in ("y", "r")]
    want = [_LooWalk(m, (fit,)).measures()[0][:, 0] for fit in fits]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or eigh(*a, **kw))
    for fit, w in zip(fits, want):
        vals = hris(d, fit, m)
        assert vals.shape == (d.n, 2) and np.isfinite(vals).all()
        assert np.array_equal(vals, w)
    assert calls == []


def test_hris_small_at_an_exactly_average_observation():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((29, 3))
    x = np.vstack([x, x.mean(axis=0)])
    y = rng.standard_normal(29)
    y = np.append(y, y.mean())
    d = Dataset(y=y, x=x)
    m = compute_moments(d)
    fit = fit_from_moments(m, "y", 1)
    h_vals = hris(d, fit, m)[:, 0]
    s_vals = sris(d, fit)[:, 0]
    e_vals = eris(d, fit, m)[:, 0]
    # the mean-shift downdate leaves a small but nonzero deletion effect,
    # bounded by the typical plug-in approximation error
    assert h_vals[-1] > 0
    assert h_vals[-1] <= np.median(np.abs(e_vals - s_vals))


# ----------------------------------------------------------------------
# invariances shared by all three diagnostics
# ----------------------------------------------------------------------

def test_translation_invariance():
    d = cosine_data(17, n=50)
    shift_x = np.array([5.0, -2.0, 11.0])
    d2 = Dataset(y=d.y + 4.0, x=d.x + shift_x)
    m1, m2 = compute_moments(d), compute_moments(d2)
    for variant in ("y", "r"):
        f1 = fit_from_moments(m1, variant, 1)
        f2 = fit_from_moments(m2, variant, 1)
        assert np.abs(sris(d, f1) - sris(d2, f2)).max() <= 1e-9
        assert np.abs(eris(d, f1, m1) - eris(d2, f2, m2)).max() <= 1e-9
        assert np.abs(hris(d, f1, m1) - hris(d2, f2, m2)).max() <= 1e-9
    assert np.abs(mahalanobis(m1) - mahalanobis(m2)).max() <= 1e-9


def test_rotation_invariance_of_subspace_diagnostics():
    d = cosine_data(23, n=50)
    rng = np.random.default_rng(99)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    d2 = Dataset(y=d.y, x=d.x @ q.T)
    m1, m2 = compute_moments(d), compute_moments(d2)
    f1 = fit_from_moments(m1, "y", 1)
    f2 = fit_from_moments(m2, "y", 1)
    assert np.abs(sris(d, f1) - sris(d2, f2)).max() <= 1e-9
    assert np.abs(hris(d, f1, m1) - hris(d2, f2, m2)).max() <= 1e-9
    assert np.abs(eris(d, f1, m1) - eris(d2, f2, m2)).max() <= 1e-9


def test_plug_in_approaches_refit_with_sample_size():
    gaps = []
    for n in (100, 1000):
        d = cosine_data(7, n=n, p=3, sigma=0.5)
        m = compute_moments(d)
        fit = fit_from_moments(m, "y", 1)
        s_vals = sris(d, fit)[:, 0]
        e_vals = eris(d, fit, m)[:, 0]
        gaps.append(np.median(np.abs(s_vals - e_vals)) / (n - 1))
    assert gaps[1] < gaps[0]


# ----------------------------------------------------------------------
# the assembled report
# ----------------------------------------------------------------------

def flagged_with(report, flag: str) -> set[int]:
    """Observations whose record carries the flag."""
    return {j for j, flags in zip(report.j.tolist(), report.flags) if flag in flags}


def test_report_on_independent_noise_completes():
    d = simulate(SimSpec(n=80, p=3, seed=44, sigma=1.0, beta=np.zeros(3),
                         link="linear"))
    report = influence_report(d, 2)
    assert sorted(report.j.tolist()) == list(range(80))
    avgs = report.column("sris", "y").mean(axis=1).tolist()
    assert avgs == sorted(avgs)
    for variant in ("y", "r"):
        for target in ("eris", "hris", "md"):
            row = report.correlation(variant, target)
            assert len(row) == 3  # two directions plus the average
            assert all(-1.0 <= v <= 1.0 for v in row)


def test_report_flags_leverage_singularity_without_aborting():
    # five design points on a line plus one off it: deleting the off-line
    # point collapses the leave-one-out covariance onto the line
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0],
                  [0.0, 1.0]])
    y = np.array([0.0, 1.0, 4.2, 8.8, 16.5, 2.0])
    d = Dataset(y=y, x=x)
    report = influence_report(d, 1)
    assert flagged_with(report, "degenerate_leverage") == {5}
    flagged = report.j == 5
    for measure in ("sris", "hris"):
        assert np.isnan(report.column(measure, "y")[flagged]).all()
        assert np.isfinite(report.column(measure, "y")[~flagged]).all()
    assert np.isfinite(report.column("eris", "y")[flagged]).all()
    for target in ("eris", "hris", "md"):
        val = report.correlation("y", target)[-1]
        assert -1.0 <= val <= 1.0


def test_leverage_flag_iff_refit_and_hybrid_are_undefined():
    # a predictor that is 1e-6 noise except at row 7: deleting row 7 leaves
    # a covariance singular to about 1e-11 of its scale, near enough to the
    # leverage singularity that neither measure has a meaningful value
    d0 = cosine_data(0, n=60, p=3)
    rng = np.random.default_rng(0)
    x = d0.x.copy()
    x[:, 2] = 1e-6 * rng.standard_normal(60)
    x[7, 2] = 1.0
    report = influence_report(Dataset(y=d0.y, x=x), 1)
    values = np.concatenate([report.column(t, v) for t in ("sris", "hris") for v in "yr"], axis=1)
    flagged = np.array(["degenerate_leverage" in flags for flags in report.flags])
    assert np.isnan(values[flagged]).all()
    assert np.isfinite(values[~flagged]).all()
    assert set(report.j[flagged].tolist()) == {7}


def _spiked(n, spike, p=16):
    # a p-predictor cosine sample whose last predictor is 1e-6 noise except
    # at the spiked row, which sits at the leverage singularity
    d0 = cosine_data(0, n=n, p=p)
    x = d0.x.copy()
    x[:, p - 1] = 1e-6 * np.random.default_rng(0).standard_normal(n)
    x[spike, p - 1] = 1.0
    return Dataset(y=d0.y, x=x)


def _check_spiked_report_against_refits(d, spike):
    report = influence_report(d, 1)
    assert flagged_with(report, "degenerate_leverage") == {spike}
    at = np.argsort(report.j)  # at[j] is the report row of observation j
    for v, fit in zip(("y", "r"), report.fits):
        got_sris, got_hris = report.column("sris", v)[at], report.column("hris", v)[at]
        assert np.isnan(got_sris[spike]).all() and np.isnan(got_hris[spike]).all()
        for j in range(d.n):
            if j == spike:
                continue
            for measure, got, want in zip(("sris", "hris"), (got_sris[j], got_hris[j]),
                                          bf_sris_hris(d, fit, j)):
                rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
                assert rel.max() <= 1e-9, (v, measure, j)
    return report


@pytest.mark.parametrize("side", ["last_of_first_block", "first_of_second_block"])
def test_leverage_flag_at_a_block_boundary(side):
    # the construction of the test above, at p = 16 where a block holds
    # loo_block_rows(16) rows, with the spiked row on either side of the
    # first block boundary and a short third block
    rows = loo_block_rows(16)
    spike = rows - 1 if side == "last_of_first_block" else rows
    d = _spiked(2 * rows + 3, spike)
    report = _check_spiked_report_against_refits(d, spike)
    with pytest.raises(DegenerateLeverage) as err:
        hris(d, report.fits[0], compute_moments(d))
    assert err.value.index == spike


def test_sris_and_hris_raise_before_building_any_stack(monkeypatch):
    # the spiked row sits in the third and last block: the walk decides the
    # leverage singularity for every row before it builds the first block,
    # so no leave-one-out stack is built or eigendecomposed
    spike = 2 * loo_block_rows(16) + 1
    d = _spiked(2 * loo_block_rows(16) + 3, spike)
    m = compute_moments(d)
    fit = fit_from_moments(m, "y", 1)
    built, shapes = [], []
    blocks, eigh = diagnostics._LooWalk.blocks, np.linalg.eigh

    def spy_blocks(walk):
        for rows, h in blocks(walk):
            built.append(rows.size)
            yield rows, h

    monkeypatch.setattr(diagnostics._LooWalk, "blocks", spy_blocks)
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: shapes.append(np.shape(a)) or eigh(a, *args, **kw)
    )
    for measure in (lambda: sris(d, fit), lambda: hris(d, fit, m)):
        with pytest.raises(DegenerateLeverage) as err:
            measure()
        assert err.value.index == spike
    assert built == []
    assert all(len(s) == 2 for s in shapes), shapes  # S alone, in sris's compute_moments


@pytest.mark.parametrize("design", ["planted", "hitters", "normal"])
def test_loo_margin_is_the_whitened_loo_covariance_eigenvalue_ratio(design):
    # the margin of row j is lambda_min / lambda_max of S^-1 S_(j), the
    # whitened covariance of the sample without row j; the planted outlier
    # has margin 1.7e-3 at row 0, where the two agree to 6.1e-13
    if design == "planted":
        d = _planted_outlier(100)
    elif design == "hitters":
        d = hitters_like()
    else:
        rng = np.random.default_rng(4)
        d = Dataset(y=rng.standard_normal(50), x=rng.standard_normal((50, 4)))
    m = compute_moments(d)
    walk = _LooWalk(m, [fit_from_moments(m, "y", 2)])
    for j in range(d.n):
        s_j = np.cov(np.delete(d.x, j, axis=0), rowvar=False)
        lam = np.linalg.eigvals(np.linalg.solve(sample_covariance(d), s_j)).real
        assert abs(walk.margin[j] - lam.min() / lam.max()) <= 1e-12, j


def test_residual_measures_match_refits_on_a_larger_spiked_sample():
    # the same construction at a fixed n = 259 with the spike at row 127:
    # n T_beta in the residual-weighted downdate amplifies any error of the
    # leave-one-out OLS slope S_(j)^-1 s_xy,(j), so the r-variant HRIS of
    # row 243 (3e-11 from the refit) watches the accuracy of S_(j)^-1
    _check_spiked_report_against_refits(_spiked(259, 127), 127)


#: a 16-predictor sample that crosses the first loo_block_rows boundary
PERMUTED_N = loo_block_rows(16) + 8


def _assert_same_records(got, want, perm):
    """The record of observation i in ``got`` matches the record of
    observation perm[i] in ``want``: flags exactly, values at rtol 1e-9."""
    g = np.argsort(got.j)
    w = np.argsort(want.j)[np.asarray(perm)]
    assert [got.flags[i] for i in g] == [want.flags[i] for i in w]
    np.testing.assert_allclose(got.md[g], want.md[w], rtol=1e-9, atol=0)
    np.testing.assert_allclose(got.values[g], want.values[w], rtol=1e-9, atol=0)


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(PERMUTED_N)))
def test_row_permutation_permutes_the_report(perm):
    d = cosine_data(9, n=PERMUTED_N, p=16)
    perm = np.array(perm)
    base = influence_report(d, 2)
    moved = influence_report(Dataset(y=d.y[perm], x=d.x[perm]), 2)
    _assert_same_records(moved, base, perm)
    for v in ("y", "r"):
        for target in ("eris", "hris", "md"):
            np.testing.assert_allclose(
                moved.correlation(v, target),
                base.correlation(v, target),
                rtol=1e-9,
                atol=0,
            )


@functools.cache
def _invariance_base():
    d = cosine_data(9, n=PERMUTED_N, p=16)
    return d, influence_report(d, 2)


def _assert_invariant(transform):
    d, base = _invariance_base()
    y, x = transform(d.y, d.x)
    _assert_same_records(influence_report(Dataset(y=y, x=x), 2), base, range(d.n))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=16))
def test_translating_x_leaves_the_report_unchanged(shift):
    _assert_invariant(lambda y, x: (y, x + np.array(shift)))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rotating_x_leaves_the_report_unchanged(seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((16, 16)))
    _assert_invariant(lambda y, x: (y, x @ q))


# rescaling y or x by 10^u changes the units of every fitted eigenvalue; the
# degeneracy decisions must not see it


@settings(max_examples=10, deadline=None)
@given(st.floats(-12.0, 12.0))
@example(-12.0)
@example(12.0)
def test_scaling_y_leaves_the_report_unchanged(u):
    c = 10.0**u
    _assert_invariant(lambda y, x: (c * y, x))


@settings(max_examples=10, deadline=None)
@given(st.floats(-12.0, 12.0))
@example(-12.0)
@example(12.0)
def test_scaling_x_leaves_the_report_unchanged(u):
    c = 10.0**u
    _assert_invariant(lambda y, x: (y, c * x))


def _centred_factorial():
    # a {0.3, 0.9} replicated 2^4 factorial plus two centre rows: md is 0 at
    # the centre and, on the factorial rows, equal in exact arithmetic but
    # spread over two values 1 ulp apart by rounding
    x = np.array(list(itertools.product((0.3, 0.9), repeat=4)) * 2 + [[0.6] * 4] * 2)
    noise = np.random.default_rng(0).standard_normal(len(x))
    y = np.cos(x[:, 0] + 0.3 * x[:, 1]) + 0.5 * x[:, 2] * x[:, 3] + 0.1 * noise
    return Dataset(y=y, x=x), 2


def test_report_correlations_match_recomputation():
    # every (variant, target, direction or average) entry against spearman()
    # on the rows where both vectors are finite, on a clean design, on one
    # whose SRIS and HRIS hold NaN at the leverage singularity and on one
    # whose md is tied by rounding
    designs = (((cosine_data(55, n=60, p=3), 2), False), (_spiked_rank_three(), True),
               (_centred_factorial(), False))
    for (d, k), spiked in designs:
        report = influence_report(d, k)
        assert spiked == bool(np.isnan(report.column("sris", "y")).any())
        assert spiked == bool(np.isnan(report.column("hris", "r")).any())
        for v in ("y", "r"):
            sris_mat = report.column("sris", v)
            targets = {
                "eris": report.column("eris", v),
                "hris": report.column("hris", v),
                "md": np.repeat(report.md[:, None], k, axis=1),
            }
            for t, mat in targets.items():
                # entry i is direction i + 1; entry k is the direction average
                pairs = [(sris_mat[:, i], mat[:, i]) for i in range(k)]
                pairs.append((sris_mat.mean(axis=1), mat.mean(axis=1)))
                for i, (a, b) in enumerate(pairs):
                    keep = np.isfinite(a) & np.isfinite(b)
                    want = spearman(a[keep], b[keep])
                    assert report.correlation(v, t)[i] == want, (v, t, i)


def test_md_tied_by_rounding_gives_both_variants_one_md_correlation():
    # ranked as two levels, centre and factorial, md correlates alike with
    # both variants' SRIS; ranked in rounding order it reads 0.293 (y) and
    # -0.073 (r)
    report = influence_report(*_centred_factorial())
    md = report.md
    levels = [md[md < 1.0], md[md > 1.0]]  # centre rows, factorial rows
    assert [level.size for level in levels] == [2, 32]
    assert levels[0].max() <= 1e-15
    for level in levels:
        assert level.max() - level.min() <= RANK_TIE_RTOL * level.max()
    y_average, r_average = (report.correlation(v, "md")[-1] for v in ("y", "r"))
    assert y_average == r_average
    assert round(y_average, 3) == 0.408


# ----------------------------------------------------------------------
# report.json: the streamed writer against the json module
# ----------------------------------------------------------------------

def _order_swap_design():
    # the duplicated design of test_order_swap_is_flagged: one flag per record
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.5]])
    ys = np.array([0.1, 0.9, -0.4, 1.2])
    return Dataset(y=np.repeat(ys, 3), x=np.repeat(pts, 3, axis=0)), 1


def _line_design():
    # the design of test_report_flags_leverage_singularity_without_aborting
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0],
                  [0.0, 1.0]])
    return Dataset(y=np.array([0.0, 1.0, 4.2, 8.8, 16.5, 2.0]), x=x), 1


def _spiked_rank_three():
    # at k = 3 several records carry several order_swap flags; the last
    # predictor is 1e-6 noise except at row 4, which sits at the leverage
    # singularity
    d0 = simulate(SimSpec(n=40, p=4, seed=0, sigma=0.5))
    x = d0.x.copy()
    x[:, 3] = 1e-6 * np.random.default_rng(0).standard_normal(40)
    x[4, 3] = 1.0
    return Dataset(y=d0.y, x=x), 3


def _spiked_across_chunks():
    # more records than one write chunk, and not a whole number of chunks:
    # row 4 sits at the leverage singularity and a dozen records carry
    # order_swap flags
    n = 2 * WRITE_CHUNK + 2
    d0 = simulate(SimSpec(n=n, p=4, seed=1, sigma=0.5))
    x = d0.x.copy()
    x[:, 3] = 1e-6 * np.random.default_rng(1).standard_normal(n)
    x[4, 3] = 1.0
    return Dataset(y=d0.y, x=x), 3


def _assert_spans_chunks_with_both_flags(report):
    assert report.n > WRITE_CHUNK and report.n % WRITE_CHUNK
    flags = ";".join(";".join(f) for f in report.flags)
    assert "degenerate_leverage" in flags and "order_swap" in flags


@pytest.mark.parametrize(
    "design", [_order_swap_design, _line_design, _spiked_rank_three, _spiked_across_chunks]
)
def test_report_json_is_the_json_module_layout(design, tmp_path):
    d, k = design()
    report = influence_report(d, k)
    if design is _spiked_across_chunks:
        _assert_spans_chunks_with_both_flags(report)
    flags = report.flags
    if design is _order_swap_design:
        assert any("order_swap:y:1" in f for f in flags)
    if design is _spiked_rank_three:
        assert max(len(f) for f in flags) >= 3
    if design is not _order_swap_design:
        assert any("degenerate_leverage" in f for f in flags)
    path = tmp_path / "report.json"
    write_report_json(path, report)
    want = json.dumps(report_to_json_dict(report), indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
    assert (b"null" in path.read_bytes()) == (design is not _order_swap_design)


def test_a_numpy_integer_rank_is_written_as_a_json_integer(tmp_path):
    report = influence_report(cosine_data(1, n=20), np.int64(1))
    write_report_json(tmp_path / "report.json", report)
    doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert [doc["k"], doc["fits"]["y"]["k"], doc["fits"]["r"]["k"]] == [1, 1, 1]


def test_report_json_rejects_a_non_finite_distance(tmp_path):
    report = influence_report(cosine_data(1, n=20), 1)
    md = report.md.copy()
    md[3] = np.nan
    report = replace(report, md=md)
    with pytest.raises(ValueError):
        json.dumps(report_to_json_dict(report), allow_nan=False)
    with pytest.raises(ValueError):
        write_report_json(tmp_path / "report.json", report)


# ----------------------------------------------------------------------
# records.csv and the report's arrays
# ----------------------------------------------------------------------

def records_csv_reference(report):
    """records.csv written cell by cell with ``.17g`` f-strings."""
    lines = ["j,variant,direction,sris,eris,hris,md,flags\n"]
    for r, (j, md, flags) in enumerate(zip(report.j.tolist(), report.md.tolist(), report.flags)):
        flags = ";".join(flags)
        for v in ("y", "r"):
            sris_, eris_, hris_ = (report.column(t, v)[r] for t in ("sris", "eris", "hris"))
            for i in range(report.k):
                lines.append(
                    f"{j},{v},{i + 1},"
                    f"{sris_[i]:.17g},{eris_[i]:.17g},"
                    f"{hris_[i]:.17g},{md:.17g},{flags}\n"
                )
    return "".join(lines)


@pytest.mark.parametrize("design", [_order_swap_design, _spiked_rank_three, _spiked_across_chunks])
def test_records_csv_is_the_per_cell_layout(design, tmp_path):
    d, k = design()
    report = influence_report(d, k)
    if design is _spiked_across_chunks:
        _assert_spans_chunks_with_both_flags(report)
    flags = ";".join(";".join(f) for f in report.flags)
    assert ("order_swap" in flags, "degenerate_leverage" in flags) == (
        (True, False) if design is _order_swap_design else (True, True)
    )
    path = tmp_path / "records.csv"
    write_records_csv(path, report)
    want = records_csv_reference(report)
    assert path.read_bytes() == want.encode("utf-8")
    assert (",nan," in want) == (design is not _order_swap_design)


def walk_table(m, fits):
    """(sris, hris, swapped, degenerate) of every observation, read from the
    leave-one-out walk over ``fits`` (a sequence of fits of one rank): n x K
    arrays keyed by the fits' variants, NaN (sris, hris)
    or False (swapped) at the leverage singularity, and the n-vector of
    degenerate rows.  Checks that the walk's blocks visit exactly its regular
    rows once, in order, each with one Hessian per variant."""
    walk = _LooWalk(m, fits)
    visited = []
    for rows, h in walk.blocks():
        visited += rows.tolist()
        assert h.shape == (rows.size, len(fits), m.p, m.p)
    assert visited == np.flatnonzero(~walk.degenerate).tolist()
    hris_, sris_, swapped = walk.measures()
    by_variant = [{f.variant: a[:, i] for i, f in enumerate(fits)}
                  for a in (sris_, hris_, swapped)]
    return (*by_variant, walk.degenerate)


@pytest.mark.parametrize("design", [_order_swap_design, _spiked_rank_three])
def test_report_arrays_are_built_from_the_loo_walk(design):
    d, k = design()
    report = influence_report(d, k)
    m = compute_moments(d)
    sris_, hris_, swapped, degenerate = walk_table(m, report.fits)
    measures = {
        "sris": sris_,
        "eris": {fit.variant: eris(d, fit, m) for fit in report.fits},
        "hris": hris_,
    }
    md = mahalanobis(m)
    avg = sris_["y"].mean(axis=1)
    order = sorted(range(d.n), key=lambda j: (np.isnan(avg[j]), np.nan_to_num(avg[j]), j))
    assert report.j.tolist() == order
    for r, j in enumerate(order):
        want_flags = ["degenerate_leverage"] if degenerate[j] else []
        for v in ("y", "r"):
            want_flags += [f"order_swap:{v}:{i + 1}" for i in np.flatnonzero(swapped[v][j])]
        assert report.flags[r] == tuple(want_flags)
        assert report.md[r] == md[j]
        for measure, by_variant in measures.items():
            for v in ("y", "r"):
                got = report.column(measure, v)[r]
                assert np.array_equal(got, by_variant[v][j], equal_nan=True)


@pytest.mark.parametrize("design", [_order_swap_design, _spiked_rank_three, _spiked_across_chunks])
def test_report_pairs_each_variant_with_its_own_fit(design):
    # the report walks both variants at once; each variant's SRIS, HRIS and
    # order_swap flags must be those of a walk over that variant alone, the
    # walk sris() and hris() make, so a Hessian paired with the other
    # variant's Gamma-hat, |lambda-hat| or H would show
    d, k = design()
    report = influence_report(d, k)
    m = compute_moments(d)
    at = np.argsort(report.j)  # at[j] is the report row of observation j
    assert not np.allclose(report.column("sris", "y"), report.column("sris", "r"), equal_nan=True)
    for v, fit in zip(("y", "r"), report.fits):
        alone_sris, alone_hris, alone_swapped, degenerate = walk_table(m, (fit,))
        got_sris, got_hris = report.column("sris", v)[at], report.column("hris", v)[at]
        assert np.array_equal(got_sris, alone_sris[v], equal_nan=True)
        assert np.array_equal(got_hris, alone_hris[v], equal_nan=True)
        for j in range(d.n):
            own = [f for f in report.flags[at[j]] if f.startswith(f"order_swap:{v}:")]
            assert own == [f"order_swap:{v}:{i + 1}" for i in np.flatnonzero(alone_swapped[v][j])]
        if not degenerate.any():  # sris() and hris() raise at the leverage singularity
            assert np.array_equal(got_sris, sris(d, fit))
            assert np.array_equal(got_hris, hris(d, fit, m))


@pytest.mark.parametrize("design", [_order_swap_design, _spiked_rank_three])
def test_report_hris_is_the_deletion_effect_on_the_loo_hessians(design):
    # HRIS = (n-1) ||P (H - H_(j)) Gamma|| / |lambda|, P = I - Gamma Gamma',
    # with H_(j) the walk's own leave-one-out Hessian
    d, k = design()
    report = influence_report(d, k)
    m = compute_moments(d)
    h, degenerate = loo_hessians(m, report.fits)
    at = np.argsort(report.j)  # at[j] is the report row of observation j
    for i, (v, fit) in enumerate(zip(("y", "r"), report.fits)):
        sif = (d.n - 1) * (fit.h - h[~degenerate, i])
        want = np.linalg.norm(project_out(fit.gamma_hat, sif @ fit.gamma_hat.columns),
                              axis=-2) / np.abs(fit.lambda_hat)
        got = report.column("hris", v)[at]
        assert np.isnan(got[degenerate]).all()
        got = got[~degenerate]
        assert (np.abs(got - want).max(axis=0) <= 1e-12 * np.abs(want).max(axis=0)).all(), v


@pytest.mark.parametrize("design", [lambda: (cosine_data(3, n=60, p=4), 2), _spiked_rank_three])
def test_report_makes_one_eigh_call_per_regular_observation(design, monkeypatch):
    # S once and each variant's fit once, then one call per regular
    # observation on the (2, p, p) stack of its two leave-one-out Hessians;
    # rows at the leverage singularity make none
    d, k = design()
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh", lambda a, *args, **kw: shapes.append(np.shape(a)) or eigh(a, *args, **kw)
    )
    report = influence_report(d, k)
    regular = sum("degenerate_leverage" not in f for f in report.flags)
    assert regular < d.n if design is _spiked_rank_three else regular == d.n
    assert len(shapes) == regular + 3
    assert shapes.count((2, d.p, d.p)) == regular
    assert sum(int(np.prod(s[:-2])) for s in shapes) == 2 * regular + 3


def test_report_memory_grows_by_less_than_one_hessian_stack_per_2000_rows():
    # the leave-one-out walk holds O(p^2) per row of one block, so doubling n
    # adds only the report's O(n K) arrays and the O(n p) data, far less
    # than one (2000, 16, 16) float64 stack (4000 KiB) of whole-sample
    # p x p intermediates
    influence_report(cosine_data(1, n=100, p=16), 2)  # imports and caches outside the trace
    peaks = []
    for n in (2000, 4000):
        d = cosine_data(5, n=n, p=16)
        tracemalloc.start()
        try:
            influence_report(d, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2000 * 16 * 16 * 8, peaks


@pytest.mark.parametrize("design", ["hitters", "spiked"])
def test_the_block_budget_does_not_change_the_report(design, monkeypatch):
    # 64, 128 and 256 KiB cut hitters_like() (p = 16) into 9, 5 and 3 blocks
    # and the spiked 300 x 6 sample into 2, 1 and 1, with its degenerate row
    # in the second block at 64 KiB.  Blocks of one row are not among them:
    # a one-row stack takes another BLAS path and moves the values at rounding
    d = hitters_like() if design == "hitters" else _spiked(300, 250, p=6)
    reports = []
    for kib in (64, 128, 256):
        monkeypatch.setattr(diagnostics, "LOO_BLOCK_BYTES", kib * 1024)
        reports.append(influence_report(d, 2))
    base = reports[0]
    assert flagged_with(base, "degenerate_leverage") == ({250} if design == "spiked" else set())
    for report in reports[1:]:
        assert np.array_equal(report.values, base.values, equal_nan=True)
        assert np.array_equal(report.j, base.j)
        assert report.flags == base.flags


def test_the_block_budget_bounds_the_report_memory():
    # at p = 16 a block of 64 rows dwarfs the O(n p) data and O(n K) results
    # of a 128-row report, so its peak is the walk's.  One (rows, 2, p, p)
    # stack of both variants' Hessians is two budgets.  The walk holds two
    # and a half such stacks at once (the block's Hessians, one scratch
    # stack, the r variant's G(u) at half a stack) and drops each block
    # before it builds the next; every outer or scalar-times-matrix product
    # is an einsum or a length-1 matmul written into a stack, so numpy adds
    # no broadcast buffer.  Two more budgets cover the block's per-row terms,
    # the walk's per-row leverage and the rest of the report
    influence_report(cosine_data(1, n=100, p=16), 2)  # imports and caches outside the trace
    d = cosine_data(5, n=128, p=16)
    assert loo_block_rows(d.p) < d.n
    tracemalloc.start()
    try:
        influence_report(d, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (5 + 2) * LOO_BLOCK_BYTES, peak / LOO_BLOCK_BYTES


# ----------------------------------------------------------------------
# accuracy on mixed-unit predictors, against 40-digit references
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["y", "r"])
def test_eris_matches_a_high_precision_closed_form_on_mixed_units(variant):
    # the alpha display through an accurate S^-1 keeps ERIS at rounding on
    # this input (cond(S) about 4.5e6); through an eigenbasis inverse of S
    # alone it is off by 1.4e-10 of the row's largest value
    d = hitters_like()
    m = compute_moments(d)
    fit = fit_from_moments(m, variant, 2)
    rows = [0, 33, 40, 114, 231, 262]
    want = mp_eris(d, fit, m, rows)
    got = eris(d, fit, m)[rows]
    assert (np.abs(got - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1)).all()


@pytest.mark.parametrize("variant", ["y", "r"])
def test_sris_and_hris_match_a_high_precision_refit_on_mixed_units(variant):
    # SRIS from the 40-digit eigenvectors of the refitted H_(j), HRIS from
    # the 40-digit H and H_(j), both on the fit's own Gamma and lambda
    d = hitters_like()
    m = compute_moments(d)
    fit = fit_from_moments(m, variant, 2)
    g = fit.gamma_hat.columns
    h = getattr(hitters_refit(None), f"h_{variant}")
    walk_sris, walk_hris, _, _ = walk_table(m, (fit,))
    sris_, hris_ = sris(d, fit), hris(d, fit, m)
    for j in (33, 231):
        h_j = getattr(hitters_refit(j), f"h_{variant}")
        leading = mp_eigh(h_j)[1][:, : fit.k]
        want_sris = (d.n - 1) * np.linalg.norm(project_out(fit.gamma_hat, leading), axis=0)
        sif = (d.n - 1) * (h - h_j)
        want_hris = np.linalg.norm(project_out(fit.gamma_hat, sif @ g), axis=0) / np.abs(
            fit.lambda_hat
        )
        for got, want in ((walk_sris[variant][j], want_sris), (sris_[j], want_sris),
                          (walk_hris[variant][j], want_hris), (hris_[j], want_hris)):
            assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), j


def _planted_outlier(t):
    # row 0 lies t out along one direction and is outlying in y as well; its
    # whitened leverage margin falls from 1.4e-1 at t = 10 to 1.7e-5 at
    # t = 1000 and 1.9e-6 at t = 3000, far above LEVERAGE_RTOL, and is 1.7e-7
    # at t = 10000, where the float margin comes out negative and flags the
    # row
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 5))
    x[0] = t * np.array([1.0, 0.5, -0.3, 0.2, 0.1])
    y = np.cos(x[:, 0] / t) + 0.3 * x[:, 1] ** 2 + 0.1 * rng.standard_normal(30)
    return Dataset(y=y, x=x)


_CANCELS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the ROADMAP item on accurate fits at gross outliers: the closed form of H_(j) "
    "loses digits faster than margin^-3",
)


@pytest.mark.parametrize(
    "t", [10, 40, *(pytest.param(t, marks=_CANCELS) for t in (100, 400, 1000, 3000, 10000))]
)
def test_sris_and_hris_match_a_high_precision_refit_at_a_planted_outlier(t):
    # the references are built as in the mixed-units test above: 40-digit
    # H and H_(j) on the float fit's own Gamma and lambda
    d = _planted_outlier(t)
    report = influence_report(d, 2)
    row = int(np.flatnonzero(report.j == 0)[0])
    full, loo = mp_refit(d, None), mp_refit(d, 0)
    for v, fit in zip(("y", "r"), report.fits):
        g = fit.gamma_hat.columns
        h, h_j = getattr(full, f"h_{v}"), getattr(loo, f"h_{v}")
        leading = mp_eigh(h_j)[1][:, : fit.k]
        want_sris = (d.n - 1) * np.linalg.norm(project_out(fit.gamma_hat, leading), axis=0)
        sif = (d.n - 1) * (h - h_j)
        want_hris = np.linalg.norm(project_out(fit.gamma_hat, sif @ g), axis=0) / np.abs(
            fit.lambda_hat
        )
        for measure, want in (("sris", want_sris), ("hris", want_hris)):
            got = report.column(measure, v)[row]
            assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max(), (v, measure)
