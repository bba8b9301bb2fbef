"""Metamorphic gate on the influence report.

The pHd subspace, and so every influence value, does not change when a
constant is added to x or y, when the rows are reordered, or when the
predictors are reordered and their signs flipped.  On designs whose values lie
on a 2^-10 grid every such change is exact in float64, so the report of the
changed data must equal the original's within rounding: every value within
TOL of its column maximum, with flags and record order identical.
"""

import functools

import numpy as np
import pytest

from phdinfluence import Dataset, influence_report
from phdinfluence.simulation import SimSpec, simulate
from conftest import hitters_like

#: largest change of a report value, relative to its column maximum
TOL = 1e-13

#: exponents k of the offsets 2^k added to x or y; on a 2^-10 grid the largest
#: design value below 2^14 keeps x + 2^40 within float64's 53 bits
OFFSETS = (10, 20, 30, 40)


def _on_grid(d: Dataset) -> Dataset:
    """``d`` rounded to multiples of 2^-10."""
    return Dataset(y=np.round(d.y * 1024) / 1024, x=np.round(d.x * 1024) / 1024)


DESIGNS = {
    "cosine-200x6": (lambda: simulate(SimSpec(n=200, p=6, seed=3, sigma=0.5)), 2),
    "hitters-shaped": (hitters_like, 2),
    "cosine-40x4": (lambda: simulate(SimSpec(n=40, p=4, seed=1, sigma=0.5)), 1),
}


@functools.cache
def _design(name: str):
    """(gridded dataset, rank, its report) of one design."""
    make, k = DESIGNS[name]
    d = _on_grid(make())
    return d, k, influence_report(d, k)


CHANGES = (*(f"{v}+2^{k}" for k in OFFSETS for v in "xy"), "rows", "columns-and-signs")


def _change(d: Dataset, change: str):
    """(changed dataset, row order, predictor map Q) of one of CHANGES: the
    changed data's row i is the original's row ``rows[i]``, and its
    predictors are x Q."""
    n, p = d.x.shape
    rng = np.random.default_rng(0)
    rows, q = np.arange(n), np.eye(p)
    if change == "rows":
        rows = rng.permutation(n)
        return Dataset(y=d.y[rows], x=d.x[rows]), rows, q
    if change == "columns-and-signs":
        q = q[:, rng.permutation(p)] * rng.choice([-1.0, 1.0], size=p)
        return Dataset(y=d.y, x=d.x @ q), rows, q
    offset = 2.0 ** int(change[4:])
    if change[0] == "x":
        return Dataset(y=d.y, x=d.x + offset), rows, q
    return Dataset(y=d.y + offset, x=d.x), rows, q


def _shift(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got - want| down the first axis relative to want's largest
    magnitude there, over every column."""
    return float((np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)).max())


@pytest.mark.parametrize("change", CHANGES)
@pytest.mark.parametrize("name", DESIGNS)
def test_the_report_is_invariant_under_exact_translation_and_permutation(name, change):
    d, k, want = _design(name)
    changed, rows, q = _change(d, change)
    got = influence_report(changed, k)
    assert rows[got.j].tolist() == want.j.tolist()
    assert got.flags == want.flags
    assert np.isfinite(want.values).all()
    assert _shift(got.values, want.values) <= TOL
    assert _shift(got.md, want.md) <= TOL
    assert np.abs(got.correlations - want.correlations).max() <= TOL
    for fit, ref in zip(got.fits, want.fits):
        assert _shift(fit.eigenvalues, ref.eigenvalues) <= TOL
        # the fitted span, mapped back through Q: Gamma = Q Gamma'
        g, g_ref = q @ fit.gamma_hat.columns, ref.gamma_hat.columns
        assert np.abs(g @ g.T - g_ref @ g_ref.T).max() <= TOL
