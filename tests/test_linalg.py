import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phdinfluence import Basis
from phdinfluence.errors import InvalidMatrix, NotPositiveDefinite
from phdinfluence.linalg import (
    check_orthonormal,
    eigen_order,
    mirror,
    project_out,
    spd_inverse,
    sym_eigen,
)
from conftest import random_orthonormal, random_spd


def test_sym_eigen_diagonal_orders_by_magnitude():
    values, vectors = sym_eigen(np.diag([3.0, -5.0, 1.0]))
    assert np.allclose(values, [-5.0, 3.0, 1.0])
    # eigenvectors are a signed permutation of identity columns; canonical
    # signs make every nonzero entry +1
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[0, 1] = expected[2, 2] = 1.0
    assert np.allclose(vectors, expected, atol=1e-14)


def test_sym_eigen_identity():
    values, vectors = sym_eigen(np.eye(4))
    assert np.allclose(values, 1.0)
    assert np.abs(vectors.T @ vectors - np.eye(4)).max() <= 1e-10
    for k in range(4):
        col = vectors[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eigen_reconstructs(rng):
    a = random_spd(rng, 6) - 2.0 * np.eye(6)  # indefinite
    values, vectors = sym_eigen(a)
    recon = (vectors * values) @ vectors.T
    assert np.abs(recon - a).max() <= 1e-9


def test_sym_eigen_invariants_seeded_suite(rng):
    for p in (2, 5, 11, 20):
        a = rng.standard_normal((p, p))
        a = (a + a.T) / 2
        values, vectors = sym_eigen(a)
        norm_a = np.linalg.norm(a, 2)
        assert np.abs(vectors.T @ vectors - np.eye(p)).max() <= 1e-10
        assert np.all(np.diff(np.abs(values)) <= 1e-14)
        for k in range(p):
            resid = a @ vectors[:, k] - values[k] * vectors[:, k]
            assert np.linalg.norm(resid) <= 1e-9 * (1 + norm_a)
            col = vectors[:, k]
            assert col[np.argmax(np.abs(col))] > 0
        recon = (vectors * values) @ vectors.T
        assert np.abs(recon - a).max() <= 1e-9


def test_sym_eigen_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [np.nan, 2.0]])
    with pytest.raises(InvalidMatrix):
        sym_eigen(bad)


def test_spd_inverse_rejects_non_pd():
    with pytest.raises(NotPositiveDefinite) as err:
        spd_inverse(np.diag([1.0, -2.0]))
    assert err.value.eigenvalue == pytest.approx(-2.0)
    with pytest.raises(NotPositiveDefinite):
        spd_inverse(np.diag([1.0, 0.0]))


# the residual projector I - B B' is applied through project_out; on the
# identity it returns the projector itself


def test_residual_projector_full_basis_is_zero(rng):
    b = Basis(random_orthonormal(rng, 4, 4))
    assert np.abs(project_out(b, np.eye(4))).max() <= 1e-12


def test_residual_projector_single_axis():
    b = Basis(np.array([[1.0], [0.0], [0.0]]))
    assert np.allclose(project_out(b, np.eye(3)), np.diag([0.0, 1.0, 1.0]))


def test_residual_projector_idempotent_and_annihilating(rng):
    b = Basis(random_orthonormal(rng, 6, 2))
    q = project_out(b, np.eye(6))
    assert np.abs(project_out(b, q) - q).max() <= 1e-12
    assert np.abs(q @ q - q).max() <= 1e-10
    assert np.abs(q - q.T).max() <= 1e-15
    assert np.abs(q @ b.columns).max() <= 1e-12
    v = np.random.default_rng(3).standard_normal((6, 5))
    assert np.allclose(project_out(b, v), q @ v, rtol=0, atol=1e-12)


def test_basis_rejects_non_orthonormal():
    with pytest.raises(InvalidMatrix):
        Basis(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidMatrix):  # |B'B - I| is NaN, not above the tolerance
        Basis(np.array([[np.nan], [0.0], [0.0]]))


# ----------------------------------------------------------------------
# stacks: mirror, the ordering/sign rule, and one eigh of an SPD matrix
# ----------------------------------------------------------------------

def test_mirror_of_a_stack_mirrors_each_slice(rng):
    stack = rng.standard_normal((3, 5, 5))
    got = mirror(stack)
    for i in range(3):
        assert np.array_equal(got[i], mirror(stack[i]))
    assert np.array_equal(got, np.swapaxes(got, -1, -2))


@pytest.mark.parametrize("shape", [(5, 5), (3, 5, 5), (2, 3, 4, 4), (1, 1), (4, 1, 1)])
def test_mirror_keeps_the_upper_triangle_bit_for_bit(rng, shape):
    a = rng.standard_normal(shape)
    want = np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)
    assert np.array_equal(mirror(a), want)


def test_mirror_rejects_non_square_stacks():
    with pytest.raises(InvalidMatrix):
        mirror(np.zeros((3, 4, 5)))
    with pytest.raises(InvalidMatrix):
        mirror(np.zeros(4))


def reference_indices(w):
    """The ordering rule written out: descending |value|, then descending
    signed value, then position."""
    return sorted(range(len(w)), key=lambda i: (-abs(w[i]), -w[i], i))


def reference_order(w, v):
    """The ordering and sign rule written out column by column."""
    order = reference_indices(w)
    v = v[:, order].copy()
    for k in range(v.shape[1]):
        if v[int(np.argmax(np.abs(v[:, k]))), k] < 0:
            v[:, k] = -v[:, k]
    return w[order], v


@st.composite
def symmetric_stacks(draw):
    """Stacks of symmetric matrices; diagonal and small-integer slices give
    exact ties in |eigenvalue| and in signed eigenvalue."""
    p = draw(st.integers(1, 6))
    count = draw(st.integers(1, 4))
    slices = []
    for _ in range(count):
        kind = draw(st.sampled_from(["diagonal", "integer", "float"]))
        if kind == "diagonal":
            a = np.diag(draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
                                      min_size=p, max_size=p)))
        else:
            elems = (st.integers(-2, 2).map(float) if kind == "integer"
                     else st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
            a = np.array(draw(st.lists(elems, min_size=p * p, max_size=p * p))).reshape(p, p)
        slices.append(mirror(a))
    return np.stack(slices)


@settings(max_examples=200, deadline=None)
@given(symmetric_stacks())
def test_sym_eigen_and_eigen_order_follow_the_written_out_rule(stack):
    # sym_eigen per matrix against the written-out rule, and eigen_order on
    # the whole stack (as the leave-one-out kernel calls it) row by row
    w = np.empty(stack.shape[:-1])
    v = np.empty_like(stack)
    for i, a in enumerate(stack):
        w[i], v[i] = np.linalg.eigh(a)
    order = eigen_order(w)
    for i, a in enumerate(stack):
        assert order[i].tolist() == reference_indices(w[i])
        values, vectors = sym_eigen(a)
        ref_w, ref_v = reference_order(w[i], v[i])
        assert np.array_equal(values, ref_w)
        assert np.array_equal(vectors, ref_v)
        # C order: BLAS rounds products with F-ordered vectors differently
        assert vectors.flags.c_contiguous


def test_sym_eigen_breaks_ties_by_signed_value_then_position():
    values, vectors = sym_eigen(np.diag([1.0, -2.0, 2.0, -1.0]))
    assert values.tolist() == [2.0, -2.0, 1.0, -1.0]
    assert np.array_equal(vectors, np.eye(4)[:, [2, 1, 0, 3]])


def test_check_orthonormal_rejects_non_orthonormal_columns():
    check_orthonormal(np.broadcast_to(np.eye(3), (2, 3, 3)))
    with pytest.raises(InvalidMatrix):
        check_orthonormal(np.ones((2, 2, 2)))
    with pytest.raises(InvalidMatrix):
        check_orthonormal(np.full((2, 2), np.nan))


def test_spd_inverse_is_an_exactly_symmetric_inverse(rng):
    a = random_spd(rng, 6, spread=0.01)
    inverse = spd_inverse(a)
    assert np.array_equal(inverse, inverse.T)
    assert np.abs(inverse @ a - np.eye(6)).max() <= 1e-9
    assert np.array_equal(spd_inverse(np.eye(3)), np.eye(3))


def test_sym_eigen_and_spd_inverse_read_only_the_upper_triangle(rng):
    a = random_spd(rng, 5)
    skewed = a + np.tril(rng.standard_normal((5, 5)), -1)
    assert np.array_equal(spd_inverse(skewed), spd_inverse(a))
    for got, want in zip(sym_eigen(skewed), sym_eigen(a)):
        assert np.array_equal(got, want)


def test_spd_inverse_decomposes_once(rng, monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    spd_inverse(random_spd(rng, 4))
    assert len(calls) == 1


def mp_inverse(a, dps=50):
    """Inverse of a float matrix taken as exact, in dps-digit arithmetic."""
    with mpmath.workdps(dps):
        return np.array(mpmath.inverse(mpmath.matrix(a.tolist())).tolist(), dtype=float)


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8])
def test_spd_inverse_is_accurate_on_mixed_unit_covariances(cond):
    # a well-conditioned correlation scaled by columns in mixed units: the
    # eigenbasis inverse alone is off by about eps cond, the Newton step
    # brings it to rounding of the largest entry
    rng = np.random.default_rng(int(math.log10(cond)))
    corr = np.corrcoef(rng.standard_normal((64, 16)).T)
    scale = np.geomspace(1.0, math.sqrt(cond), 16)
    a = mirror(corr * scale[:, None] * scale)
    want = mp_inverse(a)
    assert np.abs(spd_inverse(a) - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("cond", [1e2, 1e4, 1e6, 1e8, 1e10])
def test_spd_inverse_is_backward_stable_when_ill_conditioned_in_every_basis(cond):
    # a rotated spectrum from 1 down to 1/cond: no inverse in float64 does
    # better than about eps cond
    rng = np.random.default_rng(int(math.log10(cond)))
    q = random_orthonormal(rng, 16, 16)
    a = mirror((q * np.geomspace(1.0, 1.0 / cond, 16)) @ q.T)
    want = mp_inverse(a)
    err = np.abs(spd_inverse(a) - want).max() / np.abs(want).max()
    assert err <= 10 * np.finfo(float).eps * cond
