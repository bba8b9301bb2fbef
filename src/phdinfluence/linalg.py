"""Dense symmetric linear algebra primitives.

All matrices are plain float64 numpy arrays. Matrices that are symmetric by
contract are stored *exactly* symmetric: :func:`mirror` copies the upper
triangle onto the lower one, so equality checks downstream never trip over
last-ulp asymmetry from matrix products.  :func:`sym_eigen` and
:func:`spd_inverse` take their input through :func:`mirror` as well, which
checks that it is square and finite and reads only its upper triangle; they
do not test symmetry, because every caller passes a matrix it built with
``mirror``.  The one symmetric matrix that comes from outside the package,
``PopulationModel.sigma``, is tested where it enters, in ``population``.

Eigendecompositions are ordered by descending absolute eigenvalue, with ties
broken by descending signed value and then position, and every eigenvector is
sign-canonicalized so that its entry of largest magnitude is positive.  The
ordering matches how dimension-reduction directions are ranked; the sign rule
exists only so repeated runs print identical bases.  :func:`eigen_order` is
the one ordering rule and :func:`check_orthonormal` the one check on
eigenvector columns, both on a single decomposition or on a stack of them;
:func:`sym_eigen` applies both plus the sign rule to one matrix and returns
the pair (values, vectors).  Callers that read only some leading
eigenvectors, or only sign-free quantities, use the first two alone.

A positive definite matrix is inverted by one routine, :func:`spd_inverse`
(scaling to unit diagonal, one eigendecomposition and one Newton step); no
matrix square root is needed.  The sine between a direction and a span is
the norm of :func:`project_out`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidMatrix, NotPositiveDefinite, as_real_array

ORTHONORMAL_TOL = 1e-10
PD_RTOL = 1e-12


def mirror(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric copy of a matrix, or of each matrix in a (..., p, p)
    stack, that is symmetric up to rounding (upper triangle mirrored onto the
    lower one).  No symmetry check: use it on products like B' A B whose skew
    is pure float noise at any scale."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    p = a.shape[-1]
    upper = np.arange(p)[:, None] <= np.arange(p)
    return np.where(upper, a, np.swapaxes(a, -1, -2))


@dataclass(frozen=True, eq=False)
class Basis:
    """Orthonormal p x k column set spanning a k-dimensional subspace.

    ``columns`` is taken through the real-number rule
    (``errors.as_real_array``, InvalidArgument for anything but real
    numbers) and stored as a read-only float64 copy; columns that are not
    p x k with 1 <= k <= p raise InvalidArgument, and columns that are not
    orthonormal raise InvalidMatrix.  The orthonormality check is made on
    the stored copy, so no later write to the caller's array can undo it."""

    columns: np.ndarray

    def __post_init__(self):
        c = as_real_array(self.columns, "columns")
        if c.ndim != 2 or c.shape[1] < 1 or c.shape[1] > c.shape[0]:
            raise InvalidArgument(f"basis must be p x k with 1 <= k <= p, got {c.shape}")
        check_orthonormal(c)
        object.__setattr__(self, "columns", c)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def rank(self) -> int:
        return self.columns.shape[1]


def eigen_order(w: np.ndarray) -> np.ndarray:
    """Indices that sort each set of eigenvalues in ``w`` (shape (..., p)) by
    descending |value|, ties by descending signed value, then by position."""
    return np.lexsort((-w, -np.abs(w)), axis=-1)


def check_orthonormal(v: np.ndarray) -> None:
    """Raise InvalidMatrix unless the columns of v, or of every matrix in a
    (..., p, k) stack, are orthonormal to ORTHONORMAL_TOL.  V'V is one
    matmul (an einsum Gram is slower) and |V'V - I| is taken in place, so the
    check holds one stack beside v."""
    gram = np.swapaxes(v, -1, -2) @ v
    gram -= np.eye(v.shape[-1])
    gram_err = float(np.abs(gram, out=gram).max(initial=0.0))
    if not gram_err <= ORTHONORMAL_TOL:  # a NaN entry fails too
        raise InvalidMatrix(f"columns are not orthonormal: max |V'V - I| = {gram_err:.3e}")


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(values, vectors)`` of a symmetric matrix, ordered
    by :func:`eigen_order`, ``values[k]`` paired with column ``vectors[:, k]``;
    only the upper triangle of ``a`` is read.

    Each eigenvector is flipped so its entry of largest magnitude (the first
    one on ties) is positive.  Raises InvalidMatrix when the columns are not
    orthonormal.  ``take_along_axis`` keeps the vectors C-ordered; ``v[:,
    order]`` would make them F-ordered and change how BLAS rounds the
    products callers form with them.
    """
    w, v = np.linalg.eigh(mirror(a))
    order = eigen_order(w)
    w = w[order]
    v = np.take_along_axis(v, order[None, :], axis=1)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = np.where(pivot < 0, -v, v)
    check_orthonormal(v)
    return w, v


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of a symmetric positive definite matrix, of
    which only the upper triangle is read.

    The matrix is first scaled to unit diagonal, C = D^-1 a D^-1 with
    D = diag(a)^1/2, so that neither the decision nor the accuracy depends
    on the units of its rows and columns (van der Sluis, Numer. Math. 14,
    1969).  The eigenbasis inverse X of C is off by about eps cond(C); one
    Newton step X + X (I - C X) takes that to rounding (Higham, Accuracy and
    Stability, ch. 14), and the step contracts: ||I - C X|| < 2.3e-4 whenever
    cond(C) < 1 / PD_RTOL.  Returns D^-1 C^-1 D^-1.

    Raises NotPositiveDefinite when a diagonal entry is not positive or the
    smallest eigenvalue of C is not above PD_RTOL times the largest.
    """
    a = mirror(a)
    diag = np.diag(a)
    if not (diag > 0.0).all():
        i = int(np.argmin(diag > 0.0))
        raise NotPositiveDefinite(
            f"matrix is not positive definite: diagonal entry {i} is {diag[i]:.6e}",
            eigenvalue=float(diag[i]),
        )
    r = 1.0 / np.sqrt(diag)
    scale = np.outer(r, r)
    c = a * scale
    w, v = np.linalg.eigh(c)
    w_min, w_max = float(w[0]), float(w[-1])
    if w_min <= PD_RTOL * w_max:
        raise NotPositiveDefinite(
            f"matrix is not positive definite: min eigenvalue {w_min:.6e} "
            f"vs max {w_max:.6e} after scaling to unit diagonal",
            eigenvalue=w_min,
        )
    x = mirror((v / w) @ v.T)
    return mirror(x + x @ (np.eye(a.shape[0]) - c @ x)) * scale


def project_out(b: Basis | np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - B B') v without forming the projector.  ``b`` is a Basis or the
    columns of a stack of them, (..., p, k), which broadcast against v."""
    g = b.columns if isinstance(b, Basis) else b
    return v - g @ (np.swapaxes(g, -1, -2) @ v)
