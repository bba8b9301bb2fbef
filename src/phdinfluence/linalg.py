"""Dense symmetric linear algebra primitives.

All matrices are plain float64 numpy arrays. Matrices that are symmetric by
contract are stored *exactly* symmetric (the upper triangle is mirrored onto
the lower one), so equality checks downstream never trip over last-ulp
asymmetry from matrix products.

Eigendecompositions are ordered by descending absolute eigenvalue, with ties
broken by descending signed value and then position, and every eigenvector is
sign-canonicalized so that its entry of largest magnitude is positive.  The
ordering matches how dimension-reduction directions are ranked; the sign rule
exists only so repeated runs print identical bases.  :func:`eigen_order` is
the one ordering rule and :func:`check_orthonormal` the one check on
eigenvector columns, both on a single decomposition or on a stack of them;
:func:`sym_eigen` applies both plus the sign rule to one matrix.  Callers
that read only some leading eigenvectors, or only sign-free quantities, use
the first two alone.

A positive definite matrix is inverted by one routine, :func:`spd_inverse`
(scaling to unit diagonal, one eigendecomposition and one Newton step); no
matrix square root is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidVector, NotPositiveDefinite

SYMMETRY_TOL = 1e-12
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


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Check `a` is square, finite and symmetric to absolute SYMMETRY_TOL;
    return the exactly symmetric copy."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    skew = float(np.abs(a - a.T).max()) if a.size else 0.0
    if skew > SYMMETRY_TOL:
        raise InvalidMatrix(f"matrix is not symmetric: max |a - a'| = {skew:.3e}")
    return mirror(a)


@dataclass(frozen=True)
class EigenSystem:
    """Full ordered eigensystem of a symmetric matrix.

    ``values[k]`` pairs with column ``vectors[:, k]``; values are sorted by
    descending ``|value|`` and columns are orthonormal with canonical signs
    (built by :func:`sym_eigen`, which checks both).
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Basis:
    """Orthonormal p x k column set spanning a k-dimensional subspace."""

    columns: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.columns, dtype=float)
        if c.ndim != 2 or c.shape[1] < 1 or c.shape[1] > c.shape[0]:
            raise InvalidMatrix(f"basis must be p x k with 1 <= k <= p, got {c.shape}")
        gram_err = float(np.abs(c.T @ c - np.eye(c.shape[1])).max())
        if gram_err > ORTHONORMAL_TOL:
            raise InvalidMatrix(
                f"basis columns are not orthonormal: max |B'B - I| = {gram_err:.3e}"
            )
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
    (..., p, p) stack, are orthonormal to ORTHONORMAL_TOL.  V'V is one
    matmul (an einsum Gram is slower) and |V'V - I| is taken in place, so the
    check holds one stack beside v."""
    gram = np.swapaxes(v, -1, -2) @ v
    gram -= np.eye(v.shape[-1])
    gram_err = float(np.abs(gram, out=gram).max(initial=0.0))
    if gram_err > ORTHONORMAL_TOL:
        raise InvalidMatrix(
            f"eigenvector columns are not orthonormal: max |V'V - I| = {gram_err:.3e}"
        )


def sym_eigen(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix, ordered by :func:`eigen_order`.

    Each eigenvector is flipped so its entry of largest magnitude (the first
    one on ties) is positive.  Raises InvalidMatrix when the columns are not
    orthonormal.  ``take_along_axis`` keeps the vectors C-ordered; ``v[:,
    order]`` would make them F-ordered and change how BLAS rounds the
    products callers form with them.
    """
    w, v = np.linalg.eigh(symmetrize(a))
    order = eigen_order(w)
    w = w[order]
    v = np.take_along_axis(v, order[None, :], axis=1)
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    v = np.where(pivot < 0, -v, v)
    check_orthonormal(v)
    return EigenSystem(values=w, vectors=v)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of a symmetric positive definite matrix.

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
    a = symmetrize(a)
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


def sine_to_subspace(v: np.ndarray, b: Basis) -> float:
    """|sin| of the angle between unit vector v and its projection onto span(b).

    Equals ||(I - P) v|| which lies in [0, 1] for unit v.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != b.dim:
        raise InvalidVector(f"expected a vector of length {b.dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidVector("vector has non-finite entries")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > 1e-10:
        raise InvalidVector(f"expected a unit vector, got norm {nrm!r}")
    return float(min(1.0, max(0.0, np.linalg.norm(project_out(b, v)))))
