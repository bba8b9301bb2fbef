"""Independent numpy reference for every value the workloads check.

Nothing here imports phdinfluence: the moments, both PHD fits, SRIS and HRIS
by brute-force leave-one-out refits, ERIS by the alpha display of the closed
form, Spearman correlations with average ranks, and the cosine-model influence
surface by its single-index factorisation are recomputed from the generated
arrays.  The program's outputs must match within ``RTOL``.
"""

from __future__ import annotations

import math

import numpy as np

#: relative tolerance of every value check: an entry passes when
#: |got - want| <= RTOL * (|want| + max |want| over its array).
RTOL = 1e-6

VARIANTS = ("y", "r")


def close(got, want, rtol: float = RTOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    scale = float(np.nanmax(np.abs(want))) if want.size else 0.0
    return bool(np.allclose(got, want, rtol=rtol, atol=rtol * scale, equal_nan=True))


def _ordered_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ordered by descending |value|, ties to the larger value."""
    w, v = np.linalg.eigh((h + h.T) / 2.0)
    order = np.lexsort((-w, -np.abs(w)))
    return w[order], v[:, order]


def _hessians(y: np.ndarray, x: np.ndarray) -> dict:
    n = y.shape[0]
    xbar = x.mean(axis=0)
    xc = x - xbar
    yc = y - y.mean()
    s = xc.T @ xc / (n - 1)
    s_inv = np.linalg.inv(s)
    s_xy = xc.T @ yc / (n - 1)
    beta = s_inv @ s_xy
    resid = yc - xc @ beta
    h = {
        "y": s_inv @ ((xc.T * yc) @ xc / n) @ s_inv,
        "r": s_inv @ ((xc.T * resid) @ xc / n) @ s_inv,
    }
    return {"xc": xc, "yc": yc, "s": s, "s_inv": s_inv, "beta": beta, "resid": resid, "h": h}


def _residual(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(I - G G') v for a vector or for the rows of a matrix."""
    return v - (v @ g) @ g.T if v.ndim == 2 else v - g @ (g.T @ v)


def ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their average rank."""
    order = np.argsort(a, kind="mergesort")
    r = np.empty(a.size)
    r[order] = np.arange(1, a.size + 1)
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.bincount(inverse, weights=r) / counts)[inverse]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    keep = np.isfinite(a) & np.isfinite(b)
    ra = ranks(a[keep]) - (keep.sum() + 1) / 2.0
    rb = ranks(b[keep]) - (keep.sum() + 1) / 2.0
    return float(ra @ rb / math.sqrt((ra @ ra) * (rb @ rb)))


def influence(y: np.ndarray, x: np.ndarray, k: int, rows) -> dict:
    """Reference diagnostics at rank k: ERIS for every row, SRIS and HRIS for
    ``rows`` by refitting without each of them."""
    n = y.shape[0]
    mo = _hessians(y, x)
    w, v = np.linalg.eigh(mo["s"])
    s_isqrt = (v * w**-0.5) @ v.T
    s_sqrt = (v * w**0.5) @ v.T
    z = mo["xc"] @ s_isqrt
    out = {"rows": list(rows), "eigenvalues": {}, "eris": {}, "sris": {}, "hris": {}}
    for var in VARIANTS:
        lam_all, vec_all = _ordered_eigh(mo["h"][var])
        lam, g = lam_all[:k], vec_all[:, :k]
        out["eigenvalues"][var] = lam_all
        # ERIS: plug-in closed form with the OLS slope projected onto span(g)
        beta_in_span = g @ (g.T @ mo["beta"])
        eris = np.empty((n, k))
        for i in range(k):
            gi = g[:, i]
            a = z @ (s_isqrt @ gi)
            b = z @ (s_sqrt @ gi)
            weight = mo["yc"] if var == "y" else mo["resid"]
            scal = weight * a - lam[i] * b
            if var == "y":
                scal -= gi @ beta_in_span
            alpha = scal[:, None] * z - weight[:, None] * (s_isqrt @ gi)[None, :]
            eris[:, i] = np.linalg.norm(_residual(g, alpha @ s_isqrt), axis=1) / abs(lam[i])
        out["eris"][var] = eris
        sris = np.empty((len(rows), k))
        hris = np.empty((len(rows), k))
        for r_i, j in enumerate(rows):
            keep = np.arange(n) != j
            h_j = _hessians(y[keep], x[keep])["h"][var]
            vec_j = _ordered_eigh(h_j)[1]
            sif = (n - 1) * (mo["h"][var] - h_j)
            for i in range(k):
                sris[r_i, i] = (n - 1) * np.linalg.norm(_residual(g, vec_j[:, i]))
                hris[r_i, i] = np.linalg.norm(_residual(g, sif @ g[:, i])) / abs(lam[i])
        out["sris"][var] = sris
        out["hris"][var] = hris
    return out


#: the cosine single-index model on standard normal predictors:
#: mu_y = E cos(2Z - pi/4), sigma_xy = E Z cos(2Z - pi/4), lambda_1 = E (Z^2 - 1) cos(2Z - pi/4)
COSINE_MU_Y = math.exp(-2.0) / math.sqrt(2.0)
COSINE_SIGMA_XY = math.sqrt(2.0) * math.exp(-2.0)
COSINE_LAMBDA1 = -2.0 * math.sqrt(2.0) * math.exp(-2.0)


def surface(norms: np.ndarray, costhetas: np.ndarray) -> dict[str, np.ndarray]:
    """Influence of a point on the noiseless curve at (||x0||, cos theta0) on
    the cosine model's direction, by the single-index factorisation."""
    nrm, ct = np.meshgrid(norms, costhetas, indexing="ij")
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    y0 = np.cos(2.0 * nrm * ct - math.pi / 4.0)
    t = nrm * ct
    c_y = np.abs(((y0 - COSINE_MU_Y) * t - COSINE_LAMBDA1 * t - COSINE_SIGMA_XY) / COSINE_LAMBDA1)
    c_r = np.abs(((y0 - COSINE_MU_Y - COSINE_SIGMA_XY * t) * t - COSINE_LAMBDA1 * t) / COSINE_LAMBDA1)
    return {"y": c_y * nrm * st, "r": c_r * nrm * st}
