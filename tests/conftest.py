"""Shared builders for seeded models, matrices and the hitters-shaped sample
(with its cached high-precision refits), a runner for fresh interpreters,
and hypothesis's storage for the session."""

from __future__ import annotations

import functools
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from phdinfluence import Basis, Dataset, PopulationModel
from phdinfluence.diagnostics import _LooWalk
from oracles import MpRefit, mp_refit

#: hypothesis's storage (example database, constants cache, failure patches)
#: for this session, in place of .hypothesis under the working directory, so
#: the suite writes nothing into the checkout; removed when pytest exits
HYPOTHESIS_HOME = Path(tempfile.mkdtemp(prefix="hypothesis-"))
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)


def random_spd(rng: np.random.Generator, p: int, spread: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((p, p))
    m = a @ a.T + spread * p * np.eye(p)
    return (m + m.T) / 2


def random_orthonormal(rng: np.random.Generator, p: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((p, k)))
    return q


def random_model(
    rng: np.random.Generator,
    p: int,
    k: int,
    identity_sigma: bool = False,
    zero_sigma_xy: bool = False,
) -> PopulationModel:
    """A valid population model: the OLS direction is built inside the span."""
    sigma = np.eye(p) if identity_sigma else random_spd(rng, p)
    gamma = random_orthonormal(rng, p, k)
    lam = np.sort(rng.uniform(0.5, 3.0, size=k))[::-1]
    signs = rng.choice([-1.0, 1.0], size=k)
    lam = lam * signs
    lam = lam[np.argsort(-np.abs(lam))]
    if zero_sigma_xy:
        sigma_xy = np.zeros(p)
    else:
        sigma_xy = sigma @ (gamma @ rng.uniform(-1.0, 1.0, size=k))
    return PopulationModel(
        mu=rng.standard_normal(p) if not identity_sigma else np.zeros(p),
        sigma=sigma,
        gamma=Basis(gamma),
        lam=lam,
        mu_y=float(rng.standard_normal()),
        sigma_xy=sigma_xy,
    )


def hitters_like(seed=1987, n=263, p=16):
    """A simulated 263 x 16 sample shaped like the 1987 hitters data:
    predictors in mixed units (cond(S) about 4.5e6) and a log salary that
    follows a two-index model."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, p))
    e = rng.standard_normal(n)
    x = np.geomspace(1.0, 2000.0, p) * (3.0 + z)
    salary = np.exp(6.0 + 0.5 * z[:, 0] + 0.35 * (z[:, 1] ** 2 - 1.0) + 0.4 * e)
    return Dataset(y=np.array([math.log(v) for v in salary]), x=x)


@functools.cache
def hitters_refit(j: int | None) -> MpRefit:
    """40-digit refit of hitters_like() without row j (the whole sample when
    j is None), computed once per test session; its arrays are read-only
    because every caller shares them."""
    refit = mp_refit(hitters_like(), j)
    for a in refit:
        a.setflags(write=False)
    return refit


def loo_hessians(m, fits) -> tuple[np.ndarray, np.ndarray]:
    """The leave-one-out Hessians H_(j) the walk builds for every
    observation, as an (n, V, p, p) array with one entry per fit in the given
    order (NaN at rows on the leverage singularity), and the n-vector mask
    of those rows."""
    walk = _LooWalk(m, fits)
    h = np.full((m.n, len(walk.variants), m.p, m.p), np.nan)
    for rows, stack in walk.blocks():
        h[rows] = stack
    return h, walk.degenerate


def run_python(args: list[str], timeout: float, unset=(), cwd=None) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter that imports this checkout's
    src/ first, without the environment variables named in ``unset``, in the
    directory ``cwd`` (the current one when None); stdout and stderr are
    captured as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {name: value for name, value in os.environ.items() if name not in unset}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=cwd)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
