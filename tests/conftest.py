"""Shared builders for seeded models and matrices, and a runner for fresh
interpreters."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phdinfluence import Basis, LooMoments, PopulationModel, loo_downdates
from phdinfluence.moments import require_regular


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


def loo_row(d, m, j: int) -> LooMoments:
    """Closed-form downdate of observation j alone: a block of one row,
    required regular (DegenerateLeverage otherwise), with its leading axis
    dropped."""
    lm, degenerate = loo_downdates(d, m, [j])
    require_regular(lm, degenerate)
    return LooMoments(**{name: value[0] for name, value in vars(lm).items()})


def run_python(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a fresh interpreter that imports this checkout's
    src/ first; stdout and stderr are captured as text."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
