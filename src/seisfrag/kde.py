"""Gaussian kernel density over identified parameter vectors.

The bandwidth is a plug-in rule: H = beta^2 * Sigma with Sigma the empirical
covariance and beta minimizing the asymptotic mean integrated squared error,
the curvature term being approximated by a two-stage pairwise sum over the
sample itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ground_motion import GroundMotionParams, ParameterError
from .table import write_table

JITTER_FACTOR = 1e-8
MAX_REJECTIONS = 1000


@dataclass(frozen=True)
class KdeModel:
    points: np.ndarray  # (n, d) kernel centers
    covariance: np.ndarray  # empirical covariance of the centers
    beta: float  # bandwidth scale
    bandwidth: np.ndarray  # H = beta^2 * covariance
    cholesky: np.ndarray  # lower Cholesky factor of H
    regularized: bool = False  # covariance needed a diagonal jitter

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


def beta_opt(dim: int, count: int, curvature: float) -> float:
    """AMISE-optimal bandwidth scale given the curvature functional R."""
    return (dim * (4.0 * math.pi) ** (dim / 2.0) * count * curvature) ** (-1.0 / (dim + 4))


def _gaussian_pdf(diffs: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density values and Mahalanobis squares of rows of diffs under N(0, cov)."""
    from scipy.linalg import cho_factor, cho_solve

    d = cov.shape[0]
    factor = cho_factor(cov, lower=True)
    solved = cho_solve(factor, diffs.T).T
    maha = np.einsum("ij,ij->i", diffs, solved)
    logdet = 2.0 * np.sum(np.log(np.diag(factor[0])))
    norm = math.exp(-0.5 * logdet) / (2.0 * math.pi) ** (d / 2.0)
    return norm * np.exp(-0.5 * maha), maha


def curvature_functional(pts: np.ndarray, cov: np.ndarray) -> float:
    """Scale-free curvature term R driving the bandwidth scale.

    The density is approximated by the sample smoothed with the pilot
    bandwidth G = s * cov, s = (4 / ((d+2) n))^(2/(d+4)). Working in
    covariance-whitened coordinates (all dependence is through the pilot
    Mahalanobis distances m_ij) makes R invariant under affine rescaling of
    the points, so the final bandwidth H = beta^2 * cov is equivariant. The
    pairwise weight is the exact Gaussian-mixture curvature polynomial.
    """
    from scipy.linalg import cho_factor, cho_solve

    n, d = pts.shape
    s = (4.0 / ((d + 2) * n)) ** (2.0 / (d + 4))
    g = s * cov
    diffs = (pts[:, None, :] - pts[None, :, :]).reshape(n * n, d)
    factor = cho_factor(g, lower=True)
    maha = np.einsum("ij,ij->i", diffs, cho_solve(factor, diffs.T).T)
    m2 = 0.5 * maha  # distances with respect to the doubled pilot 2G
    weights = m2**2 - (2.0 * d + 4.0) * m2 + d * (d + 2.0)
    norm = (4.0 * math.pi * s) ** (-d / 2.0)
    total = float(np.sum(np.exp(-0.25 * maha) * weights))
    return norm / (4.0 * s**2 * n**2) * total


def kristan_bandwidth(ensemble) -> KdeModel:
    """Build the KDE model: empirical covariance shape, plug-in scale."""
    pts = np.atleast_2d(np.asarray(ensemble, dtype=float))
    n, d = pts.shape
    if n < 2:
        raise ValueError("bandwidth estimation needs at least two points")

    cov = np.atleast_2d(np.cov(pts.T, ddof=1))
    regularized = False
    eigenvalues = np.linalg.eigvalsh(cov)
    if eigenvalues.min() <= 1e-10 * np.trace(cov):
        cov = cov + np.eye(d) * (JITTER_FACTOR * np.trace(cov) / d)
        regularized = True

    beta = beta_opt(d, n, curvature_functional(pts, cov))
    bandwidth = beta**2 * cov
    chol = np.linalg.cholesky(bandwidth)
    return KdeModel(
        points=pts,
        covariance=cov,
        beta=beta,
        bandwidth=bandwidth,
        cholesky=chol,
        regularized=regularized,
    )


def kde_pdf(model: KdeModel, theta) -> float | np.ndarray:
    """Mixture density: average of Gaussian kernels centered at the points."""
    theta_arr = np.atleast_2d(np.asarray(theta, dtype=float))
    out = np.empty(theta_arr.shape[0])
    for i, row in enumerate(theta_arr):
        phi, _ = _gaussian_pdf(row[None, :] - model.points, model.bandwidth)
        out[i] = float(np.mean(phi))
    return float(out[0]) if np.ndim(theta) == 1 else out


def sample_raw(model: KdeModel, rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Unconstrained mixture draws (no validity rejection): center + Gaussian."""
    idx = rng.integers(model.count, size=size)
    noise = rng.standard_normal((size, model.dim)) @ model.cholesky.T
    return model.points[idx] + noise


def save_model_csv(path, model: KdeModel) -> None:
    """One table: the kernel centers, then the covariance rows; scale as meta."""
    write_table(
        path,
        [f"x_{j}" for j in range(model.dim)],
        [*model.points, *model.covariance],
        meta={"beta": model.beta, "regularized": int(model.regularized), "points": model.count},
    )


def sample_theta(model: KdeModel, rng: np.random.Generator) -> GroundMotionParams:
    """One valid parameter draw; invalid vectors are rejected and redrawn.

    Rejection rather than clamping: clamping would distort the joint tails
    that drive the extreme signals.
    """
    for _ in range(MAX_REJECTIONS):
        vec = sample_raw(model, rng, size=1)[0]
        try:
            params = GroundMotionParams.from_vector(vec)
            params.validate()
        except ParameterError:
            continue
        return params
    raise RuntimeError(
        f"no valid parameter draw in {MAX_REJECTIONS} attempts; the model is badly scaled"
    )
