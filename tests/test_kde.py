"""Tests for the Gaussian KDE with plug-in bandwidth."""

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from seisfrag.ensemble import reference_ensemble
from seisfrag.kde import (
    KdeModel,
    beta_opt,
    kde_pdf,
    kristan_bandwidth,
    load_model_csv,
    sample_raw,
    sample_theta,
    save_model_csv,
)


def gaussian_sample(n, d, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


class TestBandwidth:
    def test_beta_opt_degenerate_case(self):
        # d=1, N=1, curvature 1: direct evaluation of the optimal-scale formula
        assert beta_opt(1, 1, 1.0) == pytest.approx((4 * math.pi) ** (-0.1))

    def test_one_dimensional_matches_silverman(self):
        pts = gaussian_sample(200, 1)
        model = kristan_bandwidth(pts)
        silverman = 1.06 * 200 ** (-0.2)
        assert abs(model.beta - silverman) / silverman < 0.25

    def test_affine_equivariance(self):
        pts = gaussian_sample(150, 3, seed=5)
        base = kristan_bandwidth(pts)
        c = 4.2
        scaled = kristan_bandwidth(c * pts)
        assert scaled.bandwidth == pytest.approx(c**2 * base.bandwidth, rel=1e-9)

    def test_singular_covariance_regularized(self):
        pts = gaussian_sample(80, 2, seed=2)
        pts = np.column_stack([pts[:, 0], pts[:, 0]])  # rank deficient
        model = kristan_bandwidth(pts)
        assert model.regularized
        np.linalg.cholesky(model.bandwidth)  # positive definite after jitter

    def test_one_point_refused(self):
        with pytest.raises(ValueError, match="at least two points"):
            kristan_bandwidth(np.ones((1, 2)))


class TestPdf:
    def test_single_point_model_is_exact_gaussian(self):
        h = np.array([[0.7, 0.2], [0.2, 0.5]])
        center = np.array([1.0, -2.0])
        model = KdeModel(
            points=center[None, :],
            covariance=h,
            beta=1.0,
            bandwidth=h,
            cholesky=np.linalg.cholesky(h),
        )
        theta = np.array([1.5, -1.0])
        diff = theta - center
        expected = math.exp(-0.5 * diff @ np.linalg.solve(h, diff)) / (
            2 * math.pi * math.sqrt(np.linalg.det(h))
        )
        assert kde_pdf(model, theta) == pytest.approx(expected, rel=1e-12)

    def test_integral_close_to_one(self):
        model = kristan_bandwidth(gaussian_sample(80, 2, seed=1))
        grid = np.linspace(-6, 6, 161)
        xx, yy = np.meshgrid(grid, grid)
        vals = kde_pdf(model, np.column_stack([xx.ravel(), yy.ravel()])).reshape(161, 161)
        integral = np.trapezoid(np.trapezoid(vals, grid), grid)
        assert integral == pytest.approx(1.0, abs=0.02)

    def test_kernel_decay(self):
        model = kristan_bandwidth(gaussian_sample(60, 2, seed=3))
        center = model.points[0]
        far = center + 10.0 * np.sqrt(np.diag(model.bandwidth))
        assert kde_pdf(model, center) >= kde_pdf(model, far)

    def test_permutation_invariance(self):
        pts = gaussian_sample(40, 2, seed=6)
        model_a = kristan_bandwidth(pts)
        model_b = kristan_bandwidth(pts[::-1])
        theta = np.array([0.3, -0.4])
        assert kde_pdf(model_a, theta) == pytest.approx(kde_pdf(model_b, theta), rel=1e-10)


class TestSampling:
    def test_tiny_bandwidth_reproduces_points(self):
        pts = reference_ensemble()
        cov = np.atleast_2d(np.cov(pts.T, ddof=1))
        beta = 1e-9
        h = beta**2 * cov
        model = KdeModel(
            points=pts, covariance=cov, beta=beta, bandwidth=h, cholesky=np.linalg.cholesky(h)
        )
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = sample_theta(model, rng).as_vector()
            nearest = np.min(np.linalg.norm(pts - theta, axis=1))
            assert nearest < 1e-6

    def test_sample_mean_matches_mixture_mean(self):
        model = kristan_bandwidth(gaussian_sample(60, 3, seed=8))
        draws = sample_raw(model, np.random.default_rng(1), size=10_000)
        se = draws.std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - model.points.mean(axis=0)) < 3 * se)

    def test_unbounded_covariance_is_mixture_covariance(self):
        model = kristan_bandwidth(gaussian_sample(120, 2, seed=9))
        draws = sample_raw(model, np.random.default_rng(2), size=60_000)
        centered_cov = np.cov(model.points.T, ddof=0) + model.bandwidth
        emp = np.cov(draws.T, ddof=0)
        assert emp == pytest.approx(centered_cov, rel=0.06, abs=0.01)

    def test_rejection_acceptance_above_half_on_reference_ensemble(self):
        model = kristan_bandwidth(reference_ensemble())
        draws = sample_raw(model, np.random.default_rng(3), size=4000)
        valid = (
            (draws[:, 0] > 0)
            & (draws[:, 1] > 0)
            & (draws[:, 2] > 0)
            & (draws[:, 3] >= 0)
            & (draws[:, 3] <= draws[:, 4])
            & (draws[:, 5] > 0)
            & (draws[:, 6] > 0)
            & (draws[:, 7] > 0)
            & (draws[:, 7] < 1)
        )
        assert valid.mean() > 0.5

    def test_sampling_deterministic_and_stream_independent(self):
        model = kristan_bandwidth(reference_ensemble())
        a = [sample_theta(model, np.random.default_rng(7)).as_vector() for _ in range(50)]
        b = [sample_theta(model, np.random.default_rng(7)).as_vector() for _ in range(50)]
        assert np.array_equal(np.vstack(a), np.vstack(b))
        # disjoint streams give statistically indistinguishable marginals
        big_a = sample_raw(model, np.random.default_rng(100), size=10_000)
        big_b = sample_raw(model, np.random.default_rng(200), size=10_000)
        assert ks_2samp(big_a[:, 0], big_b[:, 0]).pvalue > 0.01

    def test_model_csv_roundtrip(self, tmp_path):
        model = kristan_bandwidth(reference_ensemble())
        path = tmp_path / "kde.csv"
        save_model_csv(path, model)
        back = load_model_csv(path)
        assert np.array_equal(back.points, model.points)
        assert np.array_equal(back.covariance, model.covariance)
        assert np.array_equal(back.cholesky, model.cholesky)
        assert back.beta == model.beta
        assert back.regularized is model.regularized is False
        theta = model.points[0]
        assert kde_pdf(back, theta) == pytest.approx(kde_pdf(model, theta), rel=1e-12)
        # a jittered (regularized) covariance survives the round trip too
        degenerate = np.column_stack([model.points[:, :7], model.points[:, 0]])
        jittered = kristan_bandwidth(degenerate)
        save_model_csv(path, jittered)
        again = load_model_csv(path)
        assert again.regularized is jittered.regularized is True
        assert np.array_equal(again.covariance, jittered.covariance)
        assert list(tmp_path.iterdir()) == [path]

    def test_badly_scaled_model_raises(self):
        pts = np.array([[-5.0, 0.5], [-6.0, 0.4], [-5.5, 0.6]])  # alpha1 always negative
        cov = np.atleast_2d(np.cov(pts.T, ddof=1))
        model = KdeModel(
            points=np.column_stack([pts, np.ones((3, 6))* [0.5, 1, 2, 30, 20, 0.3]]),
            covariance=np.eye(8) * 1e-4,
            beta=1.0,
            bandwidth=np.eye(8) * 1e-4,
            cholesky=np.eye(8) * 1e-2,
        )
        with pytest.raises(RuntimeError):
            sample_theta(model, np.random.default_rng(0))
