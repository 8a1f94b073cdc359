"""Tests for pool filtering, Box-Cox, and standardization."""

import numpy as np
import pytest

from seisfrag import preprocess as prep

Y = 5e-3


class TestFilterPool:
    def test_below_yield_discarded(self):
        assert prep.filter_pool([Y / 2], Y).size == 0

    def test_in_band_kept(self):
        assert np.array_equal(prep.filter_pool([3 * Y], Y), [0])

    def test_above_band_discarded(self):
        assert prep.filter_pool([7 * Y], Y).size == 0

    def test_boundaries_inclusive(self):
        kept = prep.filter_pool([Y, 6 * Y, 6.001 * Y], Y)
        assert np.array_equal(kept, [0, 1])

    def test_kept_fraction_on_default_pool(self, mini_pool):
        fraction = mini_pool.kept.size / mini_pool.raw.shape[0]
        assert 0.25 <= fraction <= 0.45


class TestBoxcox:
    def test_identity_like_at_one(self):
        assert prep.boxcox(3.7, 1.0) == pytest.approx(2.7)

    def test_zero_at_x_one(self):
        for delta in (-2.0, -0.5, 0.0, 0.7, 3.0):
            assert prep.boxcox(1.0, delta) == pytest.approx(0.0, abs=1e-15)

    def test_continuity_at_delta_zero(self):
        for x in (0.5, 2.0, 10.0):
            assert abs(prep.boxcox(x, 1e-8) - np.log(x)) < 1e-6

    def test_monotone(self):
        x = np.linspace(0.1, 20, 500)
        for delta in (-1.5, -0.5, 0.0, 0.5, 2.0):
            assert np.all(np.diff(prep.boxcox(x, delta)) > 0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            prep.boxcox(-1.0, 0.5)
        with pytest.raises(ValueError):
            prep.boxcox(np.array([1.0, 0.0]), 0.5)


class TestFitDelta:
    def test_lognormal_gives_log_transform(self):
        rng = np.random.default_rng(0)
        sample = np.exp(rng.standard_normal(10_000))
        assert -0.1 <= prep.fit_boxcox_delta(sample) <= 0.1

    def test_normal_positive_sample_keeps_identity(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(10.0, 1.0, 5000)
        assert 0.5 <= prep.fit_boxcox_delta(sample) <= 1.5

    def test_pool_lin_disp_exponent(self, mini_pool):
        delta = prep.fit_boxcox_delta(mini_pool.raw_kept[:, 12])
        assert -1.5 <= delta <= -0.4

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError):
            prep.fit_boxcox_delta(np.ones(10) + np.arange(10))
        few = prep.BOXCOX_MIN_VALUES
        with pytest.raises(ValueError, match=f"at least {few} values"):
            prep.fit_boxcox_delta(1.0 + np.arange(few - 1))
        assert np.isfinite(prep.fit_boxcox_delta(1.0 + np.arange(few)))

    def test_fitted_exponent_maximizes_the_log_likelihood(self, mini_pool):
        column = mini_pool.raw_kept[:, 12]
        delta = prep.fit_boxcox_delta(column)
        best = prep.boxcox_loglik(column, delta)
        assert all(best >= prep.boxcox_loglik(column, delta + step) for step in (-1e-2, 1e-2))


class TestFitApply:
    def test_standardization_on_fitting_set(self, mini_pool):
        transformed = mini_pool.features(view="r13")
        assert np.max(np.abs(transformed.mean(axis=0))) < 1e-10
        assert np.max(np.abs(transformed.std(axis=0) - 1.0)) < 1e-10

    def test_transform_monotone_per_component(self, mini_pool):
        raw = mini_pool.raw_kept
        transformed = mini_pool.features(view="r13")
        for j in range(raw.shape[1]):
            order_raw = np.argsort(raw[:, j], kind="stable")
            order_t = np.argsort(transformed[:, j], kind="stable")
            assert np.array_equal(order_raw, order_t)

    def test_r4_view_selects_expected_columns(self, mini_pool):
        full = mini_pool.features(view="r13")
        reduced = mini_pool.features(view="r4")
        assert reduced.shape[1] == 4
        assert np.array_equal(reduced[:, 0], full[:, 12])  # lin_disp
        assert np.array_equal(reduced[:, 1], full[:, 8])  # pga
        assert np.array_equal(reduced[:, 2], full[:, 9])  # pgv
        assert np.array_equal(reduced[:, 3], full[:, 5])  # omega0

    def test_single_row_apply(self, mini_pool):
        row = mini_pool.raw_kept[0]
        out = prep.apply(mini_pool.model, row, view="r4")
        assert out.shape == (4,)
        assert out == pytest.approx(mini_pool.features(view="r4")[0])

    def test_nonpositive_columns_get_shifted(self):
        rng = np.random.default_rng(3)
        raw = np.abs(rng.standard_normal((200, 13))) + 0.1
        raw[:, 3] -= 2.0  # force a column with negative values
        model = prep.fit(raw)
        assert model.shifts[3] > 0
        out = prep.apply(model, raw)
        assert np.all(np.isfinite(out))

    def test_constant_column_rejected(self):
        raw = np.ones((100, 13))
        raw[:, :12] += np.random.default_rng(0).random((100, 12))
        with pytest.raises(ValueError):
            prep.fit(raw)

    def test_unknown_view_rejected(self, mini_pool):
        with pytest.raises(ValueError):
            prep.apply(mini_pool.model, mini_pool.raw_kept, view="r7")

    def test_model_csv_roundtrip(self, mini_pool, tmp_path):
        path = tmp_path / "prep.csv"
        prep.save_model_csv(path, mini_pool.model)
        back = prep.load_model_csv(path)
        assert np.array_equal(back.deltas, mini_pool.model.deltas)
        assert np.array_equal(back.shifts, mini_pool.model.shifts)
        assert np.array_equal(back.means, mini_pool.model.means)
        assert np.array_equal(back.stds, mini_pool.model.stds)
        original = prep.apply(mini_pool.model, mini_pool.raw_kept)
        reloaded = prep.apply(back, mini_pool.raw_kept)
        assert np.array_equal(original, reloaded)
