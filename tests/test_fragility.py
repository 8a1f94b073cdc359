"""Tests for calibration, binning, and fragility-curve diagnostics."""

import copy
import logging
import math

import numpy as np
import pytest

from seisfrag import fragility
from seisfrag.fragility import (
    FragilityBin,
    LogisticCalibration,
    _choice,
    bin_by_projection,
    curve,
    delta_l2,
    fit_logistic,
    hybrid_probability,
    kmeans_objective,
    labeled_only_diagnostic,
    steepness,
)
from seisfrag.learning import Kernel, active_learn
from seisfrag.rng import stream


class TestLogistic:
    def test_midpoint_probability(self):
        cal = LogisticCalibration(slope=3.0, intercept=0.0)
        assert cal.probability(0.0) == pytest.approx(0.5)

    def test_symmetric_set_has_no_bias(self):
        scores = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        labels = np.array([-1, -1, -1, 1, 1, 1])
        # perfectly separated: capped slope, intercept stays near zero
        cal = fit_logistic(scores, labels)
        assert cal.separated
        assert abs(cal.intercept) < 1.0

    def test_noisy_symmetric_set_b_near_zero(self):
        rng = np.random.default_rng(0)
        scores = np.concatenate([rng.normal(-1, 1, 300), rng.normal(1, 1, 300)])
        labels = np.array([-1] * 300 + [1] * 300)
        cal = fit_logistic(scores, labels)
        assert not cal.separated
        assert abs(cal.intercept) < 0.2

    def test_matches_grid_search(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(50)
        labels = np.where(rng.random(50) < 1 / (1 + np.exp(-1.5 * f)), 1, -1)
        cal = fit_logistic(f, labels)
        best = (-np.inf, None, None)
        for a in np.linspace(0.05, 8.0, 160):
            for b in np.linspace(-2.0, 2.0, 81):
                eta = a * f - b
                ll = float(np.sum((labels == 1) * eta - np.logaddexp(0.0, eta)))
                if ll > best[0]:
                    best = (ll, a, b)
        assert cal.slope == pytest.approx(best[1], abs=0.05)
        assert cal.intercept == pytest.approx(best[2], abs=0.05)

    def test_separation_capped_and_flagged(self):
        scores = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
        labels = np.array([-1, -1, -1, 1, 1, 1])
        cal = fit_logistic(scores, labels)
        assert cal.separated
        assert cal.slope == pytest.approx(1e3)

    @pytest.mark.parametrize("shift", [0.4, -0.4, 3.0, -3.0])
    def test_separated_gap_off_zero_keeps_every_label_on_its_side(self, shift):
        # the gap between the classes, (shift - 0.1, shift + 0.1), lies wholly
        # above or below 0; at slope 1e3 every score is saturated at b = 0
        scores = shift + np.array([-0.5, -0.3, -0.12, -0.1, 0.1, 0.25, 0.4])
        labels = np.array([-1, -1, -1, -1, 1, 1, 1])
        cal = fit_logistic(scores, labels)
        assert cal.separated
        assert 1e3 * (shift - 0.1) <= cal.intercept <= 1e3 * (shift + 0.1)
        p = cal.probability(scores)
        assert np.all(p[labels == -1] < 0.5) and np.all(p[labels == 1] > 0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic([0.1, 0.2], [1, 1])


class TestBinning:
    def test_singletons_when_bins_match_distinct_values(self):
        values = np.array([3.0, 1.0, 2.0, 1.0])
        groups = bin_by_projection(values, 3)
        assert [values[g][0] for g in groups] == [1.0, 2.0, 3.0]
        assert sum(g.size for g in groups) == 4

    def test_two_separated_clusters_recovered(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(0, 0.5, 70), rng.normal(12, 0.5, 50)])
        groups = bin_by_projection(values, 2)
        assert sorted(g.size for g in groups) == [50, 70]

    def test_groups_are_contiguous_intervals(self):
        values = np.random.default_rng(3).standard_normal(400)
        groups = bin_by_projection(values, 10)
        previous_max = -np.inf
        for g in groups:
            assert values[g].min() >= previous_max
            previous_max = values[g].max()

    def test_lloyd_beats_random_assignments(self):
        values = np.random.default_rng(4).standard_normal(300)
        groups = bin_by_projection(values, 8)
        lloyd_obj = kmeans_objective(values, groups)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            centers = values[rng.choice(values.size, 8, replace=False)]
            assign = np.argmin(np.abs(values[:, None] - centers[None, :]), axis=1)
            random_groups = [np.flatnonzero(assign == k) for k in range(8)]
            random_groups = [g for g in random_groups if g.size]
            assert lloyd_obj <= kmeans_objective(values, random_groups) + 1e-9

    def test_deterministic(self):
        values = np.random.default_rng(5).standard_normal(200)
        a = bin_by_projection(values, 6)
        b = bin_by_projection(values, 6)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_many_bins_rejected(self):
        with pytest.raises(ValueError):
            bin_by_projection([1.0, 1.0, 2.0], 3)


def reference_bin_by_projection(values, n_bins: int) -> list[np.ndarray]:
    """bin_by_projection with masked means, per-cluster scans and
    Generator.choice: the groups the grouped form must return, bit for bit."""
    v = np.asarray(values, dtype=float)
    distinct = np.unique(v)
    if n_bins < 1 or n_bins > distinct.size:
        raise ValueError(f"need 1 <= n_bins <= {distinct.size} distinct values, got {n_bins}")
    if n_bins == distinct.size:
        return [np.flatnonzero(v == c) for c in distinct]

    rng = stream(fragility._KMEANS_SEED, "kmeans", n_bins, v.size)
    centers = np.empty(n_bins)
    centers[0] = v[rng.integers(v.size)]
    d2 = (v - centers[0]) ** 2
    for k in range(1, n_bins):
        total = d2.sum()
        if total <= 0:
            centers[k:] = centers[0]
            break
        centers[k] = v[rng.choice(v.size, p=d2 / total)]
        d2 = np.minimum(d2, (v - centers[k]) ** 2)

    assign = None
    for _ in range(fragility._KMEANS_MAX_ITER):
        new_assign = np.argmin(np.abs(v[:, None] - centers[None, :]), axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(n_bins):
            members = v[assign == k]
            if members.size:
                centers[k] = members.mean()
    order = np.argsort(centers)
    groups = [np.flatnonzero(assign == k) for k in order]
    return [g for g in groups if g.size]


BINNING_KINDS = ("normal", "ties", "lognormal", "constant half")


def binning_values(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n)
    if kind == "ties":  # few distinct values, each repeated
        return np.round(rng.standard_normal(n), 1)
    if kind == "lognormal":  # a heavy right tail
        return rng.lognormal(0.0, 2.0, n)
    values = rng.standard_normal(n)
    values[: n // 2] = 0.7
    return values


class TestBinningBits:
    """The grouped Lloyd step and the inverse-CDF draw give the groups of
    masked means and Generator.choice, and the curve's one-sum statistics the
    bits of np.mean."""

    @pytest.mark.parametrize("kind", BINNING_KINDS)
    def test_groups_equal_the_reference(self, kind):
        rng = np.random.default_rng(BINNING_KINDS.index(kind))
        for n in (3, 5, 17, 46, 125, 400, 1609):
            values = binning_values(kind, n, rng)
            distinct = np.unique(values).size
            for n_bins in sorted({k for k in (1, 2, 20, 40, distinct) if k <= distinct}):
                groups = bin_by_projection(values, n_bins)
                expected = reference_bin_by_projection(values, n_bins)
                assert len(groups) == len(expected)
                assert all(np.array_equal(g, e) for g, e in zip(groups, expected))

    def test_choice_draws_like_generator_choice(self):
        weights_rng = np.random.default_rng(14)
        for seed in range(400):
            n = (5, 46, 125, 304)[seed % 4]
            weights = weights_rng.random(n) ** 3
            weights[weights_rng.random(n) < 0.3] = 0.0  # chosen centers weigh nothing
            weights[weights_rng.integers(n)] = 1.0
            p = weights / weights.sum()
            drawn, chosen = stream(seed, "draw"), stream(seed, "draw")
            for _ in range(4):
                assert _choice(drawn, p) == chosen.choice(n, p=p)
            assert drawn.random() == chosen.random()  # the streams stay in step

    def test_choice_takes_the_right_side_of_a_step_at_the_uniform(self):
        # p's cumulative sum steps exactly at the next uniform u: choice takes
        # the index above the step, where a left-sided search takes the one below
        for seed in range(100):
            drawn, chosen = stream(seed, "step"), stream(seed, "step")
            u = copy.deepcopy(chosen).random()
            p = np.array([u, 1.0 - u])  # exact: u is a multiple of 2**-53
            assert p.cumsum()[-1] == 1.0
            assert _choice(drawn, p) == chosen.choice(2, p=p) == 1
            assert drawn.random() == chosen.random()

    @pytest.mark.parametrize("kind", BINNING_KINDS)
    def test_curve_bins_equal_np_mean(self, kind):
        rng = np.random.default_rng(20 + BINNING_KINDS.index(kind))
        for n, n_bins in ((46, 5), (125, 20), (1609, 20)):
            values = binning_values(kind, n, rng)
            labels = np.where(rng.random(n) < 0.2, 1, -1)
            probabilities = rng.random(n) ** 4
            cv = curve(labels, probabilities, values, n_bins)
            assert cv.bins == tuple(
                FragilityBin(
                    center=float(np.mean(values[g])),
                    count=int(g.size),
                    p_ref=float(np.mean(labels[g] == 1)),
                    p_est=float(np.mean(probabilities[g])),
                )
                for g in reference_bin_by_projection(values, n_bins)
            )

    def test_converged_binning_logs_nothing(self, caplog):
        with caplog.at_level(logging.WARNING, logger="seisfrag.fragility"):
            bin_by_projection(np.random.default_rng(3).standard_normal(400), 10)
        assert not caplog.records

    def test_loop_stopped_at_the_cap_is_logged(self, monkeypatch, caplog):
        monkeypatch.setattr(fragility, "_KMEANS_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="seisfrag.fragility"):
            groups = bin_by_projection(np.random.default_rng(3).standard_normal(400), 10)
        assert sum(g.size for g in groups) == 400
        assert [r.getMessage() for r in caplog.records] == [
            "k-means of 400 values into 10 bins stopped at its cap of 1 iterations short "
            "of a fixed point"
        ]

    def test_empty_bins_are_dropped_and_logged(self, caplog):
        # 1e-200 squares to 0: once 1 and a tiny value are centers, every
        # squared distance is 0, so the seeding repeats the first center. This
        # stream draws 1 first; its cluster's mean stays 1, and the repeat,
        # with the higher index, never wins a tie with it
        values = np.array([-1e-200, 0.0, 1e-200, 1.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="seisfrag.fragility"):
            groups = bin_by_projection(values, 3)
        assert [g.tolist() for g in groups] == [[0, 1, 2], [3, 4]]
        assert all(np.array_equal(g, e)
                   for g, e in zip(groups, reference_bin_by_projection(values, 3)))
        assert [r.getMessage() for r in caplog.records] == [
            "k-means of 5 values into 3 bins left 1 empty"
        ]


class TestCurve:
    def test_exact_probabilities_give_zero_distance(self):
        rng = np.random.default_rng(6)
        projection = rng.standard_normal(500)
        labels = np.where(projection > 0.3, 1, -1)
        probabilities = (labels == 1).astype(float)
        cv = curve(labels, probabilities, projection, 10)
        assert cv.delta_l2 == pytest.approx(0.0, abs=1e-12)

    def test_all_negative_pool_flat_zero(self):
        projection = np.linspace(0, 1, 200)
        labels = -np.ones(200, dtype=int)
        cv = curve(labels, np.zeros(200), projection, 5)
        assert cv.delta_l2 == 0.0
        assert all(b.p_ref == 0.0 and b.p_est == 0.0 for b in cv.bins)

    def test_counts_partition_pool(self):
        rng = np.random.default_rng(7)
        projection = rng.standard_normal(300)
        labels = np.where(rng.random(300) < 0.2, 1, -1)
        cv = curve(labels, rng.random(300), projection, 12)
        assert sum(b.count for b in cv.bins) == 300
        assert all(0.0 <= b.p_ref <= 1.0 and 0.0 <= b.p_est <= 1.0 for b in cv.bins)

    def test_monotone_probability_gives_monotone_estimates(self):
        rng = np.random.default_rng(8)
        scores = np.sort(rng.standard_normal(400))
        cal = LogisticCalibration(slope=2.0, intercept=0.1)
        labels = np.where(rng.random(400) < cal.probability(scores), 1, -1)
        cv = curve(labels, cal.probability(scores), scores, 10)
        estimates = [b.p_est for b in cv.bins]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    def test_delta_l2_bounded(self):
        bins = (
            FragilityBin(0.0, 50, 1.0, 0.0),
            FragilityBin(1.0, 50, 0.0, 1.0),
        )
        assert delta_l2(bins) == pytest.approx(1.0)


class TestSteepness:
    def test_perfect_classifier_has_zero_steepness(self):
        bins = (FragilityBin(0.0, 60, 0.0, 0.0), FragilityBin(1.0, 40, 1.0, 1.0))
        assert steepness(bins, "entropy") == 0.0
        assert steepness(bins, "uncertain_band") == 0.0

    def test_uniform_half_probabilities(self):
        bins = (FragilityBin(0.0, 30, 0.5, 0.5), FragilityBin(1.0, 70, 0.5, 0.5))
        assert steepness(bins, "uncertain_band") == pytest.approx(1.0)
        assert steepness(bins, "entropy") == pytest.approx(0.5 * math.log(2))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            steepness((FragilityBin(0.0, 1, 0.5, 0.5),), "gini")


class TestHybrid:
    def test_confident_linear_wins(self):
        assert hybrid_probability(0.01, 0.4) == pytest.approx(0.01)
        assert hybrid_probability(0.99, 0.4) == pytest.approx(0.99)

    def test_uncertain_linear_defers_to_rbf(self):
        assert hybrid_probability(0.5, 0.3) == pytest.approx(0.3)

    def test_vectorized(self):
        p = hybrid_probability([0.02, 0.5, 0.97], [0.4, 0.3, 0.2])
        assert p == pytest.approx([0.02, 0.3, 0.97])


class TestLabeledOnlyDiagnostic:
    def test_single_bin_returns_positive_fraction(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([1, -1, -1, 1])
        diag = labeled_only_diagnostic(values, labels, 1)
        assert len(diag.bins) == 1
        assert diag.bins[0].p_ref == pytest.approx(0.5)

    def test_random_subset_control_matches_true_curve(self, mini_pool):
        # with a uniformly random labeled subset the diagnostic is unbiased
        rng = np.random.default_rng(9)
        labels = mini_pool.labels
        pga = mini_pool.raw_kept[:, 8]
        subset = rng.choice(labels.size, 200, replace=False)
        diag = labeled_only_diagnostic(pga[subset], labels[subset], 8)
        reference = curve(labels, (labels == 1).astype(float), pga, 8, "pga")
        interp = np.interp(
            reference.centers, diag.centers, [b.p_ref for b in diag.bins]
        )
        ref_vals = np.array([b.p_ref for b in reference.bins])
        counts = np.array([b.count for b in reference.bins], dtype=float)
        gap = math.sqrt(np.sum(counts * (interp - ref_vals) ** 2) / counts.sum())
        assert gap < 0.1

    def test_active_learned_set_hovers_near_half(self, mini_pool):
        pool = mini_pool.make_pool()
        state = active_learn(pool, Kernel("linear"), 150, stream(77, "al"))
        diag = labeled_only_diagnostic(
            pool.raw_pga[state.labeled_indices], state.labels, 10
        )
        mean_bin_probability = float(np.mean([b.p_ref for b in diag.bins]))
        pool_rate = float(np.mean(mini_pool.labels == 1))
        assert 0.3 <= mean_bin_probability <= 0.7
        assert pool_rate < 0.2

    def test_permuted_labeled_set_gives_the_same_curve(self, mini_pool):
        pool = mini_pool.make_pool()
        state = active_learn(pool, Kernel("linear"), 150, stream(77, "al"))
        values, labels = pool.raw_pga[state.labeled_indices], np.array(state.labels)
        diag = labeled_only_diagnostic(values, labels, 10)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(labels.size)
            assert labeled_only_diagnostic(values[order], labels[order], 10) == diag
