"""Tests for the SVM core, ranking metrics, and the active-learning loop."""

import numpy as np
import pytest

from seisfrag.learning import (
    Kernel,
    OracleError,
    Pool,
    active_learn,
    auc,
    dual_objective,
    prbp,
    roc_curve,
    select_start_points,
    train_svm,
    weight_trace,
)


class TestSvmCore:
    def test_two_point_margin_bisection(self):
        x_pos = np.array([2.0, 1.0])
        x_neg = np.array([0.0, 0.0])
        model = train_svm(np.vstack([x_pos, x_neg]), [1, -1], Kernel("linear"), cost=100.0)
        diff = x_pos - x_neg
        expected_w = 2.0 * diff / np.dot(diff, diff)
        assert model.weights == pytest.approx(expected_w, abs=1e-6)
        assert model.score((x_pos + x_neg) / 2) == pytest.approx(0.0, abs=1e-6)
        assert model.score(x_pos) == pytest.approx(1.0, abs=1e-3)
        assert model.score(x_neg) == pytest.approx(-1.0, abs=1e-3)

    def test_xor_separability(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, -1, -1])
        linear = train_svm(x, y, Kernel("linear"), cost=100.0)
        assert np.sum(np.sign(linear.score(x)) != y) >= 1
        rbf = train_svm(x, y, Kernel("rbf", gamma=1.0), cost=100.0)
        assert np.sum(np.sign(rbf.score(x)) != y) == 0

    def test_dual_objective_certificate(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1, -1)
        cost = 10.0
        model = train_svm(x, y, Kernel("rbf", gamma=0.5), cost=cost)
        d_star = dual_objective(model)
        for _ in range(100):
            u = rng.uniform(0, cost, size=40)
            s_pos, s_neg = u[y == 1].sum(), u[y == -1].sum()
            t = min(s_pos, s_neg)
            u[y == 1] *= t / s_pos
            u[y == -1] *= t / s_neg
            assert d_star >= dual_objective(model, u) - 1e-9

    def test_free_support_vectors_on_margin(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((60, 2))
        y = np.where(x[:, 0] + 0.3 * rng.standard_normal(60) > 0, 1, -1)
        cost = 10.0
        model = train_svm(x, y, Kernel("linear"), cost=cost)
        alpha = np.abs(model.coefficients)
        free = (alpha > 1e-8) & (alpha < cost - 1e-8)
        assert free.any()
        margins = model.labels[free] * model.score(x[free])
        assert np.max(np.abs(margins - 1.0)) <= 1e-3

    def test_linear_weight_form_matches_kernel_form(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 4))
        y = np.where(x @ np.array([1.0, -2.0, 0.5, 0.0]) > 0, 1, -1)
        model = train_svm(x, y, Kernel("linear"), cost=10.0)
        probe = rng.standard_normal((1000, 4))
        kernel_scores = model.kernel.matrix(probe, model.support_x) @ model.coefficients + model.bias
        assert np.max(np.abs(model.score(probe) - kernel_scores)) < 1e-8

    def test_rbf_score_tends_to_bias_far_away(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 2))
        y = np.where(x[:, 0] > 0, 1, -1)
        model = train_svm(x, y, Kernel("rbf", gamma=1.0), cost=10.0)
        assert model.score(np.array([500.0, 500.0])) == pytest.approx(model.bias, abs=1e-8)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            train_svm(np.ones((3, 2)), [1, 1, 1], Kernel("linear"))

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("poly")
        with pytest.raises(ValueError):
            Kernel("rbf")


class TestPrbp:
    def test_hand_case(self):
        assert prbp([5, 4, 3, 2, 1, 0], [1, 1, -1, -1, 1, -1]) == pytest.approx(2 / 3)

    def test_perfect_ordering(self):
        labels = np.array([-1] * 50 + [1] * 20)
        scores = np.arange(70, dtype=float)
        assert prbp(scores, labels) == 1.0

    def test_random_scores_approach_base_rate(self):
        rng = np.random.default_rng(0)
        n, n_pos = 4000, 800
        labels = np.array([1] * n_pos + [-1] * (n - n_pos))
        rng.shuffle(labels)
        scores = rng.standard_normal(n)
        assert prbp(scores, labels) == pytest.approx(n_pos / n, abs=0.05)

    def test_constant_column_tiebreak(self):
        # evenly interleaved positives: stable tie-break gives exactly the base rate
        n, period = 16, 4
        labels = np.array([1 if i % period == 0 else -1 for i in range(n)])
        assert prbp(np.zeros(n), labels) == pytest.approx((n // period) / n)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(300)
        labels = np.where(rng.random(300) < 0.3, 1, -1)
        assert prbp(scores, labels) == prbp(np.exp(scores), labels)

    def test_needs_positives(self):
        with pytest.raises(ValueError):
            prbp([1.0, 2.0], [-1, -1])


class TestRoc:
    def test_perfect_separation(self):
        labels = np.array([-1] * 30 + [1] * 10)
        scores = np.arange(40, dtype=float)
        assert auc(scores, labels) == pytest.approx(1.0)

    def test_null_scores(self):
        rng = np.random.default_rng(2)
        labels = np.where(rng.random(1000) < 0.4, 1, -1)
        scores = rng.standard_normal(1000)
        assert auc(scores, labels) == pytest.approx(0.5, abs=0.05)

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(3)
        scores = np.round(rng.standard_normal(400), 1)  # force ties
        labels = np.where(rng.random(400) < 1 / (1 + np.exp(-scores)), 1, -1)
        pos, neg = scores[labels == 1], scores[labels == -1]
        u = (np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (
            pos.size * neg.size
        )
        assert abs(auc(scores, labels) - u) < 1e-10

    def test_curve_endpoints(self):
        fpr, tpr = roc_curve([3.0, 2.0, 1.0], [1, -1, 1])
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(200)
        labels = np.where(rng.random(200) < 0.5, 1, -1)
        assert auc(scores, labels) == pytest.approx(auc(3 * scores + 7, labels), abs=1e-12)


class TestPool:
    def test_oracle_called_once_per_index(self):
        calls = []

        def oracle(i):
            calls.append(i)
            return 1 if i % 2 else -1

        pool = Pool(np.random.default_rng(0).standard_normal((10, 2)),
                    np.arange(10.0), np.arange(10.0), oracle)
        for _ in range(3):
            pool.label(4)
            pool.label(5)
        assert calls == [4, 5]
        assert pool.oracle_calls == 2


class TestStartPoints:
    def test_ordering_always_satisfied(self, mini_pool):
        pool = mini_pool.make_pool()
        for seed in range(50):
            j1, j2 = select_start_points(pool, np.random.default_rng(seed))
            assert pool.raw_lin_disp[j1] < pool.raw_lin_disp[j2]
            assert pool.raw_pga[j1] < pool.raw_pga[j2]
            assert pool.label(j1) == -1
            assert pool.label(j2) == 1

    def test_low_corner_is_almost_surely_negative(self, mini_pool):
        pool = mini_pool.make_pool()
        pga, lin = pool.raw_pga, pool.raw_lin_disp
        low = (pga < np.quantile(pga, 0.5)) & (lin < np.quantile(lin, 0.5))
        frac_negative = np.mean(mini_pool.labels[low] == -1)
        assert frac_negative >= 0.99

    def test_high_corner_positive_fraction(self, mini_pool):
        pool = mini_pool.make_pool()
        pga, lin = pool.raw_pga, pool.raw_lin_disp
        high = (pga > np.quantile(pga, 0.9)) & (lin > np.quantile(lin, 0.9))
        frac_positive = np.mean(mini_pool.labels[high] == 1)
        assert 0.9 <= frac_positive <= 1.0


class TestActiveLearning:
    def test_budget_two_is_just_the_start_pair(self, mini_pool):
        pool = mini_pool.make_pool()
        state = active_learn(pool, Kernel("linear"), budget=2, rng=np.random.default_rng(0))
        assert len(state.labeled_indices) == 2
        assert sorted(set(state.labels)) == [-1, 1]

    def test_each_query_minimizes_absolute_score(self, mini_pool):
        # the querying models are reconstructed exactly from the weight/bias trace
        pool = mini_pool.make_pool()
        budget = 20
        state = active_learn(pool, Kernel("linear"), budget=budget, rng=np.random.default_rng(1))
        labeled = state.labeled_indices
        assert len(labeled) == budget
        assert len(set(labeled)) == budget
        for step in range(2, budget):
            w = state.weight_trace[step - 2]
            b = state.bias_trace[step - 2]
            scores = pool.features @ w + b
            unlabeled = np.setdiff1d(np.arange(len(pool)), labeled[:step])
            picked = labeled[step]
            assert abs(scores[picked]) <= np.min(np.abs(scores[unlabeled])) + 1e-12

    def test_deterministic_given_seed(self, mini_pool):
        pool_a = mini_pool.make_pool()
        pool_b = mini_pool.make_pool()
        state_a = active_learn(pool_a, Kernel("linear"), 30, np.random.default_rng(3))
        state_b = active_learn(pool_b, Kernel("linear"), 30, np.random.default_rng(3))
        assert state_a.labeled_indices == state_b.labeled_indices

    def test_oracle_calls_match_labeled_set(self, mini_pool):
        pool = mini_pool.make_pool()
        budget = 25
        state = active_learn(pool, Kernel("linear"), budget, np.random.default_rng(4))
        # one oracle call per distinct labeled index plus any rejected start draws
        assert pool.oracle_calls == len(pool.label_cache)
        assert set(state.labeled_indices) <= set(pool.label_cache)

    def test_prbp_evaluation_and_beating_pga_baseline(self, mini_pool):
        pool = mini_pool.make_pool()
        labels = mini_pool.labels
        state = active_learn(
            pool, Kernel("linear"), budget=100, rng=np.random.default_rng(5),
            eval_at=(50, 100), eval_labels=labels,
        )
        evals = {h.n_labeled: h.prbp for h in state.history if h.prbp is not None}
        assert set(evals) == {50, 100}
        baseline = prbp(pool.raw_pga, labels)
        assert evals[100] > baseline

    def test_oracle_failure_preserves_state_and_resumes(self, mini_pool):
        labels = mini_pool.labels
        boom_at = 10

        class FlakyOracle:
            def __init__(self):
                self.count = 0

            def __call__(self, i):
                self.count += 1
                if self.count == boom_at:
                    raise RuntimeError("solver crashed")
                return int(labels[i])

        pool = Pool(mini_pool.features(), mini_pool.raw_kept[:, 8],
                    mini_pool.raw_kept[:, 12], FlakyOracle())
        with pytest.raises(OracleError) as excinfo:
            active_learn(pool, Kernel("linear"), budget=30, rng=np.random.default_rng(6))
        partial = excinfo.value.state
        assert partial is not None
        resumed = active_learn(
            pool, Kernel("linear"), budget=30, rng=np.random.default_rng(6), resume=partial
        )
        clean_pool = mini_pool.make_pool()
        reference = active_learn(clean_pool, Kernel("linear"), budget=30, rng=np.random.default_rng(6))
        assert resumed.labeled_indices == reference.labeled_indices

    def test_refit_reproduces_pool_labels(self, mini_pool):
        pool = mini_pool.make_pool()
        state = active_learn(pool, Kernel("linear"), 60, np.random.default_rng(7))
        refit = train_svm(
            pool.features[state.labeled_indices], state.labels, Kernel("linear")
        )
        original = np.sign(state.model.score(pool.features))
        again = np.sign(refit.score(pool.features))
        assert np.array_equal(original, again)


class TestWeightTrace:
    def test_trace_shape_and_finiteness(self, mini_pool):
        pool = mini_pool.make_pool()
        budget = 40
        state = active_learn(pool, Kernel("linear"), budget, np.random.default_rng(8))
        trace = weight_trace(state)
        assert trace.shape == (budget - 1, pool.features.shape[1])
        assert np.all(np.isfinite(trace))

    def test_rbf_run_has_no_trace(self, mini_pool):
        pool = mini_pool.make_pool()
        state = active_learn(pool, Kernel("rbf", gamma=0.25), 10, np.random.default_rng(9))
        with pytest.raises(ValueError):
            weight_trace(state)

    def test_dominant_components_are_lin_disp_and_pga(self, mini_pool):
        hits = 0
        runs = 5
        for seed in range(runs):
            pool = mini_pool.make_pool()
            state = active_learn(pool, Kernel("linear"), 150, np.random.default_rng(20 + seed))
            w = np.abs(weight_trace(state)[-1])
            if set(np.argsort(w)[-2:]) == {0, 1}:  # lin_disp, pga in the r4 layout
                hits += 1
        assert hits >= 3
