"""Tests for the SVM core, ranking metrics, and the active-learning loop."""

import math

import numpy as np
import pytest

from seisfrag import learning
from seisfrag.learning import (
    KKT_TOL,
    Kernel,
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

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_smo(k_matrix, labels, cost, tol, alpha=None, grad=None):
    """The SMO loop that rebuilds the gradient, crit and index-set masks on every update."""
    n = labels.size
    if alpha is None:
        alpha = np.zeros(n)
        grad = -np.ones(n)
    else:
        alpha = alpha.copy()
        grad = grad.copy()
    y = labels.astype(float)
    for _ in range(max(200 * n, 20000)):
        crit = -y * grad
        up = ((y > 0) & (alpha < cost - 1e-12)) | ((y < 0) & (alpha > 1e-12))
        low = ((y < 0) & (alpha < cost - 1e-12)) | ((y > 0) & (alpha > 1e-12))
        i = int(np.argmax(np.where(up, crit, -np.inf)))
        j = int(np.argmin(np.where(low, crit, np.inf)))
        m_up = crit[i]
        m_low = crit[j]
        if m_up - m_low < tol:
            return alpha, float((m_up + m_low) / 2.0), True, grad
        quad = k_matrix[i, i] + k_matrix[j, j] - 2.0 * k_matrix[i, j]
        t = (m_up - m_low) / max(quad, 1e-12)
        if y[i] > 0:
            t = min(t, cost - alpha[i])
        else:
            t = min(t, alpha[i])
        if y[j] > 0:
            t = min(t, alpha[j])
        else:
            t = min(t, cost - alpha[j])
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        grad += t * y * (k_matrix[:, i] - k_matrix[:, j])
    crit = -y * grad
    up = ((y > 0) & (alpha < cost - 1e-12)) | ((y < 0) & (alpha > 1e-12))
    low = ((y < 0) & (alpha < cost - 1e-12)) | ((y > 0) & (alpha > 1e-12))
    m_up = float(np.max(np.where(up, crit, -np.inf)))
    m_low = float(np.min(np.where(low, crit, np.inf)))
    return alpha, (m_up + m_low) / 2.0, False, grad


def assert_same_solve(got, want):
    (alpha, bias, converged, grad), (ref_alpha, ref_bias, ref_converged, ref_grad) = got, want
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(grad, ref_grad)
    assert bias == ref_bias
    assert converged == ref_converged
    assert type(bias) is float
    # the signs of exact zeros too
    assert np.array_equal(np.signbit(alpha), np.signbit(ref_alpha))
    assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))
    assert math.copysign(1.0, bias) == math.copysign(1.0, ref_bias)


def noisy_problem(seed, n, dim=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.where(x[:, 0] + 0.5 * rng.standard_normal(n) > 0, 1, -1)
    return x, y


class TestSmoAgainstReference:
    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cold_solve(self, kernel, seed):
        x, y = noisy_problem(seed, 80)
        k = kernel.matrix(x, x)
        want = reference_smo(k, y, 10.0, KKT_TOL)
        assert want[2]
        assert_same_solve(learning._smo(k, y, 10.0, KKT_TOL), want)

    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.25)])
    def test_cold_solve_on_the_pool(self, kernel, mini_pool):
        x = mini_pool.features()[:120]
        y = mini_pool.labels[:120]
        k = kernel.matrix(x, x)
        assert_same_solve(learning._smo(k, y, 10.0, KKT_TOL), reference_smo(k, y, 10.0, KKT_TOL))

    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.5)])
    def test_warm_solve_after_appending_a_point(self, kernel):
        # as _IncrementalSvm.add: the new point enters with a zero dual weight
        x, y = noisy_problem(3, 61)
        k = kernel.matrix(x, x)
        alpha, _, _, grad = reference_smo(k[:60, :60], y[:60], 10.0, KKT_TOL)
        grad_new = y[60] * float(k[60, :60] @ (alpha * y[:60])) - 1.0
        alpha, grad = np.append(alpha, 0.0), np.append(grad, grad_new)
        want = reference_smo(k, y, 10.0, KKT_TOL, alpha, grad)
        assert_same_solve(learning._smo(k, y, 10.0, KKT_TOL, alpha, grad), want)

    def test_solve_stopped_at_its_update_cap(self):
        x, y = noisy_problem(4, 40, dim=2)
        k = Kernel("rbf", gamma=0.5).matrix(x, x)
        want = reference_smo(k, y, 10.0, 1e-300)
        assert want[2] is False
        got = learning._smo(k, y, 10.0, 1e-300)
        assert got[2] is False
        assert_same_solve(got, want)

    def test_sign_of_an_exact_zero_bias(self):
        # symmetric pair: the gradient hits exact zeros and the bias is -0.0
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, -1])
        k = Kernel("linear").matrix(x, x)
        want = reference_smo(k, y, 10.0, KKT_TOL)
        assert want[1] == 0.0 and math.copysign(1.0, want[1]) < 0
        assert_same_solve(learning._smo(k, y, 10.0, KKT_TOL), want)

    def test_incremental_model_reports_the_latest_solve(self, monkeypatch):
        x, y = noisy_problem(5, 12)
        solver = learning._smo
        report = iter([True, False, True])

        def stub(*args):
            alpha, bias, _, grad = solver(*args)
            return alpha, bias, next(report), grad

        monkeypatch.setattr(learning, "_smo", stub)
        first = [int(np.flatnonzero(y == -1)[0]), int(np.flatnonzero(y == 1)[0])]
        trainer = learning._IncrementalSvm(x, Kernel("linear"), 10.0, first, y[first], 12)
        assert trainer.model().converged is True
        rest = [i for i in range(12) if i not in first]
        trainer.add(rest[0], int(y[rest[0]]))
        assert trainer.model().converged is False
        trainer.add(rest[1], int(y[rest[1]]))
        assert trainer.model().converged is True


class TestKernelSymmetry:
    """_smo reads the rows K[i], K[j] in place of the columns, so every K it
    gets must be exactly symmetric."""

    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.25)])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [4, 13])
    def test_kernel_matrix_is_exactly_symmetric(self, kernel, order, dim):
        # cli._load_pool lays out the r4 view in F order
        x = np.asarray(np.random.default_rng(dim).standard_normal((300, dim)), order=order)
        k = kernel.matrix(x, x)
        assert np.array_equal(k, k.T)

    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.5)])
    def test_incremental_kernel_buffer_is_exactly_symmetric(self, kernel):
        x, y = noisy_problem(6, 40)
        x = np.asfortranarray(x)
        first = [int(np.flatnonzero(y == -1)[0]), int(np.flatnonzero(y == 1)[0])]
        trainer = learning._IncrementalSvm(x, kernel, 10.0, first, y[first], 40)
        for i in [i for i in range(40) if i not in first][:25]:
            trainer.add(i, int(y[i]))
        k = trainer.k_buf[: trainer.n, : trainer.n]
        assert trainer.n == 27
        assert np.array_equal(k, k.T)


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
    def test_features_labels_and_raw_columns_must_align(self):
        features = np.random.default_rng(0).standard_normal((10, 2))
        labels = np.where(np.arange(10) % 2, 1, -1)
        assert len(Pool(features, labels, np.arange(10.0), np.arange(10.0))) == 10
        with pytest.raises(ValueError, match="align"):
            Pool(features, labels[:9], np.arange(10.0), np.arange(10.0))


class TestStartPoints:
    def test_ordering_always_satisfied(self, mini_pool):
        pool = mini_pool.make_pool()
        for seed in range(50):
            j1, j2 = select_start_points(pool, np.random.default_rng(seed))
            assert pool.raw_lin_disp[j1] < pool.raw_lin_disp[j2]
            assert pool.raw_pga[j1] < pool.raw_pga[j2]
            assert pool.labels[j1] == -1
            assert pool.labels[j2] == 1

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

    def test_each_rbf_query_minimizes_absolute_score(self, mini_pool):
        # the querying models are the checkpoints kept at every size
        pool = mini_pool.make_pool()
        budget = 30
        state = active_learn(
            pool, Kernel("rbf", gamma=0.25), budget=budget, rng=np.random.default_rng(2),
            eval_at=range(2, budget),
        )
        labeled = state.labeled_indices
        assert len(set(labeled)) == budget
        for step in range(2, budget):
            scores = np.abs(state.checkpoints[step].score(pool.features))
            unlabeled = np.setdiff1d(np.arange(len(pool)), labeled[:step])
            picked = labeled[step]
            assert picked in unlabeled
            assert scores[picked] <= np.min(scores[unlabeled]) + 1e-12

    @pytest.mark.parametrize("kernel", [Kernel("linear"), Kernel("rbf", gamma=0.5)])
    def test_exact_tie_goes_to_the_smaller_pool_index(self, kernel):
        # row 5 and its duplicate at the end always score alike, so which of
        # them is queried first is decided by the tie rule alone
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(40)
        x = np.column_stack([x0, x0 + 0.3 * rng.standard_normal(40)])
        x = np.vstack([x, x[5]])
        labels = np.where(x[:, 0] + x[:, 1] > 0.5, 1, -1)
        pool = Pool(x, labels, x[:, 0], x[:, 1])
        start = select_start_points(pool, np.random.default_rng(1))
        assert not {5, 40} & set(start)
        state = active_learn(pool, kernel, budget=len(pool), rng=np.random.default_rng(1))
        assert sorted(state.labeled_indices) == list(range(len(pool)))
        assert state.labeled_indices.index(5) < state.labeled_indices.index(40)

    def test_budget_beyond_the_pool_is_refused(self, mini_pool):
        pool = mini_pool.make_pool()
        budget = len(pool) + 1
        with pytest.raises(ValueError, match=f"budget {budget} exceeds the pool's {len(pool)}"):
            active_learn(pool, Kernel("rbf", gamma=0.25), budget, np.random.default_rng(0))

    def test_deterministic_given_seed(self, mini_pool):
        pool_a = mini_pool.make_pool()
        pool_b = mini_pool.make_pool()
        state_a = active_learn(pool_a, Kernel("linear"), 30, np.random.default_rng(3))
        state_b = active_learn(pool_b, Kernel("linear"), 30, np.random.default_rng(3))
        assert state_a.labeled_indices == state_b.labeled_indices

    def test_prbp_evaluation_and_beating_pga_baseline(self, mini_pool):
        pool = mini_pool.make_pool()
        labels = mini_pool.labels
        state = active_learn(
            pool, Kernel("linear"), budget=100, rng=np.random.default_rng(5),
            eval_at=(50, 100),
        )
        evals = {h.n_labeled: h.prbp for h in state.history if h.prbp is not None}
        assert set(evals) == {50, 100}
        baseline = prbp(pool.raw_pga, labels)
        assert evals[100] > baseline

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
