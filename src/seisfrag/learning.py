"""SVM training, pool-based active learning, and ranking metrics.

The SVM dual is solved by sequential minimal optimization with
maximal-violating-pair selection. The active learner queries the unlabeled
instance with the smallest absolute score, the standard uncertainty
criterion, starting from one quantile-selected point on each side of the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_COST = 10.0
KKT_TOL = 1e-3


@dataclass(frozen=True)
class Kernel:
    kind: str  # "linear" or "rbf"
    gamma: float | None = None  # rbf width

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and (self.gamma is None or self.gamma <= 0):
            raise ValueError("rbf kernel needs gamma > 0")

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """K(a_i, b_j), each entry summed over the feature columns in their fixed
        order without BLAS, so that it depends only on its two points."""
        a, b = np.atleast_2d(a, b)
        out, term = np.zeros((len(a), len(b))), np.empty((len(a), len(b)))
        for ak, bk in zip(a.T, b.T):
            if self.kind == "linear":
                np.multiply.outer(ak, bk, out=term)
            else:
                np.subtract.outer(ak, bk, out=term)
                term *= term
            out += term
        return out if self.kind == "linear" else np.exp(-self.gamma * out)


def _smo(
    k_matrix: np.ndarray,
    labels: np.ndarray,
    cost: float,
    tol: float,
    alpha: np.ndarray | None = None,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, float, bool, np.ndarray]:
    """Maximal-violating-pair SMO on the soft-margin dual.

    Returns (alpha, bias, converged, grad). The bias is the midpoint of the
    final KKT bounds, so free support vectors sit on the margin within tol/2.
    A feasible (alpha, grad) pair warm-starts the solve; the active-learning
    loop uses this to retrain after each single-point insertion.

    The loop updates crit = -y * grad in place, which equals the gradient
    update bit for bit (y = +-1) but for the sign of exact zeros, restored on
    exit; up/low membership is a 0 or -+inf penalty, set only where alpha moved.

    k_matrix must be exactly symmetric, as every `Kernel.matrix(x, x)` and
    every buffer filled from its columns is: the update reads the contiguous
    rows K[i] and K[j] in place of the strided columns.
    """
    n = labels.size
    if alpha is None:
        alpha, grad = np.zeros(n), -np.ones(n)  # gradient of 1/2 a^T Q a - e^T a at a = 0
    y = labels.astype(float)
    crit = -y * grad
    hi = cost - 1e-12
    up_pen = np.where(np.where(y > 0, alpha < hi, alpha > 1e-12), 0.0, -np.inf)
    low_pen = np.where(np.where(y > 0, alpha > 1e-12, alpha < hi), 0.0, np.inf)
    up_crit, low_crit, step = np.empty(n), np.empty(n), np.empty(n)
    alpha, ys, diag = alpha.tolist(), y.tolist(), k_matrix.diagonal().tolist()
    max_updates = max(200 * n, 20000)

    for _ in range(max_updates):
        i = int(np.add(crit, up_pen, up_crit).argmax())
        j = int(np.add(crit, low_pen, low_crit).argmin())
        m_up, m_low = crit.item(i), crit.item(j)
        if m_up - m_low < tol:
            break

        row_i, row_j = k_matrix[i], k_matrix[j]
        quad = diag[i] + diag[j] - 2.0 * row_i.item(j)
        t = (m_up - m_low) / (quad if quad >= 1e-12 else 1e-12)
        # box constraints along the feasible direction (+y_i e_i, -y_j e_j)
        room = cost - alpha[i] if ys[i] > 0 else alpha[i]
        if room < t:
            t = room
        room = alpha[j] if ys[j] > 0 else cost - alpha[j]
        if room < t:
            t = room
        alpha[i] += ys[i] * t
        alpha[j] -= ys[j] * t
        np.subtract(row_i, row_j, step)
        step *= t
        crit -= step
        for k in (i, j):
            pos, ak = ys[k] > 0, alpha[k]
            up_pen[k] = 0.0 if (ak < hi if pos else ak > 1e-12) else -np.inf
            low_pen[k] = 0.0 if (ak > 1e-12 if pos else ak < hi) else np.inf

    converged = m_up - m_low < tol
    grad = 0.0 - y * crit  # the gradient update never yields -0.0
    crit = -y * grad
    if converged:
        m_up, m_low = float(crit[i]), float(crit[j])
    else:
        m_up = float(np.max(np.where(up_pen == 0.0, crit, -np.inf)))
        m_low = float(np.min(np.where(low_pen == 0.0, crit, np.inf)))
    return np.array(alpha), (m_up + m_low) / 2.0, converged, grad


def _expand(k_block: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """k_block @ coefficients summed by numpy's own loop, on any BLAS thread
    count the same for `active_learn`'s kept columns as for a fresh block."""
    return np.einsum("ij,j->i", k_block, coefficients)


@dataclass(frozen=True)
class SvmModel:
    """Kernel expansion f(x) = sum coef_k K(x_k, x) + bias, coef signed by label."""

    support_x: np.ndarray  # training inputs, one row per labeled point
    coefficients: np.ndarray  # alpha_k * l_k
    bias: float
    kernel: Kernel
    labeled_refs: np.ndarray  # pool indices of the labeled points
    labels: np.ndarray  # training labels, +-1
    converged: bool = True
    weights: np.ndarray | None = field(init=False, default=None)  # linear kernel only

    def __post_init__(self):
        if self.kernel.kind == "linear":
            object.__setattr__(self, "weights", self.support_x.T @ self.coefficients)

    def score(self, x: np.ndarray) -> np.ndarray | float:
        single = np.ndim(x) == 1
        if self.weights is not None:
            out = self.kernel.matrix(x, self.weights)[:, 0] + self.bias
        else:
            out = _expand(self.kernel.matrix(x, self.support_x), self.coefficients) + self.bias
        return float(out[0]) if single else out


def train_svm(
    features: np.ndarray,
    labels,
    kernel: Kernel,
    cost: float = DEFAULT_COST,
    refs: np.ndarray | None = None,
) -> SvmModel:
    """Soft-margin SVM on the labeled points; both classes must be present."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if x.shape[0] != y.size or y.size < 2:
        raise ValueError("need at least two labeled points with matching features")
    if len(np.unique(y)) < 2:
        raise ValueError("training set contains a single class")
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError("labels must be -1 or +1")

    k_matrix = kernel.matrix(x, x)
    alpha, bias, converged, _ = _smo(k_matrix, y, cost, KKT_TOL)
    if refs is None:
        refs = np.arange(y.size)
    return SvmModel(
        support_x=x,
        coefficients=alpha * y,
        bias=bias,
        kernel=kernel,
        labeled_refs=np.asarray(refs),
        labels=y,
        converged=converged,
    )


def dual_objective(model: SvmModel, alpha: np.ndarray | None = None) -> float:
    """Value of the dual objective at the model's (or any feasible) alpha."""
    a = np.abs(model.coefficients) if alpha is None else np.asarray(alpha, dtype=float)
    signed = a * model.labels
    k = model.kernel.matrix(model.support_x, model.support_x)
    return float(np.sum(a) - 0.5 * signed @ k @ signed)


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def prbp(scores, labels) -> float:
    """Precision/recall breakeven: positive fraction among the top-N+ scores.

    Ties in the score resolve by the stable original order.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    if n_pos == 0:
        raise ValueError("PRBP needs at least one positive label")
    order = np.argsort(-s, kind="stable")
    top = order[:n_pos]
    return float(np.sum(y[top] == 1) / n_pos)


def roc_curve(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """(FPR, TPR) over the sweep of decision thresholds, tie groups merged."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(y == 1))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC needs both classes")
    order = np.argsort(-s, kind="stable")
    sorted_scores = s[order]
    tp = np.cumsum(y[order] == 1)
    fp = np.cumsum(y[order] == -1)
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0)
    idx = np.concatenate([distinct, [y.size - 1]])
    fpr = np.concatenate([[0.0], fp[idx] / n_neg])
    tpr = np.concatenate([[0.0], tp[idx] / n_pos])
    return fpr, tpr


def auc(scores, labels) -> float:
    fpr, tpr = roc_curve(scores, labels)
    return float(np.trapezoid(tpr, fpr))


# ---------------------------------------------------------------------------
# pool and active learning
# ---------------------------------------------------------------------------


class Pool:
    """The kept pool: transformed features, reference labels, raw PGA and L."""

    def __init__(self, features: np.ndarray, labels, raw_pga: np.ndarray,
                 raw_lin_disp: np.ndarray):
        self.features = np.atleast_2d(np.asarray(features, dtype=float))
        self.labels = np.asarray(labels, dtype=int)
        self.raw_pga = np.asarray(raw_pga, dtype=float)
        self.raw_lin_disp = np.asarray(raw_lin_disp, dtype=float)
        if not (len(self.features) == self.labels.size == self.raw_pga.size
                == self.raw_lin_disp.size):
            raise ValueError("feature matrix, labels and raw columns must align")

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class HistoryEntry:
    n_labeled: int
    queried: int  # pool index queried to reach n_labeled
    label: int
    prbp: float | None = None
    weights: np.ndarray | None = None  # the linear model's w at n_labeled; None for RBF


@dataclass
class ActiveState:
    labeled_indices: list
    labels: list
    model: SvmModel
    history: list = field(default_factory=list)
    checkpoints: dict = field(default_factory=dict)  # eval_at size -> the model held there
    unconverged_solves: int = 0  # incremental SMO solves that stopped at the update cap


class _IncrementalSvm:
    """Grows a labeled set one point at a time, warm-starting each SMO solve.

    The kernel matrix lives in a preallocated buffer; appending a point adds
    one row/column and a zero dual weight, which leaves the previous solution
    feasible, so the resolve typically needs only a handful of updates. Its
    entries are read off the caller's columns K(features, labeled point).
    """

    def __init__(self, features, kernel: Kernel, cost: float, indices, labels, columns, capacity):
        self.features = features
        self.kernel = kernel
        self.cost = cost
        self.n = n = len(indices)
        self.indices = np.empty(capacity, dtype=np.intp)
        self.labels = np.empty(capacity, dtype=int)
        self.indices[:n] = indices
        self.labels[:n] = labels
        self.k_buf = np.empty((capacity, capacity))
        self.k_buf[:n, :n] = columns[self.indices[:n]]
        self.alpha, self.bias, self.converged, self.grad = _smo(
            self.k_buf[:n, :n], self.labels[:n], cost, KKT_TOL
        )
        self.unconverged_solves = int(not self.converged)  # solves stopped at the update cap

    def add(self, index: int, label: int, column: np.ndarray) -> None:
        n = self.n
        row = column[self.indices[:n]]
        self.k_buf[n, :n] = row
        self.k_buf[:n, n] = row
        self.k_buf[n, n] = column[index]
        grad_new = label * float(row @ (self.alpha * self.labels[:n])) - 1.0
        self.indices[n] = index
        self.labels[n] = label
        self.alpha = np.append(self.alpha, 0.0)
        self.grad = np.append(self.grad, grad_new)
        self.n = n = n + 1
        self.alpha, self.bias, self.converged, self.grad = _smo(
            self.k_buf[:n, :n], self.labels[:n], self.cost, KKT_TOL, self.alpha, self.grad
        )
        self.unconverged_solves += not self.converged

    def model(self) -> SvmModel:
        """The current solution; converged reports the latest solve."""
        idx, y = self.indices[: self.n].copy(), self.labels[: self.n].copy()
        return SvmModel(
            support_x=self.features[idx],
            coefficients=self.alpha * y,
            bias=self.bias,
            kernel=self.kernel,
            labeled_refs=idx,
            labels=y,
            converged=self.converged,
        )


def select_start_points(pool: Pool, rng: np.random.Generator) -> tuple[int, int]:
    """One almost-surely-negative and one almost-surely-positive start.

    The negative start comes from below both medians of (PGA, L), the
    positive one from above both 9th deciles; a draw whose label disagrees
    is discarded and redrawn.
    """
    pga, lin = pool.raw_pga, pool.raw_lin_disp
    low_set = np.flatnonzero((pga < np.quantile(pga, 0.5)) & (lin < np.quantile(lin, 0.5)))
    high_set = np.flatnonzero((pga > np.quantile(pga, 0.9)) & (lin > np.quantile(lin, 0.9)))

    def draw(candidates: np.ndarray, wanted: int) -> int:
        remaining = list(candidates)
        while remaining:
            pick = remaining.pop(int(rng.integers(len(remaining))))
            if pool.labels[pick] == wanted:
                return int(pick)
        raise RuntimeError(f"no candidate with label {wanted} among {candidates.size} draws")

    j1 = draw(low_set, -1)
    j2 = draw(high_set, +1)
    return j1, j2


def active_learn(
    pool: Pool,
    kernel: Kernel,
    budget: int,
    rng: np.random.Generator,
    cost: float = DEFAULT_COST,
    eval_at: tuple = (),
) -> ActiveState:
    """Uncertainty-sampling loop: train, score the pool, query argmin |score|.

    One step per labeled-set size n = 2..budget: label the previous pick,
    take the model, score the whole pool once, then record PRBP (at the
    eval_at sizes, against the pool's labels, keeping the model in
    `checkpoints` under n) and query the unlabeled point of smallest
    |score|. Ties in the query pick the smallest pool index. Deterministic
    given the rng state.

    Intermediate models come from warm-started solves of the growing dual;
    the final model is retrained from scratch so it is exactly what a refit
    of the stored labeled set produces.

    K(pool, labeled) is kept as one column per labeled point in query order
    (the model's support order), so each step computes one new column, which
    the trainer reads too. A linear step scores the pool by `SvmModel.score`;
    an RBF step from the kept columns, bitwise as `SvmModel.score` does.
    """
    if budget < 2:
        raise ValueError("budget must allow at least the two start points")
    if budget > len(pool):
        raise ValueError(f"budget {budget} exceeds the pool's {len(pool)} points")
    eval_at = set(eval_at)

    j1, j2 = select_start_points(pool, rng)
    labeled = [j1, j2]
    labels = [int(pool.labels[j1]), int(pool.labels[j2])]
    state = ActiveState(labeled_indices=labeled, labels=labels, model=None)
    k_cols = np.empty((len(pool), budget))
    k_cols[:, :2] = kernel.matrix(pool.features, pool.features[labeled])
    trainer = _IncrementalSvm(pool.features, kernel, cost, labeled, labels, k_cols[:, :2], budget)
    pick = j2
    for n in range(2, budget + 1):  # the labeled-set size once pick is labeled
        if n > 2:
            labeled.append(pick)
            labels.append(int(pool.labels[pick]))
            k_cols[:, n - 1] = kernel.matrix(pool.features, pool.features[pick])[:, 0]
            trainer.add(pick, labels[-1], k_cols[:, n - 1])
        if n == budget:
            # cold retrain: the stored model equals a refit of its labeled set
            model = train_svm(pool.features[labeled], labels, kernel, cost, refs=np.array(labeled))
        else:
            model = trainer.model()
        state.model = model
        if model.weights is not None:
            scores = model.score(pool.features)
        else:
            scores = _expand(k_cols[:, :n], model.coefficients) + model.bias
        value = None
        if n in eval_at:
            state.checkpoints[n] = model
            value = prbp(scores, pool.labels)
        state.history.append(HistoryEntry(n, pick, labels[-1], value, model.weights))
        if n < budget:
            margin = np.abs(scores)
            margin[labeled] = np.inf  # ties still go to the smallest index
            pick = int(margin.argmin())
    state.unconverged_solves = trainer.unconverged_solves
    return state
