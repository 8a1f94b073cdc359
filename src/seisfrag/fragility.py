"""Score calibration and non-parametric fragility curves.

Scores become probabilities through a logistic function fitted on the labeled
set only; curves compare, per k-means bin of a chosen projection (score, PGA
or linear displacement), the mean calibrated probability against the
ground-truth positive fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import stream

SLOPE_CAP = 1e3
DEFAULT_BINS = 20
_KMEANS_SEED = 20240  # fixed seeding stream for reproducible binning
_KMEANS_MAX_ITER = 300
_NEWTON_TOL = 1e-6  # gradient norm that ends the calibration's Newton iterations
_NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class LogisticCalibration:
    slope: float  # a in p = 1 / (1 + exp(-a f + b))
    intercept: float  # b
    separated: bool = False  # slope hit the cap (perfectly separable scores)

    def probability(self, scores) -> np.ndarray | float:
        s = np.asarray(scores, dtype=float)
        out = 1.0 / (1.0 + np.exp(np.clip(-self.slope * s + self.intercept, -500, 500)))
        return float(out) if np.ndim(scores) == 0 else out


def _log_likelihood(eta: np.ndarray, y01: np.ndarray) -> float:
    # stable Bernoulli log-likelihood with logits eta
    return float(np.sum(y01 * eta - np.logaddexp(0.0, eta)))


def fit_logistic(scores, labels) -> LogisticCalibration:
    """Maximum-likelihood logistic calibration by damped Newton iterations.

    Perfect separation drives the slope to infinity; it is capped at 1e3 and
    flagged, with the intercept refitted at the capped slope. For separated
    scores that refit starts at the point of the gap between the classes
    nearest 0, where the likelihood is not yet flat.
    """
    f = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if len(np.unique(y)) < 2:
        raise ValueError("calibration needs both classes")
    y01 = (y == 1).astype(float)

    top_negative, bottom_positive = np.max(f[y == -1]), np.min(f[y == 1])
    if top_negative < bottom_positive:
        # perfectly separated scores: the MLE slope diverges
        a = SLOPE_CAP
        b = float(np.clip(0.0, a * top_negative, a * bottom_positive))
        return LogisticCalibration(slope=a, intercept=_refit_intercept(f, y01, a, b),
                                   separated=True)

    a, b = 1.0, 0.0
    for _ in range(_NEWTON_MAX_ITER):
        eta = a * f - b
        p = 1.0 / (1.0 + np.exp(np.clip(-eta, -500, 500)))
        grad = np.array([np.sum((y01 - p) * f), -np.sum(y01 - p)])
        if np.linalg.norm(grad) < _NEWTON_TOL:
            break
        w = np.maximum(p * (1.0 - p), 1e-12)
        h_aa = np.sum(w * f * f)
        h_ab = -np.sum(w * f)
        h_bb = np.sum(w)
        hess = np.array([[h_aa, h_ab], [h_ab, h_bb]])
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = grad / max(h_aa, h_bb)
        ll_old = _log_likelihood(eta, y01)
        damp = 1.0
        for _ in range(40):
            a_new, b_new = a + damp * step[0], b + damp * step[1]
            if _log_likelihood(a_new * f - b_new, y01) >= ll_old:
                break
            damp *= 0.5
        a, b = a + damp * step[0], b + damp * step[1]
        if abs(a) >= SLOPE_CAP:
            a = math.copysign(SLOPE_CAP, a)
            b = _refit_intercept(f, y01, a, b)
            return LogisticCalibration(slope=a, intercept=b, separated=True)
    return LogisticCalibration(slope=float(a), intercept=float(b))


def _refit_intercept(f: np.ndarray, y01: np.ndarray, a: float, b: float) -> float:
    """Maximum-likelihood intercept at the fixed slope a, by Newton ascent from b."""
    for _ in range(100):
        eta = a * f - b
        p = 1.0 / (1.0 + np.exp(np.clip(-eta, -500, 500)))
        grad = -np.sum(y01 - p)  # d loglik / d b
        hess = np.sum(np.maximum(p * (1 - p), 1e-12))  # - d2 loglik / d b2
        step = grad / hess
        b += step
        if abs(step) < 1e-9:
            break
    return float(b)


# ---------------------------------------------------------------------------
# 1-D k-means binning
# ---------------------------------------------------------------------------


def bin_by_projection(values, n_bins: int) -> list[np.ndarray]:
    """Lloyd's algorithm on 1-D values with k-means++ seeding, fixed seed.

    Returns index groups sorted by center; in one dimension the groups are
    contiguous intervals of the sorted values.
    """
    v = np.asarray(values, dtype=float)
    distinct = np.unique(v)
    if n_bins < 1 or n_bins > distinct.size:
        raise ValueError(f"need 1 <= n_bins <= {distinct.size} distinct values, got {n_bins}")
    if n_bins == distinct.size:
        return [np.flatnonzero(v == c) for c in distinct]

    rng = stream(_KMEANS_SEED, "kmeans", n_bins, v.size)
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
    for _ in range(_KMEANS_MAX_ITER):
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


def kmeans_objective(values, groups) -> float:
    v = np.asarray(values, dtype=float)
    return float(sum(np.sum((v[g] - v[g].mean()) ** 2) for g in groups))


# ---------------------------------------------------------------------------
# fragility curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FragilityBin:
    center: float
    count: int
    p_ref: float  # ground-truth positive fraction
    p_est: float  # mean calibrated probability


@dataclass(frozen=True)
class FragilityCurve:
    projection_name: str
    bins: tuple
    delta_l2: float
    entropy: float
    uncertain_fraction: float

    @property
    def centers(self) -> np.ndarray:
        return np.array([b.center for b in self.bins])


def delta_l2(bins) -> float:
    """Count-weighted root-mean-square gap between reference and estimate."""
    counts = np.array([b.count for b in bins], dtype=float)
    gaps = np.array([b.p_ref - b.p_est for b in bins])
    return float(math.sqrt(np.sum(counts * gaps**2) / np.sum(counts)))


def steepness(curve_or_bins, phi: str = "entropy") -> float:
    """Count-weighted average of phi(p_est); lower means a steeper curve."""
    bins = curve_or_bins.bins if isinstance(curve_or_bins, FragilityCurve) else curve_or_bins
    counts = np.array([b.count for b in bins], dtype=float)
    p = np.array([b.p_est for b in bins])
    if phi == "entropy":
        vals = np.where(p > 0, -p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    elif phi == "uncertain_band":
        vals = ((p >= 0.1) & (p <= 0.9)).astype(float)
    else:
        raise ValueError(f"unknown steepness variant {phi!r}")
    return float(np.sum(counts * vals) / np.sum(counts))


def curve(
    labels,
    probabilities,
    projection_values,
    n_bins: int = DEFAULT_BINS,
    projection_name: str = "score",
    groups: list[np.ndarray] | None = None,
) -> FragilityCurve:
    """Binned reference and estimated exceedance probabilities plus diagnostics.

    groups, if given, must be bin_by_projection(projection_values, n_bins).
    """
    y = np.asarray(labels, dtype=int)
    p = np.asarray(probabilities, dtype=float)
    v = np.asarray(projection_values, dtype=float)
    if not (y.size == p.size == v.size):
        raise ValueError("labels, probabilities and projection must align")
    if groups is None:
        groups = bin_by_projection(v, n_bins)
    bins = tuple(
        FragilityBin(
            center=float(v[g].mean()),
            count=int(g.size),
            p_ref=float(np.mean(y[g] == 1)),
            p_est=float(np.mean(p[g])),
        )
        for g in groups
    )
    return FragilityCurve(
        projection_name=projection_name,
        bins=bins,
        delta_l2=delta_l2(bins),
        entropy=steepness(bins, "entropy"),
        uncertain_fraction=steepness(bins, "uncertain_band"),
    )


def hybrid_probability(p_lin, p_rbf) -> np.ndarray:
    """Linear probability where it is confident (<0.05 or >0.95), RBF elsewhere."""
    p_lin = np.asarray(p_lin, dtype=float)
    p_rbf = np.asarray(p_rbf, dtype=float)
    confident = (p_lin < 0.05) | (p_lin > 0.95)
    return np.where(confident, p_lin, p_rbf)


def labeled_only_diagnostic(labeled_values, labeled_labels, n_bins: int) -> FragilityCurve:
    """Empirical curve from the labeled set alone: the cautionary anti-pattern.

    An actively learned labeled set clusters near the decision boundary, so
    this curve hovers near 1/2 regardless of the true curve; it is emitted
    only for the report, with a warning. Its estimate is the labels
    themselves, so each bin's p_est equals its p_ref. The values are binned
    in sorted order, so the curve depends on the labeled set, not on the
    order in which it was queried.
    """
    order = np.argsort(labeled_values, kind="stable")
    v = np.asarray(labeled_values, dtype=float)[order]
    y = np.asarray(labeled_labels, dtype=int)[order]
    n_bins = min(n_bins, np.unique(v).size)
    return curve(y, y == 1, v, n_bins, "labeled_only_pga")
