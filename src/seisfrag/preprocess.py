"""Pool filtering, per-component Box-Cox transform, and standardization.

Only signals whose peak linear displacement falls in [Y, 6Y] are kept: below
Y the oscillator stays elastic (the label is known), above 6Y the mechanical
model stops being credible. The transform constants are fitted once on the
kept pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .features import N_FEATURES, R4_INDICES
from .table import read_table, write_table

DELTA_BRACKET = (-3.0, 3.0)
_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0

UPPER_MULTIPLE = 6.0
# fewest values an exponent is fitted on; labels writes no transform for a smaller kept pool
BOXCOX_MIN_VALUES = 30


def filter_pool(lin_disps, yield_y: float) -> np.ndarray:
    """Indices of signals with yield_y <= L <= UPPER_MULTIPLE * yield_y."""
    l_arr = np.asarray(lin_disps, dtype=float)
    mask = (l_arr >= yield_y) & (l_arr <= UPPER_MULTIPLE * yield_y)
    return np.flatnonzero(mask)


def _logs(x) -> np.ndarray:
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("Box-Cox input must be strictly positive")
    return np.log(x_arr)


def boxcox(x, delta: float):
    """Two-branch power transform, continuous in delta at 0. Requires x > 0."""
    logs = _logs(x)
    if delta == 0.0:
        out = logs
    else:
        out = np.expm1(delta * logs) / delta
    return float(out) if np.ndim(x) == 0 else out


def boxcox_loglik(column: np.ndarray, delta: float) -> float:
    """Profile normal log-likelihood of the transformed data, Jacobian included."""
    logs = _logs(column)
    return _loglik(logs, float(np.sum(logs)), delta)


def _loglik(logs: np.ndarray, log_sum: float, delta: float) -> float:
    """boxcox_loglik of the column whose logs and their sum are given."""
    y = logs if delta == 0.0 else np.expm1(delta * logs) / delta
    var = float(np.var(y))
    if var <= 0:
        return -np.inf
    return -0.5 * logs.size * np.log(var) + (delta - 1.0) * log_sum


def fit_boxcox_delta(column) -> float:
    """Exponent maximizing the profile log-likelihood, by golden-section search
    over the column's logs, taken once."""
    col = np.asarray(column, dtype=float)
    if col.size < BOXCOX_MIN_VALUES:
        raise ValueError(f"need at least {BOXCOX_MIN_VALUES} values to fit the exponent, "
                         f"got {col.size}")
    logs = _logs(col)
    log_sum = float(np.sum(logs))

    lo, hi = DELTA_BRACKET
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    f_c = _loglik(logs, log_sum, c)
    f_d = _loglik(logs, log_sum, d)
    while hi - lo > 1e-6:
        if f_c > f_d:
            hi, d, f_d = d, c, f_c
            c = hi - _INVPHI * (hi - lo)
            f_c = _loglik(logs, log_sum, c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + _INVPHI * (hi - lo)
            f_d = _loglik(logs, log_sum, d)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PreprocessModel:
    """Frozen transform constants, fitted on the kept pool only."""

    shifts: np.ndarray  # added before Box-Cox where a component can be <= 0
    deltas: np.ndarray
    means: np.ndarray
    stds: np.ndarray


def fit(raw: np.ndarray) -> PreprocessModel:
    """Fit shifts, Box-Cox exponents, and standardization constants per column."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != N_FEATURES:
        raise ValueError(f"expected a (n, {N_FEATURES}) feature matrix, got {raw.shape}")
    n_cols = raw.shape[1]
    shifts = np.zeros(n_cols)
    deltas = np.zeros(n_cols)
    means = np.zeros(n_cols)
    stds = np.zeros(n_cols)
    for j in range(n_cols):
        col = raw[:, j]
        col_min = float(np.min(col))
        if col_min <= 0:
            shifts[j] = 1.0 + abs(col_min)
            col = col + shifts[j]
        deltas[j] = fit_boxcox_delta(col)
        transformed = boxcox(col, deltas[j])
        means[j] = float(np.mean(transformed))
        stds[j] = float(np.std(transformed))
        if stds[j] <= 0:
            raise ValueError(f"feature column {j} is constant; cannot standardize")
    return PreprocessModel(shifts=shifts, deltas=deltas, means=means, stds=stds)


def save_model_csv(path, model: PreprocessModel) -> None:
    """One row per component: shift, Box-Cox exponent, mean, std."""
    write_table(
        path,
        ["component", "shift", "delta", "mean", "std"],
        zip(range(model.deltas.size), model.shifts, model.deltas, model.means, model.stds),
    )


def load_model_csv(path) -> PreprocessModel:
    _, shifts, deltas, means, stds = read_table(path).floats().T
    return PreprocessModel(shifts=shifts, deltas=deltas, means=means, stds=stds)


def apply(model: PreprocessModel, raw: np.ndarray, view: str = "r13") -> np.ndarray:
    """Box-Cox plus standardization; view 'r4' selects (L, PGA, V, omega0)."""
    raw = np.asarray(raw, dtype=float)
    single = raw.ndim == 1
    mat = np.atleast_2d(raw)
    out = np.empty_like(mat)
    for j in range(mat.shape[1]):
        transformed = boxcox(mat[:, j] + model.shifts[j], float(model.deltas[j]))
        out[:, j] = (transformed - model.means[j]) / model.stds[j]
    if view == "r4":
        out = out[:, list(R4_INDICES)]
    elif view != "r13":
        raise ValueError(f"unknown view {view!r}")
    return out[0] if single else out
