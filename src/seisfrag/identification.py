"""Identify envelope and filter parameters from a target accelerogram.

The envelope comes from matching cumulative energy, the filter frequencies
from matching the expected cumulative count of zero-level up-crossings, and
the filter damping from matching simulated counts of positive minima and
negative maxima over a candidate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.optimize import minimize

from .ground_motion import (
    PARAM_NAMES,
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    Signal,
    cumulative_trapezoid,
    modulating_q,
    trapezoid,
    unit_variance_processes,
)
from .rng import stream
from .runner import run_shared
from .table import read_table, write_table

ENERGY_ONSET_FRACTION = 1e-12

# fixed multi-start jitter patterns (multiplicative, applied to the heuristic start)
_MOD_START_PATTERNS = (
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (1.4, 0.5, 1.0, 0.6, 1.4),
    (0.7, 2.0, 0.7, 1.5, 0.8),
    (1.2, 1.0, 1.4, 0.9, 1.1),
    (0.9, 1.5, 0.8, 1.3, 0.7),
)
_FREQ_START_PATTERNS = ((1.0, 1.0), (1.5, 0.7), (0.7, 1.5), (2.0, 1.0), (1.0, 2.0))


def count_upcrossings(samples: np.ndarray) -> np.ndarray:
    """Cumulative count of zero-level up-crossings (sample k <= 0 < sample k+1)."""
    s = np.asarray(samples, dtype=float)
    crossings = (s[:-1] <= 0) & (s[1:] > 0)
    return np.concatenate([[0], np.cumsum(crossings)])


def count_irregular_extrema(samples: np.ndarray) -> np.ndarray:
    """Cumulative count of positive minima plus negative maxima.

    Three-point local extremum tests; the count is a bandwidth indicator (a
    narrow-band process has almost none).
    """
    s = np.asarray(samples, dtype=float)
    out = np.zeros(s.size)
    if s.size < 3:
        return out
    left, mid, right = s[:-2], s[1:-1], s[2:]
    neg_max = (mid > left) & (mid > right) & (mid < 0)
    pos_min = (mid < left) & (mid < right) & (mid > 0)
    out[1:-1] = neg_max | pos_min
    return np.cumsum(out)


@dataclass(frozen=True)
class TargetRecord:
    """A target accelerogram with the three matched series."""

    signal: Signal
    cumulative_energy: np.ndarray
    upcrossing_count: np.ndarray
    extrema_count: np.ndarray

    @classmethod
    def from_signal(cls, sig: Signal) -> "TargetRecord":
        energy = cumulative_trapezoid(sig.samples**2, sig.dt)
        return cls(
            signal=sig,
            cumulative_energy=energy,
            upcrossing_count=count_upcrossings(sig.samples),
            extrema_count=count_irregular_extrema(sig.samples),
        )

    @property
    def times(self) -> np.ndarray:
        return self.signal.times

    @property
    def duration(self) -> float:
        return self.signal.duration


@dataclass(frozen=True)
class IdentificationConfig:
    damping_grid: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    sim_replicates: int = 20
    # discretization adjustment r in [0.75, 1]; 0.98 matches the measured
    # up-crossing deficit of records sampled at 100 Hz in our frequency band
    adjustment_factor: float = 0.98
    seed: int = 0
    eval_nodes: int = 48  # coarse time grid for count matching
    quad_dt: float = 0.05  # pulse spacing in the rate quadrature
    n_starts: int = 5
    max_iter: int = 400

    def __post_init__(self):
        if not self.damping_grid:
            raise ValueError("damping grid must be non-empty")
        if any(not 0 < z < 1 for z in self.damping_grid):
            raise ValueError("damping candidates must lie in (0, 1)")
        if self.sim_replicates < 1:
            raise ValueError("need at least one simulation replicate")
        if not 0 < self.adjustment_factor <= 1:
            raise ValueError("adjustment factor must lie in (0, 1]")


@dataclass(frozen=True)
class ModulationFit:
    params: ModulationParams
    objective: float
    converged: bool


@dataclass(frozen=True)
class FrequencyFit:
    omega0: float
    omega_n: float
    objective: float
    converged: bool


@dataclass(frozen=True)
class DampingFit:
    zeta_f: float
    frequency_fit: FrequencyFit
    mismatches: tuple  # per damping-grid candidate


@dataclass(frozen=True)
class IdentificationResult:
    params: GroundMotionParams  # t0 retained in the modulation block
    converged: bool


# ---------------------------------------------------------------------------
# modulation (envelope) identification
# ---------------------------------------------------------------------------


def _best_of_starts(objective, starts, options: dict):
    """The Nelder-Mead result of lowest objective over the starts; the first wins ties."""
    best = None
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead", options=options)
        if best is None or res.fun < best.fun:
            best = res
    return best


def _quantile_time(t: np.ndarray, series: np.ndarray, fraction: float) -> float:
    """First time the normalized monotone series exceeds the fraction."""
    idx = int(np.searchsorted(series, fraction * series[-1]))
    return float(t[min(idx, t.size - 1)])


def fit_modulation(record: TargetRecord, config: IdentificationConfig | None = None) -> ModulationFit:
    """Envelope parameters minimizing the integrated squared energy mismatch.

    The onset delay t0 is read off the first energy arrival; the remaining
    five parameters are optimized unconstrained after a log/ordering
    reparameterization, from several deterministic starts.
    """
    config = config or IdentificationConfig()
    t = record.times
    e_a = record.cumulative_energy
    if e_a.size < 10:
        raise ValueError("record energy series too short to fit an envelope")
    total = float(e_a[-1])
    if total <= 0:
        raise ValueError("record has zero energy")

    onset = int(np.argmax(e_a > ENERGY_ONSET_FRACTION * total))
    t0 = float(t[max(onset - 1, 0)])

    def unpack(u):
        a1, a2, a3 = math.exp(u[0]), math.exp(u[1]), math.exp(u[2])
        t1 = t0 + math.exp(u[3])
        t2 = t1 + math.exp(u[4])
        return ModulationParams(alpha1=a1, alpha2=a2, alpha3=a3, t1=t1, t2=t2, t0=t0)

    gaps = np.diff(t)

    def objective(u):
        if (np.abs(u) > 50).any():
            return 1e30
        e_s = cumulative_trapezoid(modulating_q(t, unpack(u)) ** 2, gaps)
        return float(trapezoid((e_s - e_a) ** 2, gaps))

    t15 = _quantile_time(t, e_a, 0.15)
    t85 = _quantile_time(t, e_a, 0.85)
    rise = max(t15 - t0, 0.3)
    plateau = max(t85 - t15, 0.5)
    a1_guess = math.sqrt(0.7 * total / plateau)
    base = np.array([a1_guess, 0.5, 1.0, rise, plateau])

    starts = [np.log(base * np.asarray(p)) for p in _MOD_START_PATTERNS[: config.n_starts]]
    best = _best_of_starts(
        objective, starts, {"maxiter": config.max_iter * 5, "xatol": 1e-6, "fatol": 1e-12}
    )
    return ModulationFit(
        params=unpack(best.x), objective=float(best.fun), converged=bool(best.success)
    )


# ---------------------------------------------------------------------------
# filter frequency identification via up-crossing counts
# ---------------------------------------------------------------------------


def _rate_at_times(
    ts: np.ndarray, filt: FilterParams, quad_dt: float, ramp_duration: float
) -> np.ndarray:
    """Mean zero-level up-crossing rate of the normalized process at times ts.

    Rate = sigma_dy / (2 pi) where sigma_dy is the standard deviation of the
    time derivative of the normalized process; all integrals discretized on
    the pulse grid. The requested spacing is tightened so the fastest
    oscillation of the impulse response keeps at least 16 nodes per period.

    The pulse applied at tau = t - lag has frequency omega(tau), and one
    phasor p = exp(c omega(tau) lag), c = -zeta + i sqrt(1 - zeta^2), carries
    its decay and phase: h = omega / root * Im p and
    h_dot = omega^2 / root * Im(c p). On evenly spaced nodes omega(tau) moves
    by slope * gap from one node to the next at every lag, so each row of
    phasors is its neighbour times exp(c |slope| gap lag). The recurrence runs
    in the direction in which the phasors shrink, forward in time on a rising
    ramp and backward on a falling one, and starts each pulse from its exact
    phasor at the first node of that order where it exists; cells whose pulse
    does not exist stay exact zeros.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("rate nodes must be a non-empty 1-D grid")
    k = ts.size
    gap = (ts[-1] - ts[0]) / max(k - 1, 1)
    drift = np.abs(ts - (ts[0] + np.arange(k) * gap))
    if gap < 0 or (drift > 4.0 * np.finfo(float).eps * abs(ts[-1])).any():
        raise ValueError("rate nodes must be evenly spaced and non-decreasing")
    zf = filt.zeta_f
    omega_max = max(filt.omega0, filt.omega_n)
    omega_min = min(filt.omega0, filt.omega_n)
    # midpoint rule; h_dot^2 oscillates at twice the filter frequency, so keep
    # at least 32 nodes per period of the fastest component
    quad_dt = min(quad_dt, 2.0 * math.pi / (32.0 * omega_max))
    # pulses older than the e^-8 envelope cutoff contribute nothing
    memory = min(8.0 / (zf * omega_min), float(ts[-1]))
    lags = (np.arange(int(math.ceil(memory / quad_dt))) + 0.5) * quad_dt

    root = math.sqrt(1.0 - zf**2)
    c = complex(-zf, root)
    slope = (filt.omega_n - filt.omega0) / max(ramp_duration, 1e-12)
    step = np.exp(c * abs(slope) * gap * lags)
    alive = np.searchsorted(lags, ts, side="right").tolist()  # pulses existing at each node
    if slope >= 0:
        order, start = range(k), ts[np.minimum(np.searchsorted(ts, lags), k - 1)]
    else:
        order, start = range(k - 1, -1, -1), ts[-1]
    anchors = np.exp(c * filt.omega_at(np.maximum(start - lags, 0.0), ramp_duration) * lags)
    phasors = np.zeros((k, lags.size), dtype=complex)
    row, live = phasors[0, :0], 0  # the previous node's phasors and how many exist
    for r in order:
        n = alive[r]
        if n > live:  # new pulses start from their anchors
            np.multiply(row[:live], step[:live], out=phasors[r, :live])
            phasors[r, live:n] = anchors[live:n]
        else:
            np.multiply(row[:n], step[:n], out=phasors[r, :n])
        row, live = phasors[r], n

    omegas = np.subtract.outer(filt.omega_at(ts, ramp_duration), slope * lags)
    h = omegas * phasors.imag  # root * h
    phasors *= c  # Im(c p) = root Re p - zeta Im p
    h_dot = np.square(omegas, out=omegas)
    h_dot *= phasors.imag  # root * h_dot
    sig2 = np.einsum("ij,ij->i", h, h)
    cross = np.einsum("ij,ij->i", h, h_dot)
    sdot2 = (np.einsum("ij,ij->i", h_dot, h_dot) - cross**2 / sig2) / sig2
    return np.sqrt(sdot2) / (2.0 * math.pi)


def mean_upcrossing_rate(
    t: float, filt: FilterParams, dt: float, ramp_duration: float | None = None
) -> float:
    """Up-crossing rate at a single time; defaults to a constant-ramp horizon t."""
    if t < dt:
        raise ValueError(f"rate undefined before the first pulse (t={t}, dt={dt})")
    horizon = ramp_duration if ramp_duration is not None else t
    return float(_rate_at_times(np.array([t]), filt, dt, horizon)[0])


def expected_upcrossing_count(
    ts: np.ndarray, filt: FilterParams, config: IdentificationConfig, ramp_duration: float
) -> np.ndarray:
    """N(t) = integral of rate * adjustment over [0, t], on the grid ts."""
    nu = _rate_at_times(ts, filt, config.quad_dt, ramp_duration)
    counts = cumulative_trapezoid(nu, np.diff(ts)) + nu[0] * ts[0]
    return config.adjustment_factor * counts


def fit_filter_frequencies(
    record: TargetRecord, zeta_f: float, config: IdentificationConfig | None = None
) -> FrequencyFit:
    """Frequencies minimizing the squared mismatch of cumulative crossing counts."""
    config = config or IdentificationConfig()
    if record.upcrossing_count[-1] < 5:
        raise ValueError("record has fewer than 5 up-crossings")
    duration = record.duration
    ts = np.linspace(duration / config.eval_nodes, duration, config.eval_nodes)
    n_a = np.interp(ts, record.times, record.upcrossing_count)
    gaps = np.diff(ts)

    def objective(v):
        # keep the search inside a physically sensible band; the quadrature
        # cost grows with frequency, so reject runaway candidates up front
        if (v < math.log(0.2)).any() or (v > math.log(500.0)).any():
            return 1e30
        filt = FilterParams(omega0=math.exp(v[0]), omega_n=math.exp(v[1]), zeta_f=zeta_f)
        n_x = expected_upcrossing_count(ts, filt, config, duration)
        return float(trapezoid((n_x - n_a) ** 2, gaps))

    # crossing slopes at both ends give frequency guesses (rate ~ omega / 2 pi)
    third = duration / 3.0
    early = np.interp(third, record.times, record.upcrossing_count) / third
    late = (record.upcrossing_count[-1] - np.interp(2 * third, record.times, record.upcrossing_count)) / third
    w0_guess = max(2.0 * math.pi * early / config.adjustment_factor, 0.5)
    wn_guess = max(2.0 * math.pi * late / config.adjustment_factor, 0.5)

    starts = [np.log([w0_guess * p0, wn_guess * p1])
              for p0, p1 in _FREQ_START_PATTERNS[: config.n_starts]]
    best = _best_of_starts(
        objective, starts, {"maxiter": config.max_iter, "xatol": 1e-3, "fatol": 1e-8}
    )
    return FrequencyFit(
        omega0=float(math.exp(best.x[0])),
        omega_n=float(math.exp(best.x[1])),
        objective=float(best.fun),
        converged=bool(best.success),
    )


# ---------------------------------------------------------------------------
# damping identification via simulated irregular-extrema counts
# ---------------------------------------------------------------------------


def _damping_candidate(record: TargetRecord, config: IdentificationConfig, gi: int,
                       zeta: float) -> tuple[FrequencyFit, float]:
    """The frequency fit at damping grid[gi] = zeta, and the mismatch of the
    averaged simulated irregular-extrema counts with the record's."""
    freq_fit = fit_filter_frequencies(record, zeta, config)
    filt = FilterParams(omega0=freq_fit.omega0, omega_n=freq_fit.omega_n, zeta_f=zeta)
    sims = unit_variance_processes(
        filt, record.duration, record.signal.dt,
        [stream(config.seed, "damping", gi, rep) for rep in range(config.sim_replicates)],
    )
    acc = np.zeros(record.times.size)
    for sim in sims:
        acc += count_irregular_extrema(sim)
    mean_counts = acc / config.sim_replicates
    return freq_fit, float(trapezoid((mean_counts - record.extrema_count) ** 2,
                                      np.diff(record.times)))


def _damping_tasks(record: TargetRecord, config: IdentificationConfig) -> list:
    return [partial(_damping_candidate, record, config, gi, zeta)
            for gi, zeta in enumerate(sorted(config.damping_grid))]


def fit_damping(record: TargetRecord, config: IdentificationConfig | None = None, *,
                candidates: list | None = None) -> DampingFit:
    """Grid search on the damping ratio with a simulation oracle per candidate.

    For each candidate the frequencies are refitted, replicate realizations of
    the normalized process are simulated, and the averaged cumulative count of
    positive minima and negative maxima is compared with the record's. Ties
    resolve toward smaller damping (the grid is scanned in ascending order).
    `candidates` are the (frequency fit, mismatch) pairs of the ascending grid
    when already computed; `identify` computes them alongside the envelope.
    """
    config = config or IdentificationConfig()
    grid = tuple(sorted(config.damping_grid))
    if candidates is None:
        candidates = run_shared(_damping_tasks(record, config))
    best_idx, best_mismatch = -1, math.inf
    for gi, (_, mismatch) in enumerate(candidates):
        if mismatch < best_mismatch:
            best_idx, best_mismatch = gi, mismatch
    return DampingFit(zeta_f=grid[best_idx], frequency_fit=candidates[best_idx][0],
                      mismatches=tuple(m for _, m in candidates))


def identify(record: TargetRecord, config: IdentificationConfig | None = None) -> IdentificationResult:
    """Full identification: the envelope, and the damping with nested frequency fits.

    The envelope fit and the per-candidate damping work are independent, so
    they run as one shared task list (see `run_shared`).
    """
    config = config or IdentificationConfig()
    mod_fit, *candidates = run_shared([partial(fit_modulation, record, config),
                                       *_damping_tasks(record, config)])
    damp_fit = fit_damping(record, config, candidates=candidates)
    params = GroundMotionParams(
        modulation=mod_fit.params,
        filter=FilterParams(
            omega0=damp_fit.frequency_fit.omega0,
            omega_n=damp_fit.frequency_fit.omega_n,
            zeta_f=damp_fit.zeta_f,
        ),
    )
    return IdentificationResult(
        params=params, converged=mod_fit.converged and damp_fit.frequency_fit.converged
    )


# ---------------------------------------------------------------------------
# parameter CSV: one row per record, named columns
# ---------------------------------------------------------------------------

_CSV_COLUMNS = PARAM_NAMES + ("t0",)


def write_params_csv(path, params_list) -> None:
    write_table(path, _CSV_COLUMNS, ([*p.as_vector(), p.modulation.t0] for p in params_list))


def read_params_csv(path) -> list[GroundMotionParams]:
    table = read_table(path)
    if tuple(table.columns) != _CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {table.columns}")
    out = []
    for values in table.floats():
        params = GroundMotionParams.from_vector(values[:8])
        modulation = replace(params.modulation, t0=float(values[8]))
        out.append(replace(params, modulation=modulation))
    return out
