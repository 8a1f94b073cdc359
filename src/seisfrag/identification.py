"""Identify envelope and filter parameters from a target accelerogram.

The envelope comes from matching cumulative energy, the filter frequencies
from matching the expected cumulative count of zero-level up-crossings, and
the filter damping from matching simulated counts of positive minima and
negative maxima over a candidate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

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
from .table import write_table

ENERGY_ONSET_FRACTION = 1e-12
# ascending, so that ties resolve toward the smaller damping
DAMPING_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
SIM_REPLICATES = 20
# discretization adjustment r in [0.75, 1]; 0.98 matches the measured
# up-crossing deficit of records sampled at 100 Hz in our frequency band
ADJUSTMENT_FACTOR = 0.98
EVAL_NODES = 48  # coarse time grid for count matching
QUAD_DT = 0.05  # pulse spacing in the rate quadrature
MAX_NFEV = 400  # least-squares evaluations per frequency fit, five times this per envelope start

# the envelope's multi-start jitter patterns (multiplicative, applied to the heuristic start)
_MOD_START_PATTERNS = (
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (1.4, 0.5, 1.0, 0.6, 1.4),
    (0.7, 2.0, 0.7, 1.5, 0.8),
    (1.2, 1.0, 1.4, 0.9, 1.1),
    (0.9, 1.5, 0.8, 1.3, 0.7),
)


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


def _require_envelope_data(cumulative_energy: np.ndarray) -> None:
    """Refuse an energy series that no envelope can be fitted to."""
    if cumulative_energy.size < 10:
        raise ValueError("record energy series too short to fit an envelope")
    if cumulative_energy[-1] <= 0:
        raise ValueError("record has zero energy")


def _require_crossings(upcrossing_count: np.ndarray) -> None:
    """Refuse a crossing count too small to fit filter frequencies to."""
    if upcrossing_count[-1] < 5:
        raise ValueError("record has fewer than 5 up-crossings")


@dataclass(frozen=True)
class TargetRecord:
    """A target accelerogram with the three matched series."""

    signal: Signal
    cumulative_energy: np.ndarray
    upcrossing_count: np.ndarray
    extrema_count: np.ndarray

    @classmethod
    def from_signal(cls, sig: Signal) -> "TargetRecord":
        """The record of sig, refused with the fits' own messages when a fit
        would refuse it: so a bad record is refused before any fit runs."""
        energy = cumulative_trapezoid(sig.samples**2, sig.dt)
        _require_envelope_data(energy)
        upcrossings = count_upcrossings(sig.samples)
        _require_crossings(upcrossings)
        return cls(
            signal=sig,
            cumulative_energy=energy,
            upcrossing_count=upcrossings,
            extrema_count=count_irregular_extrema(sig.samples),
        )

    @property
    def times(self) -> np.ndarray:
        return self.signal.times

    @property
    def duration(self) -> float:
        return self.signal.duration


@dataclass(frozen=True)
class ModulationFit:
    params: ModulationParams
    converged: bool


@dataclass(frozen=True)
class FrequencyFit:
    omega0: float
    omega_n: float
    converged: bool


@dataclass(frozen=True)
class DampingFit:
    zeta_f: float
    frequency_fit: FrequencyFit


@dataclass(frozen=True)
class IdentificationResult:
    params: GroundMotionParams  # t0 retained in the modulation block
    converged: bool


# ---------------------------------------------------------------------------
# modulation (envelope) identification
# ---------------------------------------------------------------------------


def _best_of_starts(residuals, starts, bounds: tuple, options: dict):
    """The bounded trust-region least-squares result of lowest cost over the
    starts, each clipped into the bounds; the first wins ties."""
    from scipy.optimize import least_squares

    best = None
    for x0 in starts:
        res = least_squares(residuals, np.clip(x0, *bounds), bounds=bounds, method="trf",
                            **options)
        if best is None or res.cost < best.cost:
            best = res
    return best


def _root_trapezoid_weights(gaps: np.ndarray) -> np.ndarray:
    """sqrt(w) with trapezoid(y, gaps) = sum(w * y): half the gaps beside each node."""
    return np.sqrt((np.r_[gaps, 0.0] + np.r_[0.0, gaps]) / 2.0)


def _quantile_time(t: np.ndarray, series: np.ndarray, fraction: float) -> float:
    """First time the normalized monotone series exceeds the fraction."""
    idx = int(np.searchsorted(series, fraction * series[-1]))
    return float(t[min(idx, t.size - 1)])


def fit_modulation(record: TargetRecord) -> ModulationFit:
    """Envelope parameters minimizing the integrated squared energy mismatch.

    The onset delay t0 is read off the first energy arrival; the remaining
    five parameters are fitted by bounded least squares after a log/ordering
    reparameterization, from several deterministic starts.
    """
    t = record.times
    e_a = record.cumulative_energy
    _require_envelope_data(e_a)
    total = float(e_a[-1])

    onset = int(np.argmax(e_a > ENERGY_ONSET_FRACTION * total))
    t0 = float(t[max(onset - 1, 0)])

    def unpack(u):
        a1, a2, a3 = math.exp(u[0]), math.exp(u[1]), math.exp(u[2])
        t1 = t0 + math.exp(u[3])
        t2 = t1 + math.exp(u[4])
        return ModulationParams(alpha1=a1, alpha2=a2, alpha3=a3, t1=t1, t2=t2, t0=t0)

    gaps = np.diff(t)
    root_w = _root_trapezoid_weights(gaps)

    def residuals(u):
        e_s = cumulative_trapezoid(modulating_q(t, unpack(u)) ** 2, gaps)
        return root_w * (e_s - e_a)

    t15 = _quantile_time(t, e_a, 0.15)
    t85 = _quantile_time(t, e_a, 0.85)
    rise = max(t15 - t0, 0.3)
    plateau = max(t85 - t15, 0.5)
    a1_guess = math.sqrt(0.7 * total / plateau)
    base = np.array([a1_guess, 0.5, 1.0, rise, plateau])

    starts = [np.log(base * np.asarray(p)) for p in _MOD_START_PATTERNS]
    best = _best_of_starts(
        residuals, starts, (-50.0, 50.0), {"max_nfev": MAX_NFEV * 5, "xtol": 1e-10, "ftol": 1e-12}
    )
    return ModulationFit(params=unpack(best.x), converged=bool(best.success))


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
    h_dot = omega^2 / root * Im(c p). Cells whose pulse does not exist yet
    (tau < 0) are zeroed; their phasor is taken at omega(0), since omega
    extrapolated before the record can make exp overflow.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or (np.diff(ts) < 0).any():
        raise ValueError("rate nodes must be a non-empty, non-decreasing 1-D grid")
    zf = filt.zeta_f
    omega_max = max(filt.omega0, filt.omega_n)
    omega_min = min(filt.omega0, filt.omega_n)
    # midpoint rule; h_dot^2 oscillates at twice the filter frequency, so keep
    # at least 32 nodes per period of the fastest component
    quad_dt = min(quad_dt, 2.0 * math.pi / (32.0 * omega_max))
    # pulses older than the e^-8 envelope cutoff contribute nothing
    memory = min(8.0 / (zf * omega_min), float(ts[-1]))
    lags = (np.arange(int(math.ceil(memory / quad_dt))) + 0.5) * quad_dt

    c = complex(-zf, math.sqrt(1.0 - zf**2))
    taus = np.subtract.outer(ts, lags)
    unborn = taus < 0
    omegas = filt.omega_at(np.maximum(taus, 0.0, out=taus), ramp_duration)
    phasors = omegas * (c * lags)
    np.exp(phasors, out=phasors)
    phasors[unborn] = 0.0
    h = omegas * phasors.imag  # root * h
    phasors *= c  # Im(c p) = root Re p - zeta Im p
    h_dot = np.square(omegas, out=omegas)
    h_dot *= phasors.imag  # root * h_dot
    sig2 = np.einsum("ij,ij->i", h, h)
    cross = np.einsum("ij,ij->i", h, h_dot)
    sdot2 = (np.einsum("ij,ij->i", h_dot, h_dot) - cross**2 / sig2) / sig2
    return np.sqrt(sdot2) / (2.0 * math.pi)


def expected_upcrossing_count(ts: np.ndarray, filt: FilterParams,
                              ramp_duration: float) -> np.ndarray:
    """N(t) = integral of rate * adjustment over [0, t], on the grid ts."""
    nu = _rate_at_times(ts, filt, QUAD_DT, ramp_duration)
    counts = cumulative_trapezoid(nu, np.diff(ts)) + nu[0] * ts[0]
    return ADJUSTMENT_FACTOR * counts


def fit_filter_frequencies(record: TargetRecord, zeta_f: float) -> FrequencyFit:
    """Frequencies minimizing the squared mismatch of cumulative crossing counts."""
    _require_crossings(record.upcrossing_count)
    duration = record.duration
    ts = np.linspace(duration / EVAL_NODES, duration, EVAL_NODES)
    n_a = np.interp(ts, record.times, record.upcrossing_count)
    root_w = _root_trapezoid_weights(np.diff(ts))

    def residuals(v):
        filt = FilterParams(omega0=math.exp(v[0]), omega_n=math.exp(v[1]), zeta_f=zeta_f)
        return root_w * (expected_upcrossing_count(ts, filt, duration) - n_a)

    # crossing slopes at both ends give frequency guesses (rate ~ omega / 2 pi)
    third = duration / 3.0
    early = np.interp(third, record.times, record.upcrossing_count) / third
    late = (record.upcrossing_count[-1] - np.interp(2 * third, record.times, record.upcrossing_count)) / third
    w0_guess = max(2.0 * math.pi * early / ADJUSTMENT_FACTOR, 0.5)
    wn_guess = max(2.0 * math.pi * late / ADJUSTMENT_FACTOR, 0.5)

    # one start: starts scattered around it reach the same optimum. The band
    # keeps the search physically sensible (the quadrature cost grows with
    # frequency). The lag count ceil(memory / quad_dt) makes the rate
    # piecewise in omega; a difference step of 1e-6 rather than the default
    # ~1.5e-8 keeps a jump it straddles from swamping the derivative
    best = _best_of_starts(
        residuals, [np.log([w0_guess, wn_guess])], (math.log(0.2), math.log(500.0)),
        {"max_nfev": MAX_NFEV, "xtol": 1e-8, "ftol": 1e-10, "diff_step": 1e-6},
    )
    return FrequencyFit(
        omega0=float(math.exp(best.x[0])),
        omega_n=float(math.exp(best.x[1])),
        converged=bool(best.success),
    )


# ---------------------------------------------------------------------------
# damping identification via simulated irregular-extrema counts
# ---------------------------------------------------------------------------


def _damping_candidate(record: TargetRecord, seed: int, gi: int,
                       zeta: float) -> tuple[FrequencyFit, float]:
    """The frequency fit at damping DAMPING_GRID[gi] = zeta, and the mismatch
    of the averaged simulated irregular-extrema counts with the record's."""
    freq_fit = fit_filter_frequencies(record, zeta)
    filt = FilterParams(omega0=freq_fit.omega0, omega_n=freq_fit.omega_n, zeta_f=zeta)
    sims = unit_variance_processes(
        filt, record.duration, record.signal.dt,
        [stream(seed, "damping", gi, rep) for rep in range(SIM_REPLICATES)],
    )
    acc = np.zeros(record.times.size)
    for sim in sims:
        acc += count_irregular_extrema(sim)
    mean_counts = acc / SIM_REPLICATES
    return freq_fit, float(trapezoid((mean_counts - record.extrema_count) ** 2,
                                      np.diff(record.times)))


def fit_damping(candidates: list) -> DampingFit:
    """The damping of least mismatch over DAMPING_GRID, given its candidates:
    the (frequency fit, mismatch) pair of each grid value, in grid order, as
    `_damping_candidate` computes it. Ties resolve toward smaller damping
    (the grid is scanned in ascending order).
    """
    best_idx, best_mismatch = -1, math.inf
    for gi, (_, mismatch) in enumerate(candidates):
        if mismatch < best_mismatch:
            best_idx, best_mismatch = gi, mismatch
    return DampingFit(zeta_f=DAMPING_GRID[best_idx], frequency_fit=candidates[best_idx][0])


def identify(record: TargetRecord, seed: int = 0) -> IdentificationResult:
    """Full identification: the envelope, and the damping with nested frequency fits.

    The envelope fit and the per-candidate damping work are independent, so
    they run as one shared task list (see `run_shared`).
    """
    mod_fit, *candidates = run_shared(
        [partial(fit_modulation, record)]
        + [partial(_damping_candidate, record, seed, gi, z) for gi, z in enumerate(DAMPING_GRID)])
    damp_fit = fit_damping(candidates)
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

