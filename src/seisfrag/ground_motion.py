"""Synthetic ground motions: modulated, filtered white noise.

A signal is the product of a deterministic piecewise envelope q(t) and a
unit-variance filtered white-noise process whose filter frequency ramps
linearly over the signal duration. A critically damped high-pass applied
afterwards guarantees zero residual velocity and displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._sdof import linear_sdof_displacement
from .table import atomic_write

DEFAULT_DT = 0.01  # s
MIN_DURATION = 20.0  # s
PAD_AFTER_T2 = 20.0  # s of quiet tail appended after the plateau ends
CORNER_OMEGA = 2.0 * math.pi * 0.2  # rad/s, 0.2 Hz high-pass corner
IRF_CUTOFF = 8.0  # truncate the IRF tail once its envelope drops below e^-8
PHASOR_ANCHOR_LAGS = 64  # lags between exact recomputations of the IRF phasor
# Version of the synthesis arithmetic; a pool stored under another version is
# refused, as its signals differ in the last bits from fresh ones.
SYNTHESIS_VERSION = 2


class ParameterError(ValueError):
    """Ground-motion parameters outside their admissible domain."""


@dataclass(frozen=True)
class ModulationParams:
    """Envelope parameters: quadratic rise, plateau, stretched-exponential decay."""

    alpha1: float  # plateau amplitude, m/s^2
    alpha2: float  # decay rate, s^-alpha3
    alpha3: float  # decay exponent
    t1: float  # ramp end, s
    t2: float  # plateau end, s
    t0: float = 0.0  # initial delay, s (kept for record identification only)

    def validate(self) -> None:
        # alpha1 == 0 is tolerated as the degenerate all-zero envelope
        if self.alpha1 < 0 or self.alpha2 <= 0 or self.alpha3 <= 0:
            raise ParameterError(f"amplitude/decay parameters out of domain: {self}")
        if not 0 <= self.t0 <= self.t1 <= self.t2:
            raise ParameterError(f"time breakpoints must satisfy 0 <= t0 <= t1 <= t2: {self}")


@dataclass(frozen=True)
class FilterParams:
    """Second-order filter with linearly ramped frequency and fixed damping."""

    omega0: float  # start circular frequency, rad/s
    omega_n: float  # end circular frequency, rad/s
    zeta_f: float  # damping ratio

    def validate(self) -> None:
        if self.omega0 <= 0 or self.omega_n <= 0:
            raise ParameterError(f"filter frequencies must be positive: {self}")
        if not 0 < self.zeta_f < 1:
            raise ParameterError(f"filter damping must lie in (0, 1): {self}")

    def omega_at(self, tau, ramp_duration: float):
        """Instantaneous frequency of the pulse applied at time tau."""
        frac = np.asarray(tau, dtype=float) / max(ramp_duration, 1e-12)
        return self.omega0 + frac * (self.omega_n - self.omega0)


@dataclass(frozen=True)
class GroundMotionParams:
    modulation: ModulationParams
    filter: FilterParams

    def validate(self) -> None:
        self.modulation.validate()
        self.filter.validate()

    def as_vector(self) -> np.ndarray:
        """The 8-vector (a1, a2, a3, t1, t2, omega0, omega_n, zeta_f); t0 dropped."""
        m, f = self.modulation, self.filter
        return np.array(
            [m.alpha1, m.alpha2, m.alpha3, m.t1, m.t2, f.omega0, f.omega_n, f.zeta_f]
        )

    @classmethod
    def from_vector(cls, theta) -> "GroundMotionParams":
        a1, a2, a3, t1, t2, w0, wn, zf = (float(v) for v in theta)
        return cls(
            modulation=ModulationParams(alpha1=a1, alpha2=a2, alpha3=a3, t1=t1, t2=t2),
            filter=FilterParams(omega0=w0, omega_n=wn, zeta_f=zf),
        )


PARAM_NAMES = ("alpha1", "alpha2", "alpha3", "t1", "t2", "omega0", "omega_n", "zeta_f")


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled acceleration time series."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ParameterError(f"signal dt must be positive and finite, got {self.dt}")
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("signal needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("signal contains non-finite samples")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) * self.dt

    @property
    def duration(self) -> float:
        return (self.samples.size - 1) * self.dt


def cumulative_trapezoid(y: np.ndarray, gaps) -> np.ndarray:
    """scipy's cumulative_trapezoid(y, x, initial=0.0) for gaps = np.diff(x)
    (or the scalar dx), with the same operations in the same order."""
    out = np.zeros(y.size)
    np.cumsum(gaps * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def trapezoid(y: np.ndarray, gaps) -> float:
    """np.trapezoid(y, x) for gaps = np.diff(x) (or the scalar dx), with the
    same operations."""
    return (gaps * (y[1:] + y[:-1]) / 2.0).sum()


def modulating_q(t, m: ModulationParams):
    """Envelope value(s) at time t or on a non-decreasing 1-D grid t: 0,
    quadratic rise on (t0, t1], plateau on (t1, t2], then decay.

    On a sorted grid each phase is one contiguous slice, found by a single
    search for the three breakpoints.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.ndim != 1 or (t_arr[1:] < t_arr[:-1]).any():
        raise ValueError("envelope times must be a scalar or a non-decreasing 1-D grid")
    out = np.zeros(t_arr.shape)
    if m.alpha1 != 0.0:
        i0, i1, i2 = np.searchsorted(t_arr, (m.t0, m.t1, m.t2), side="right").tolist()
        if m.t1 > m.t0:
            out[i0:i1] = m.alpha1 * ((t_arr[i0:i1] - m.t0) / (m.t1 - m.t0)) ** 2
        out[i1:i2] = m.alpha1
        out[i2:] = m.alpha1 * np.exp(-m.alpha2 * (t_arr[i2:] - m.t2) ** m.alpha3)
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def irf_h(lag, freq: float, zeta_f: float):
    """Impulse response of the filter: damped sinusoid for lag >= 0, else 0."""
    lag_arr = np.atleast_1d(np.asarray(lag, dtype=float))
    wd = freq * math.sqrt(1.0 - zeta_f**2)
    amp = freq / math.sqrt(1.0 - zeta_f**2)
    out = np.zeros(lag_arr.shape)
    pos = lag_arr >= 0
    out[pos] = amp * np.exp(-zeta_f * freq * lag_arr[pos]) * np.sin(wd * lag_arr[pos])
    return float(out[0]) if np.isscalar(lag) or np.ndim(lag) == 0 else out


def sigma_f(t: float, filt: FilterParams, dt: float) -> float:
    """Standard deviation of the running filtered-noise integral at time t,
    for a frequency ramp that ends at t.

    Left-Riemann quadrature over the pulses applied strictly before t, the
    same rule the synthesis uses, so numerator and denominator of the
    normalized process share their discretization error. Returns 0 at t = 0;
    that value must never be used as a divisor.
    """
    if t <= 0:
        return 0.0
    n_pulses = int(math.ceil(t / dt - 1e-9))
    taus = np.arange(n_pulses) * dt
    omegas = filt.omega_at(taus, t)
    lags = t - taus
    zf = filt.zeta_f
    wd = omegas * math.sqrt(1.0 - zf**2)
    h = omegas / math.sqrt(1.0 - zf**2) * np.exp(-zf * omegas * lags) * np.sin(wd * lags)
    return float(math.sqrt(np.sum(h**2) * dt))


def _white_noise(rng: np.random.Generator, n: int, dt: float) -> np.ndarray:
    """White-noise node values w_j of variance 1/dt, one draw per node."""
    return rng.standard_normal(n) / math.sqrt(dt)


def _normalized_response(
    filt: FilterParams, n: int, dt: float, noise: np.ndarray, truncate_irf: bool = True
) -> np.ndarray:
    """Unit-variance filtered process on an n-point grid for given noise values.

    noise holds the white-noise node values w_j (variance 1/dt) in its last
    axis, one realization per row of an (m, n) block; the response at node k
    is sum_{j<k} h(t_k - t_j, omega(t_j)) * w_j * dt, normalized by the
    matching left-Riemann sigma. Evaluated by summing shifted diagonals, so
    each lag costs one vectorized pass, and h and sigma, which do not depend
    on the noise, once per lag for all rows.

    h is the imaginary part of the phasor q_j = amp_j exp((-zeta omega_j +
    i omega_d,j) lag), which one complex multiply per pulse advances by a
    lag; q is recomputed exactly every PHASOR_ANCHOR_LAGS lags, so rounding
    grows over at most that many steps.
    """
    zf = filt.zeta_f
    duration = (n - 1) * dt
    omegas = filt.omega_at(np.arange(n) * dt, duration)
    rate = -zf * omegas + 1j * (omegas * math.sqrt(1.0 - zf**2))
    amp = omegas / math.sqrt(1.0 - zf**2)
    step = np.exp(rate * dt)

    max_lag_steps = n - 1
    if truncate_irf:
        lag_cut = IRF_CUTOFF / (zf * float(np.min(omegas)))
        max_lag_steps = min(max_lag_steps, int(math.ceil(lag_cut / dt)))

    x = np.zeros(noise.shape)
    s2 = np.zeros(n)
    w_dt = noise * dt
    for ell in range(1, max_lag_steps + 1):
        if (ell - 1) % PHASOR_ANCHOR_LAGS == 0:
            q = amp[: n - ell] * np.exp(rate[: n - ell] * (ell * dt))
        else:
            q = q[:-1]
            q *= step[: n - ell]
        h = q.imag
        x[..., ell:] += h * w_dt[..., : n - ell]
        s2[ell:] += h * h
    s2 *= dt

    y = np.zeros(noise.shape)
    np.divide(x, np.sqrt(s2, out=np.zeros(n), where=s2 > 0), out=y, where=s2 > 0)
    return y


def unit_variance_processes(
    filt: FilterParams,
    duration: float,
    dt: float,
    rngs: list[np.random.Generator],
    truncate_irf: bool = True,
) -> np.ndarray:
    """One realization of the normalized (un-modulated) filtered process per
    stream, as the rows of an (m, n) array."""
    filt.validate()
    n = int(round(duration / dt)) + 1
    noise = np.array([_white_noise(rng, n, dt) for rng in rngs])
    return _normalized_response(filt, n, dt, noise, truncate_irf)


def unit_variance_process(
    filt: FilterParams,
    duration: float,
    dt: float,
    rng: np.random.Generator,
    truncate_irf: bool = True,
) -> Signal:
    """One realization of the normalized (un-modulated) filtered process."""
    samples = unit_variance_processes(filt, duration, dt, [rng], truncate_irf)[0]
    return Signal(dt=dt, samples=samples)


def synthesize(
    params: GroundMotionParams,
    duration: float | None = None,
    dt: float = DEFAULT_DT,
    *,
    rng: np.random.Generator,
    truncate_irf: bool = True,
) -> Signal:
    """Generate one raw (pre-high-pass) signal for the given parameters.

    Parameters
    ----------
    duration : total length in seconds; defaults to t2 + 20 s with a 20 s
        floor. Must cover the plateau end t2.
    rng : the dedicated stream for this signal; the draw is deterministic
        given its state.
    """
    params.validate()
    m = params.modulation
    if duration is None:
        duration = max(m.t2 + PAD_AFTER_T2, MIN_DURATION)
    if duration < m.t2:
        raise ParameterError(f"duration {duration} shorter than plateau end {m.t2}")
    n = int(round(duration / dt)) + 1
    y = _normalized_response(params.filter, n, dt, _white_noise(rng, n, dt), truncate_irf)
    q = modulating_q(np.arange(n) * dt, m)
    return Signal(dt=dt, samples=q * y)


def highpass_correct(raw: Signal) -> Signal:
    """Zero-residual correction: acceleration of the critically damped filter.

    Integrates u'' + 2*omega_c*u' + omega_c^2*u = s from rest, omega_c =
    CORNER_OMEGA, and returns u''(t) on the input grid. Velocity and
    displacement of the output vanish once the input has been quiet for a few
    1/omega_c.
    """
    omega_c = CORNER_OMEGA
    s = raw.samples
    dt = raw.dt
    u, u_m1 = linear_sdof_displacement(s, dt, omega_c, 1.0, n_extra=1)
    full = np.concatenate([[u_m1], u])  # full[k+1] = u_k
    udot = (full[2:] - full[:-2]) / (2.0 * dt)
    uacc = s - 2.0 * omega_c * udot - omega_c**2 * u[:-1]
    return Signal(dt=dt, samples=uacc)


# ---------------------------------------------------------------------------
# Signal file formats: CSV with a dt header line, or raw little-endian floats
# prefixed by dt.
# ---------------------------------------------------------------------------


def write_signal_csv(path, sig: Signal) -> None:
    atomic_write(path, "".join([f"dt={sig.dt:.17g}\n", *(f"{v:.17g}\n" for v in sig.samples)]))


def read_signal_csv(path) -> Signal:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("dt="):
            raise ValueError(f"{path}: expected 'dt=<value>' on line 1, got {header!r}")
        try:
            dt = float(header[3:])
        except ValueError:
            raise ValueError(f"{path}: line 1: bad dt {header[3:]!r}") from None
        samples = []
        for lineno, line in enumerate(fh, 2):
            if line.strip():
                try:
                    samples.append(float(line))
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: bad sample {line.strip()!r}") from None
    return Signal(dt=dt, samples=np.array(samples))


def write_signal_binary(path, sig: Signal) -> None:
    atomic_write(path, np.concatenate([[sig.dt], sig.samples]).astype("<f8").tobytes())


def read_signal_binary(path) -> Signal:
    data = np.fromfile(Path(path), dtype="<f8")
    if data.size < 2:
        raise ValueError(f"{path}: binary signal needs dt plus at least one sample")
    return Signal(dt=float(data[0]), samples=data[1:])
