"""Benchmark inputs made apart from the program: records, envelopes, sizes.

Everything here uses numpy and the standard library only, so the output
checks compare the program against code it does not share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The acceptance suite's desk seed, used for the pool and the records alike.
# The pool is the first `pool_size` signals of the acceptance pool: signal i
# is drawn from streams keyed by (seed, i), so a smaller pool is a prefix of
# the 5000-signal one.
DESK_SEED = 42

RECORD_DT = 0.01  # s
RECORD_DURATION = 25.0  # s


@dataclass(frozen=True)
class PipelineSize:
    """Scale of one pass of the desk pipeline (generate .. report)."""

    pool_size: int
    budget: int
    n_runs: int
    n_bins: int = 20
    cost: float = 10.0


@dataclass(frozen=True)
class RecordVector:
    """Known ground-motion parameters: envelope and linearly ramped filter."""

    name: str
    alpha1: float  # plateau amplitude, m/s^2
    alpha2: float  # decay rate
    alpha3: float  # decay exponent
    t1: float  # ramp end, s
    t2: float  # plateau end, s
    f0_hz: float  # filter start frequency
    fn_hz: float  # filter end frequency
    zeta_f: float  # filter damping

    @property
    def omega0(self) -> float:
        return 2.0 * math.pi * self.f0_hz

    @property
    def omega_n(self) -> float:
        return 2.0 * math.pi * self.fn_hz


# Both inside the reference ensemble's documented ranges (t1 in [0.5, 4] s,
# t2 - t1 in [2, 10] s, alpha2 in [0.2, 1.2], alpha3 in [0.8, 1.8], f0 in
# [3, 15] Hz, fn in [1, min(f0, 5)] Hz, zeta_f in [0.1, 0.6]). Vector A is
# the acceptance suite's identification round-trip vector.
RECORD_VECTORS = (
    RecordVector("A", 1.8, 0.6, 1.3, 2.5, 8.0, 9.0, 4.5, 0.3),
    RecordVector("B", 1.0, 0.4, 1.0, 1.5, 9.0, 6.0, 3.0, 0.2),
)


def envelope(t, alpha1, alpha2, alpha3, t1, t2, t0=0.0) -> np.ndarray:
    """q(t): zero before t0, quadratic rise to t1, plateau to t2, then decay."""
    t = np.asarray(t, dtype=float)
    q = np.zeros_like(t)
    if t1 > t0:
        rise = (t > t0) & (t <= t1)
        q[rise] = alpha1 * ((t[rise] - t0) / (t1 - t0)) ** 2
    q[(t > t1) & (t <= t2)] = alpha1
    tail = t > t2
    q[tail] = alpha1 * np.exp(-alpha2 * (t[tail] - t2) ** alpha3)
    return q


def envelope_energy(theta, dt: float = RECORD_DT, duration: float | None = None) -> float:
    """Trapezoid integral of q^2 over the grid a signal with parameters theta uses.

    theta is (alpha1, alpha2, alpha3, t1, t2[, ...]); without an explicit
    duration the grid is the program's default, max(t2 + 20 s, 20 s).
    """
    a1, a2, a3, t1, t2 = (float(v) for v in theta[:5])
    if duration is None:
        duration = max(t2 + 20.0, 20.0)
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    q2 = envelope(t, a1, a2, a3, t1, t2) ** 2
    return float(dt * (q2.sum() - 0.5 * (q2[0] + q2[-1])))


def make_record(vec: RecordVector, rng: np.random.Generator,
                duration: float = RECORD_DURATION, dt: float = RECORD_DT) -> np.ndarray:
    """One realization: q(t) times the unit-variance filtered white noise.

    The response at node k sums the filter's impulse response over the pulses
    applied strictly before it (left Riemann), normalized by the standard
    deviation of that sum, with the filter frequency ramped linearly from
    f0 to fn over the record.
    """
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    omegas = vec.omega0 + (t / t[-1]) * (vec.omega_n - vec.omega0)
    root = math.sqrt(1.0 - vec.zeta_f**2)
    noise = rng.standard_normal(n) / math.sqrt(dt)
    # pulses older than e^-10 of their decay envelope contribute nothing
    max_lag = min(n - 1, int(math.ceil(10.0 / (vec.zeta_f * omegas.min() * dt))))
    x = np.zeros(n)
    var = np.zeros(n)
    for lag in range(1, max_lag + 1):
        tau = lag * dt
        w = omegas[: n - lag]
        h = w / root * np.exp(-vec.zeta_f * w * tau) * np.sin(w * root * tau)
        x[lag:] += h * noise[: n - lag] * dt
        var[lag:] += h * h * dt
    y = np.zeros(n)
    y[1:] = x[1:] / np.sqrt(var[1:])
    return envelope(t, vec.alpha1, vec.alpha2, vec.alpha3, vec.t1, vec.t2) * y


def write_record_csv(path: Path, samples: np.ndarray, dt: float = RECORD_DT) -> None:
    """`dt=<value>` on the first line, then one sample per line."""
    text = f"dt={dt!r}\n" + "".join(f"{v!r}\n" for v in samples.tolist())
    path.write_text(text, encoding="utf-8")


def write_record_binary(path: Path, samples: np.ndarray, dt: float = RECORD_DT) -> None:
    """Little-endian float64: dt, then the samples."""
    path.write_bytes(np.concatenate([[dt], samples]).astype("<f8").tobytes())
