"""Elastoplastic single-DOF oscillator and its linear twin.

Both systems are integrated with the same explicit central-difference scheme;
the nonlinear restoring force is a bilinear law with kinematic hardening
(radial return on the 1-D force, one back-stress).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sdof import linear_sdof_displacement
from .ground_motion import Signal

STEPS_PER_PERIOD = 40  # integration resolution relative to the natural period
BLOWUP_MULTIPLE = 1e6  # |z| beyond this many yield displacements means instability
CHUNK_STEPS = 512  # time steps of forcing the batched stepper builds and reduces at a time


class TimeStepError(RuntimeError):
    """The explicit integration diverged (time step too large for this system)."""


@dataclass(frozen=True)
class StructureConfig:
    """Oscillator definition: frequency, damping, yield point, hardening."""

    f_l: float  # natural frequency, Hz
    yield_y: float  # yield displacement, m
    beta: float = 0.02  # damping ratio
    hardening_ratio: float = 0.2  # post-yield / elastic stiffness
    threshold_multiple: float = 2.0  # failure threshold in units of yield_y

    def __post_init__(self):
        if self.f_l <= 0 or self.yield_y <= 0:
            raise ValueError(f"frequency and yield displacement must be positive: {self}")
        if not 0 < self.beta < 1:
            raise ValueError(f"damping ratio must lie in (0, 1): {self}")
        if not 0 <= self.hardening_ratio < 1:
            raise ValueError(f"hardening ratio must lie in [0, 1): {self}")
        if self.threshold_multiple <= 1:
            raise ValueError(f"threshold multiple must exceed 1: {self}")

    @property
    def omega_l(self) -> float:
        return 2.0 * math.pi * self.f_l

    @property
    def threshold(self) -> float:
        return self.threshold_multiple * self.yield_y


# presets with yield displacements giving roughly one third inelastic signals
PRESETS = {
    "2.5": StructureConfig(f_l=2.5, yield_y=9e-3),
    "5": StructureConfig(f_l=5.0, yield_y=5e-3),
    "10": StructureConfig(f_l=10.0, yield_y=1e-3),
}


@dataclass(frozen=True)
class ResponseSummary:
    max_nonlinear: float  # Z, m
    max_linear: float  # L, m
    label: int  # +1 if Z exceeds the threshold, else -1


def _refinement(signal: Signal, omega: float) -> tuple[int, float]:
    """Substeps per sample, and the time step, of a grid fine enough for stable stepping."""
    period = 2.0 * math.pi / omega
    n_sub = max(1, math.ceil(signal.dt / (period / STEPS_PER_PERIOD) - 1e-9))
    return n_sub, signal.dt / n_sub


def _forcing(signal: Signal, n_sub: int, dt: float, k0: int, count: int) -> np.ndarray:
    """Points k0 .. k0 + count - 1 of the forcing -signal on the integration grid."""
    if n_sub == 1:
        return -signal.samples[k0 : k0 + count]
    # the samples around the points, one spare on each side for rounding in k * dt
    lo = max(k0 // n_sub - 1, 0)
    hi = min((k0 + count - 1) // n_sub + 3, signal.samples.size)
    return -np.interp(np.arange(k0, k0 + count) * dt, np.arange(lo, hi) * signal.dt,
                      signal.samples[lo:hi])


def _integration_grid(signal: Signal, omega: float) -> tuple[float, np.ndarray]:
    """Forcing -signal resampled onto a grid fine enough for stable stepping."""
    n_sub, dt = _refinement(signal, omega)
    return dt, _forcing(signal, n_sub, dt, 0, (signal.samples.size - 1) * n_sub + 1)


def solve_linear(signal: Signal, cfg: StructureConfig) -> Signal:
    """Relative displacement of the linear twin, from rest."""
    omega = cfg.omega_l
    dt, forcing = _integration_grid(signal, omega)
    u, _ = linear_sdof_displacement(forcing, dt, omega, cfg.beta)
    if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOWUP_MULTIPLE * cfg.yield_y:
        raise TimeStepError(f"linear response diverged for dt={dt}")
    return Signal(dt=dt, samples=u)


def bilinear_force(z, eps_p, cfg: StructureConfig):
    """Restoring force and updated plastic displacement for displacement z.

    Radial return on the 1-D bilinear law: elastic stiffness omega_l^2 (unit
    mass), yield force omega_l^2 * yield_y, back-stress H * eps_p with the
    hardening modulus H chosen so the post-yield tangent is
    hardening_ratio * elastic. Works elementwise on arrays of oscillators as
    on scalars.
    """
    e = cfg.omega_l**2
    sig_y = e * cfg.yield_y
    a = cfg.hardening_ratio
    h = a * e / (1.0 - a)
    sig_trial = e * (z - eps_p)
    xi = sig_trial - h * eps_p
    # zero inside the yield surface, where eps_p and so the force stay as they are
    dgamma = np.maximum(np.abs(xi) - sig_y, 0.0) / (e + h)
    eps_p = eps_p + np.copysign(dgamma, xi)
    return e * (z - eps_p), eps_p


@dataclass(frozen=True)
class NonlinearPeaks:
    """Peak response of each signal of a batch, in the order given."""

    samples: np.ndarray  # peak |z| of the elastoplastic system per signal, m
    dt: np.ndarray  # integration time step per signal, s


def _recurrence(dt: float, beta: float, omega: float) -> tuple[float, float, float, float]:
    """(2/dt^2, c3, 1/c1, dt^2/2) of the central-difference step."""
    c1 = 1.0 / dt**2 + beta * omega / dt
    c3 = 1.0 / dt**2 - beta * omega / dt
    return 2.0 / dt**2, c3, 1.0 / c1, 0.5 * dt**2


def solve_nonlinear(signals: list[Signal], cfg: StructureConfig,
                    history: list | None = None) -> NonlinearPeaks:
    """Peak relative displacement of the elastoplastic system, from rest, per signal.

    One central-difference stepper advances the whole batch on time-major
    state vectors. Signals are stably ordered by step count, longest first,
    so the ones still running are a shrinking prefix. The forcing is built
    CHUNK_STEPS steps at a time, and each chunk of responses reduces into the
    running peak |z|. Each signal goes through the operations, in the order,
    of stepping it alone, so its peak does not depend on the batch.

    history, if a list, receives each chunk's responses (steps x the signals
    running at the chunk's start, in that order); see `nonlinear_history`.
    """
    omega = cfg.omega_l
    grids = [_refinement(s, omega) for s in signals]
    steps = np.array([(s.samples.size - 1) * n_sub for s, (n_sub, _) in zip(signals, grids)],
                     dtype=np.int64)
    order = np.argsort(-steps, kind="stable")
    ends = steps[order].tolist()
    running = int(np.count_nonzero(steps))
    peak = np.zeros(len(signals))
    if running:
        two_over, c3, inv_c1, half_dt2 = np.array(
            [_recurrence(grids[i][1], cfg.beta, omega) for i in order[:running]]).T.copy()
        blowup = BLOWUP_MULTIPLE * cfg.yield_y
        forcing = np.empty((CHUNK_STEPS, running))
        zs = np.zeros((CHUNK_STEPS, running))  # z after each step of a chunk
        z, eps_p, z_prev = np.zeros(running), np.zeros(running), None
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below
            for k0 in range(0, ends[0], CHUNK_STEPS):
                rows = min(CHUNK_STEPS, ends[0] - k0)
                width = sum(end > k0 for end in ends)
                for c in range(width):
                    i = int(order[c])
                    count = min(rows, ends[c] - k0)
                    forcing[:count, c] = _forcing(signals[i], *grids[i], k0, count)
                if z_prev is None:
                    z_prev = half_dt2 * forcing[0]  # startup: z(-dt) from rest
                n = width
                for j in range(rows):
                    if j == 0 or ends[n - 1] <= k0 + j:
                        while ends[n - 1] <= k0 + j:
                            n -= 1
                        z, z_prev, eps_p = z[:n], z_prev[:n], eps_p[:n]
                        a2, a3, a_inv = two_over[:n], c3[:n], inv_c1[:n]
                    restoring, eps_p = bilinear_force(z, eps_p, cfg)
                    z_next = zs[j, :n]
                    np.multiply(forcing[j, :n] - restoring + a2 * z - a3 * z_prev, a_inv,
                                out=z_next)
                    z_prev, z = z, z_next
                # a column whose signal ended inside the chunk holds that signal's
                # earlier values (or zeros) below its end, which leave its peak as is
                chunk_peak = np.abs(zs[:rows, :width]).max(axis=0)
                if not np.all(chunk_peak <= blowup):
                    bad = int(order[np.argmin(chunk_peak <= blowup)])
                    raise TimeStepError(
                        f"nonlinear response of signal {bad} diverged (dt={grids[bad][1]})")
                np.maximum(peak[:width], chunk_peak, out=peak[:width])
                if history is not None:
                    history.append(zs[:rows, :width].copy())
    out = np.empty_like(peak)
    out[order] = peak
    return NonlinearPeaks(samples=out, dt=np.array([dt for _, dt in grids], dtype=float))


def nonlinear_history(signal: Signal, cfg: StructureConfig) -> Signal:
    """Relative displacement of the elastoplastic system over the whole record."""
    chunks: list[np.ndarray] = []
    result = solve_nonlinear([signal], cfg, history=chunks)
    samples = np.concatenate([[0.0], *(chunk[:, 0] for chunk in chunks)])
    return Signal(dt=float(result.dt[0]), samples=samples)


def summarize(signal: Signal, cfg: StructureConfig) -> ResponseSummary:
    """Peak linear and nonlinear responses plus the exceedance label.

    When the linear peak stays at or below the yield displacement the
    elastoplastic system never leaves the elastic branch, so Z equals L
    exactly and the nonlinear run is skipped.
    """
    lin = solve_linear(signal, cfg)
    l_max = float(np.max(np.abs(lin.samples)))
    if l_max <= cfg.yield_y:
        z_max = l_max
    else:
        z_max = float(solve_nonlinear([signal], cfg).samples[0])
    label = 1 if z_max > cfg.threshold else -1
    return ResponseSummary(max_nonlinear=z_max, max_linear=l_max, label=label)


def response_spectrum(signal: Signal, frequencies, beta: float = 0.02) -> np.ndarray:
    """Peak linear displacement per natural frequency (spectral displacement)."""
    out = np.empty(len(frequencies))
    for i, f_l in enumerate(frequencies):
        omega = 2.0 * math.pi * float(f_l)
        dt, forcing = _integration_grid(signal, omega)
        u, _ = linear_sdof_displacement(forcing, dt, omega, beta)
        out[i] = np.max(np.abs(u))
    return out
