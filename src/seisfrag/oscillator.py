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


def _integration_grid(signal: Signal, omega: float) -> tuple[float, np.ndarray]:
    """Forcing -signal resampled onto a grid fine enough for stable stepping."""
    n_sub, dt = _refinement(signal, omega)
    if n_sub == 1:
        return dt, -signal.samples
    n = (signal.samples.size - 1) * n_sub + 1
    return dt, -np.interp(np.arange(n) * dt, signal.times, signal.samples)


def solve_linear(signal: Signal, cfg: StructureConfig) -> Signal:
    """Relative displacement of the linear twin, from rest."""
    omega = cfg.omega_l
    dt, forcing = _integration_grid(signal, omega)
    u, _ = linear_sdof_displacement(forcing, dt, omega, cfg.beta)
    if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > BLOWUP_MULTIPLE * cfg.yield_y:
        raise TimeStepError(f"linear response diverged for dt={dt}")
    return Signal(dt=dt, samples=u)


def _bilinear_law(cfg: StructureConfig) -> tuple[float, float, float, float]:
    """(e, sigma_y, H, e + H): elastic stiffness, yield force and hardening modulus."""
    e = cfg.omega_l**2
    a = cfg.hardening_ratio
    h = a * e / (1.0 - a)
    return e, e * cfg.yield_y, h, e + h


def _return_map(z, eps_p, h_eps, force, xi, work, law) -> None:
    """The bilinear law in place: the restoring force at z into force, eps_p
    (and h_eps = H * eps_p) updated, xi and work used as scratch.

    When no trial point lies outside the yield surface, dgamma is 0 for all
    and the update is skipped: eps_p + (+-0) is eps_p, as eps_p is never -0
    where it starts from +0, and the force is the trial force. A NaN or
    infinite xi fails the test and takes the full update.
    """
    e, sig_y, h, e_h = law
    np.subtract(z, eps_p, force)
    np.multiply(e, force, force)  # trial force
    np.subtract(force, h_eps, xi)
    np.abs(xi, work)
    if np.maximum.reduce(work) <= sig_y:
        return
    np.subtract(work, sig_y, work)
    np.maximum(work, 0.0, out=work)
    np.divide(work, e_h, work)  # dgamma, zero inside the yield surface
    np.copysign(work, xi, work)
    np.add(eps_p, work, eps_p)
    np.multiply(h, eps_p, h_eps)
    np.subtract(z, eps_p, force)
    np.multiply(e, force, force)


def bilinear_force(z, eps_p, cfg: StructureConfig):
    """Restoring force and updated plastic displacement for displacement z.

    Radial return on the 1-D bilinear law: elastic stiffness omega_l^2 (unit
    mass), yield force omega_l^2 * yield_y, back-stress H * eps_p with the
    hardening modulus H chosen so the post-yield tangent is
    hardening_ratio * elastic. Works elementwise on arrays of oscillators as
    on scalars.
    """
    law = _bilinear_law(cfg)
    z, eps_p = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(eps_p, dtype=float))
    eps_p = eps_p.copy()
    h_eps, force, xi, work = (np.empty_like(z) for _ in range(4))
    if z.size:
        np.multiply(law[2], eps_p, h_eps)
        _return_map(z, eps_p, h_eps, force, xi, work, law)
    return force[()], eps_p[()]


@dataclass(frozen=True)
class NonlinearPeaks:
    """Peak response of each signal of a batch, in the order given."""

    samples: np.ndarray  # peak |z| of the elastoplastic system per signal, m
    dt: float  # the batch's integration time step, s; nan for an empty batch


def _recurrence(dt: float, beta: float, omega: float) -> tuple[float, float, float, float]:
    """(2/dt^2, c3, 1/c1, dt^2/2) of the central-difference step."""
    c1 = 1.0 / dt**2 + beta * omega / dt
    c3 = 1.0 / dt**2 - beta * omega / dt
    return 2.0 / dt**2, c3, 1.0 / c1, 0.5 * dt**2


def _chunk_forcing(signals: list[Signal], n_sub: int, dt: float, k0: int,
                   out: np.ndarray) -> None:
    """Points k0 .. k0 + rows - 1 of the forcing -signal on the integration
    grid, for signals of one sample spacing, into the columns of out (rows x
    signals, C order). A column is filled for the points its signal's steps
    read, those before its last sample; the rows below hold stale values.

    The same numbers as np.interp per signal: its bracketing sample j, the
    sample itself where the point falls on it, else
    slope * (x - xp[j]) + fp[j] with slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]).
    j, x - xp[j] and xp[j+1] - xp[j] are shared by the signals; only the
    samples, copied window by window, differ.
    """
    rows = out.shape[0]
    if n_sub == 1:
        for c, s in enumerate(signals):
            piece = s.samples[k0 : k0 + rows]
            np.negative(piece, out[: piece.size, c])
        return
    # the samples around the points, one spare on each side for rounding in k * dt
    lo = max(k0 // n_sub - 1, 0)
    hi = (k0 + rows - 1) // n_sub + 3
    window = np.zeros((hi - lo, len(signals)))
    for c, s in enumerate(signals):
        piece = s.samples[lo:hi]
        window[: piece.size, c] = piece
    xp = np.arange(lo, hi) * signals[0].dt
    x = np.arange(k0, k0 + rows) * dt
    j = np.searchsorted(xp, x, side="right") - 1
    offset = (x - xp[j])[:, None]
    lower = window[j]
    np.take(window, j + 1, axis=0, out=out, mode="clip")
    out -= lower
    out /= (xp[j + 1] - xp[j])[:, None]
    out *= offset
    out += lower
    np.copyto(out, lower, where=offset == 0.0)
    np.negative(out, out)


def solve_nonlinear(signals: list[Signal], cfg: StructureConfig,
                    history: list | None = None) -> NonlinearPeaks:
    """Peak relative displacement of the elastoplastic system, from rest, per signal.

    One central-difference stepper advances the whole batch, of one sample
    spacing and so one integration grid, on time-major state vectors. Signals
    are stably ordered by step count, longest first, so the ones still running
    are a shrinking prefix. The forcing is built CHUNK_STEPS steps at a time,
    and each chunk of responses reduces into the running peak |z|. A step
    writes into rows allocated once. Each signal goes through the operations,
    in the order, of stepping it alone, so its peak does not depend on the batch.

    history, if a list, receives each chunk's responses (steps x the signals
    running at the chunk's start, in that order); see `nonlinear_history`.
    """
    spacings = sorted({s.dt for s in signals})
    if len(spacings) > 1:
        raise ValueError(f"a batch steps one integration grid, got sample spacings {spacings}")
    omega = cfg.omega_l
    n_sub, dt = _refinement(signals[0], omega) if signals else (1, math.nan)
    steps = np.array([(s.samples.size - 1) * n_sub for s in signals], dtype=np.int64)
    order = np.argsort(-steps, kind="stable")
    ends = steps[order].tolist()
    running = int(np.count_nonzero(steps))
    peak = np.zeros(len(signals))
    if running:
        # 0-d arrays: a ufunc converts a float operand again on every step
        two_over, c3, inv_c1, half_dt2 = map(np.array, _recurrence(dt, cfg.beta, omega))
        ordered = [signals[i] for i in order[:running]]
        law = _bilinear_law(cfg)
        blowup = BLOWUP_MULTIPLE * cfg.yield_y
        forcing_rows = np.empty(CHUNK_STEPS * running)  # flat: each chunk's view is C order
        zs = np.zeros((CHUNK_STEPS, running))  # z after each step of a chunk
        z, z_prev = np.zeros(running), None
        eps_p, h_eps = np.zeros(running), np.zeros(running)
        scratch = np.empty((3, running))
        with np.errstate(over="ignore", invalid="ignore"):  # a blow-up raises below
            for k0 in range(0, ends[0], CHUNK_STEPS):
                rows = min(CHUNK_STEPS, ends[0] - k0)
                width = sum(end > k0 for end in ends)
                forcing = forcing_rows[: rows * width].reshape(rows, width)
                _chunk_forcing(ordered[:width], n_sub, dt, k0, forcing)
                if z_prev is None:
                    z_prev = half_dt2 * forcing[0]  # startup: z(-dt) from rest
                # the chunk in segments over which no signal ends
                j, n = 0, width
                while j < rows:
                    while ends[n - 1] <= k0 + j:
                        n -= 1
                    stop = min(rows, ends[n - 1] - k0)
                    z, z_prev = z[:n], z_prev[:n]
                    eps, h_e = eps_p[:n], h_eps[:n]
                    force, xi, work = scratch[:, :n]
                    for z_next, f in zip(zs[j:stop, :n], forcing[j:stop, :n]):
                        _return_map(z, eps, h_e, force, xi, work, law)
                        np.subtract(f, force, force)
                        np.multiply(two_over, z, work)
                        np.add(force, work, force)
                        np.multiply(c3, z_prev, work)
                        np.subtract(force, work, force)
                        np.multiply(force, inv_c1, z_next)
                        z_prev, z = z, z_next
                    j = stop
                # a column whose signal ended inside the chunk holds that signal's
                # earlier values (or zeros) below its end, which leave its peak as is
                chunk_peak = np.abs(zs[:rows, :width]).max(axis=0)
                if not np.all(chunk_peak <= blowup):
                    bad = int(order[np.argmin(chunk_peak <= blowup)])
                    raise TimeStepError(f"nonlinear response of signal {bad} diverged (dt={dt})")
                np.maximum(peak[:width], chunk_peak, out=peak[:width])
                if history is not None:
                    history.append(zs[:rows, :width].copy())
    out = np.empty_like(peak)
    out[order] = peak
    return NonlinearPeaks(samples=out, dt=dt)


def nonlinear_history(signal: Signal, cfg: StructureConfig) -> Signal:
    """Relative displacement of the elastoplastic system over the whole record."""
    chunks: list[np.ndarray] = []
    result = solve_nonlinear([signal], cfg, history=chunks)
    samples = np.concatenate([[0.0], *(chunk[:, 0] for chunk in chunks)])
    return Signal(dt=result.dt, samples=samples)


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
