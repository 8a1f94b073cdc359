"""Per-signal descriptors: model parameters plus five intensity measures."""

from __future__ import annotations

import numpy as np

from .ground_motion import PARAM_NAMES, Signal, cumulative_trapezoid, trapezoid

FEATURE_NAMES = PARAM_NAMES + ("pga", "pgv", "pgd", "energy", "lin_disp")
N_FEATURES = len(FEATURE_NAMES)  # 13

# the feature views, by their columns of the feature matrix: r13 is every
# component; r4 is spectral displacement, peak acceleration, peak velocity and
# filter start frequency
VIEWS = {
    "r4": tuple(FEATURE_NAMES.index(name) for name in ("lin_disp", "pga", "pgv", "omega0")),
    "r13": tuple(range(N_FEATURES)),
}


def extract(signal: Signal, theta, lin_disp: float) -> np.ndarray:
    """The 13-vector of one signal in FEATURE_NAMES order: theta, then PGA
    (m/s^2), PGV (m/s), PGD (m), energy (m^2/s^3) and lin_disp (m).

    The velocity, displacement and energy integrals use the trapezoidal rule
    on the signal grid; lin_disp comes from the oscillator module.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size != 8:
        raise ValueError(f"theta must have 8 components, got {theta.size}")
    s = signal.samples
    vel = cumulative_trapezoid(s, signal.dt)
    disp = cumulative_trapezoid(vel, signal.dt)
    return np.concatenate([
        theta,
        [float(np.max(np.abs(s))), float(np.max(np.abs(vel))), float(np.max(np.abs(disp))),
         float(trapezoid(s**2, signal.dt)), float(lin_disp)],
    ])
