"""Per-signal descriptors: model parameters plus five intensity measures."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class FeatureVector:
    theta: np.ndarray  # the 8 model parameters
    pga: float  # peak ground acceleration, m/s^2
    pgv: float  # peak ground velocity, m/s
    pgd: float  # peak ground displacement, m
    energy: float  # integral of squared acceleration, m^2/s^3
    lin_disp: float  # peak linear oscillator displacement, m

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [np.asarray(self.theta, dtype=float),
             [self.pga, self.pgv, self.pgd, self.energy, self.lin_disp]]
        )


def extract(signal: Signal, theta, lin_disp: float) -> FeatureVector:
    """Assemble the 13-vector for one signal.

    The velocity, displacement and energy integrals use the trapezoidal rule
    on the signal grid; lin_disp comes from the oscillator module.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size != 8:
        raise ValueError(f"theta must have 8 components, got {theta.size}")
    s = signal.samples
    vel = cumulative_trapezoid(s, signal.dt)
    disp = cumulative_trapezoid(vel, signal.dt)
    return FeatureVector(
        theta=theta,
        pga=float(np.max(np.abs(s))),
        pgv=float(np.max(np.abs(vel))),
        pgd=float(np.max(np.abs(disp))),
        energy=float(trapezoid(s**2, signal.dt)),
        lin_disp=float(lin_disp),
    )
