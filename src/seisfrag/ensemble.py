"""Reference pseudo-record parameter ensemble.

Stands in for a database of identified real records: 97 parameter vectors
drawn once from documented ranges and shipped as package data. Amplitudes
follow a truncated Pareto law so weak motions dominate, the way real
catalogs do; the remaining parameters are uniform over their ranges.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .ground_motion import PARAM_NAMES
from .rng import stream
from .table import read_table, write_table

ENSEMBLE_SIZE = 97
BUILD_SEED = 1867

# documented sampling ranges
RAMP_END = (0.5, 4.0)  # t1, s
PLATEAU = (2.0, 10.0)  # t2 - t1, s
DECAY_RATE = (0.2, 1.2)  # alpha2
DECAY_EXPONENT = (0.8, 1.8)  # alpha3
START_FREQ_HZ = (3.0, 15.0)  # omega0 / 2 pi
# the sweep always ends low: omega_n / 2 pi uniform in [1, min(omega0/2pi, 5)]
MIN_END_FREQ_HZ = 1.0
MAX_END_FREQ_HZ = 5.0
DAMPING = (0.1, 0.6)  # zeta_f
# truncated Pareto amplitude: P(alpha1 > x) ~ x^-kappa on [lo, hi], m/s^2;
# calibrated so the 5 Hz preset keeps roughly one third of the signals
AMP_LO = 0.2
AMP_HI = 5.0
AMP_KAPPA = 1.4

_DATA_FILE = "pseudo_records.csv"


def _pareto_truncated(u: np.ndarray, lo: float, hi: float, kappa: float) -> np.ndarray:
    norm = 1.0 - (lo / hi) ** kappa
    return lo * (1.0 - u * norm) ** (-1.0 / kappa)


def make_reference_ensemble(size: int = ENSEMBLE_SIZE, seed: int = BUILD_SEED) -> np.ndarray:
    """Draw the ensemble from the documented ranges; deterministic given seed."""
    rng = stream(seed, "pseudo-records")
    t1 = rng.uniform(*RAMP_END, size)
    t2 = t1 + rng.uniform(*PLATEAU, size)
    alpha2 = rng.uniform(*DECAY_RATE, size)
    alpha3 = rng.uniform(*DECAY_EXPONENT, size)
    f0 = rng.uniform(*START_FREQ_HZ, size)
    fn = rng.uniform(MIN_END_FREQ_HZ, np.minimum(f0, MAX_END_FREQ_HZ))
    zeta = rng.uniform(*DAMPING, size)
    alpha1 = _pareto_truncated(rng.random(size), AMP_LO, AMP_HI, AMP_KAPPA)
    theta = np.column_stack(
        [alpha1, alpha2, alpha3, t1, t2, 2 * np.pi * f0, 2 * np.pi * fn, zeta]
    )
    return theta


def write_ensemble_csv(path, theta: np.ndarray) -> None:
    write_table(path, PARAM_NAMES, theta)


def read_ensemble_csv(path) -> np.ndarray:
    table = read_table(path)
    if tuple(table.columns) != PARAM_NAMES:
        raise ValueError(f"{path}: unexpected ensemble columns {table.columns}")
    return table.floats()


def reference_ensemble() -> np.ndarray:
    """The shipped 97-point ensemble (package data)."""
    data_path = resources.files("seisfrag").joinpath("data", _DATA_FILE)
    with resources.as_file(data_path) as path:
        return read_ensemble_csv(path)


if __name__ == "__main__":
    out = Path(__file__).parent / "data" / _DATA_FILE
    out.parent.mkdir(exist_ok=True)
    write_ensemble_csv(out, make_reference_ensemble())
    print(f"wrote {out}")
