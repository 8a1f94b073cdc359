"""Tests for the 13-component descriptor extraction."""

import numpy as np
import pytest

from seisfrag.features import FEATURE_NAMES, VIEWS, extract
from seisfrag.ground_motion import Signal
from seisfrag.identification import TargetRecord

THETA = np.array([1.5, 0.7, 1.2, 2.0, 7.0, 40.0, 25.0, 0.3])


def measures(sig, lin_disp):
    """The features of sig at THETA, by name."""
    return dict(zip(FEATURE_NAMES, extract(sig, THETA, lin_disp).tolist()))


def test_feature_names_and_dimension():
    assert len(FEATURE_NAMES) == 13
    assert FEATURE_NAMES[8] == "pga"
    assert [FEATURE_NAMES[i] for i in VIEWS["r4"]] == ["lin_disp", "pga", "pgv", "omega0"]
    assert VIEWS["r13"] == tuple(range(13))


def test_constant_signal_closed_forms():
    c, duration, dt = 2.5, 4.0, 0.001
    n = int(duration / dt) + 1
    sig = Signal(dt=dt, samples=c * np.ones(n))
    fv = measures(sig, 0.01)
    assert fv["pga"] == pytest.approx(c)
    assert fv["pgv"] == pytest.approx(c * duration, rel=1e-9)
    assert fv["pgd"] == pytest.approx(c * duration**2 / 2, rel=1e-6)
    assert fv["energy"] == pytest.approx(c**2 * duration, rel=1e-9)
    assert fv["lin_disp"] == 0.01


def test_scaling_homogeneity():
    rng = np.random.default_rng(4)
    sig = Signal(dt=0.01, samples=rng.standard_normal(700))
    base = measures(sig, 1.0)
    scaled = measures(Signal(dt=0.01, samples=3.0 * sig.samples), 3.0)
    assert scaled["pga"] == pytest.approx(3.0 * base["pga"])
    assert scaled["pgv"] == pytest.approx(3.0 * base["pgv"])
    assert scaled["pgd"] == pytest.approx(3.0 * base["pgd"])
    assert scaled["energy"] == pytest.approx(9.0 * base["energy"])


def test_energy_matches_identification_series():
    rng = np.random.default_rng(9)
    sig = Signal(dt=0.01, samples=rng.standard_normal(1500))
    fv = measures(sig, 1.0)
    record = TargetRecord.from_signal(sig)
    assert abs(fv["energy"] - record.cumulative_energy[-1]) <= 1e-10 * fv["energy"]


def test_vector_layout():
    sig = Signal(dt=0.01, samples=np.ones(100))
    arr = extract(sig, THETA, lin_disp=0.5)
    assert arr.shape == (13,) and arr.dtype == float
    assert np.array_equal(arr[:8], THETA)
    assert arr[8] == 1.0  # pga
    assert arr[12] == 0.5


def test_theta_size_checked():
    sig = Signal(dt=0.01, samples=np.ones(10))
    with pytest.raises(ValueError):
        extract(sig, np.ones(5), lin_disp=0.1)


def test_integrals_equal_the_library_forms_bit_for_bit():
    """extract integrates with the trapezoid pair that identification uses;
    on a signal grid it gives scipy's and numpy's values exactly."""
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(12)
    sig = Signal(dt=0.01, samples=rng.standard_normal(2501))
    fv = measures(sig, 1.0)
    vel = cumulative_trapezoid(sig.samples, dx=sig.dt, initial=0.0)
    disp = cumulative_trapezoid(vel, dx=sig.dt, initial=0.0)
    assert fv["pgv"] == float(np.max(np.abs(vel)))
    assert fv["pgd"] == float(np.max(np.abs(disp)))
    assert fv["energy"] == float(np.trapezoid(sig.samples**2, dx=sig.dt))
