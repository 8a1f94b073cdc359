"""Tests for the elastoplastic oscillator and its linear twin."""

import numpy as np
import pytest

from seisfrag.ground_motion import (
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    Signal,
    highpass_correct,
    synthesize,
)
from seisfrag.oscillator import (
    PRESETS,
    StructureConfig,
    TimeStepError,
    bilinear_force,
    response_spectrum,
    solve_linear,
    solve_nonlinear,
    summarize,
)

# an overflow or an invalid value is a bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CFG = StructureConfig(f_l=5.0, yield_y=5e-3)


def sample_signal(seed=7, alpha1=3.0):
    p = GroundMotionParams(
        modulation=ModulationParams(alpha1=alpha1, alpha2=0.7, alpha3=1.2, t1=2.0, t2=7.0),
        filter=FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 4, zeta_f=0.3),
    )
    return highpass_correct(synthesize(p, rng=np.random.default_rng(seed)))


class TestLinearSolver:
    def test_static_limit(self):
        g0 = 2.0
        sig = Signal(dt=0.01, samples=-g0 * np.ones(3000))
        out = solve_linear(sig, CFG)
        assert out.samples[-1] == pytest.approx(g0 / CFG.omega_l**2, rel=1e-6)

    def test_resonant_steady_state_amplitude(self):
        a = 1.0
        dt = 1e-4
        t = np.arange(0, 20, dt)
        sig = Signal(dt=dt, samples=-a * np.sin(CFG.omega_l * t))
        out = solve_linear(sig, CFG)
        tail = out.samples[int(15 / out.dt):]
        target = a / (2 * CFG.beta * CFG.omega_l**2)
        assert np.max(np.abs(tail)) == pytest.approx(target, rel=0.01)

    def test_zero_input(self):
        sig = Signal(dt=0.01, samples=np.zeros(100))
        assert np.all(solve_linear(sig, CFG).samples == 0.0)

    def test_blowup_detection(self):
        sig = Signal(dt=0.01, samples=1e12 * np.ones(4000))
        with pytest.raises(TimeStepError):
            solve_linear(sig, CFG)


class TestNonlinearSolver:
    def test_weak_signal_matches_linear_to_roundoff(self):
        rng = np.random.default_rng(3)
        sig = Signal(dt=0.01, samples=0.02 * rng.standard_normal(2000))
        lin = solve_linear(sig, CFG)
        assert np.max(np.abs(lin.samples)) < CFG.yield_y
        nl = solve_nonlinear(sig, CFG)
        assert nl.samples == pytest.approx(lin.samples, abs=1e-12)

    def test_quasi_static_post_yield_slope(self):
        eps_p = 0.0
        zs = np.linspace(0, 6 * CFG.yield_y, 500)
        forces = np.empty_like(zs)
        for i, z in enumerate(zs):
            forces[i], eps_p = bilinear_force(float(z), eps_p, CFG)
        slopes = np.diff(forces) / np.diff(zs)
        elastic = CFG.omega_l**2
        assert slopes[0] == pytest.approx(elastic, rel=1e-9)
        assert slopes[-1] == pytest.approx(CFG.hardening_ratio * elastic, rel=1e-6)

    def test_kinematic_hardening_shifts_yield_center(self):
        # push well past yield, unload: reverse yielding starts 2Y below the peak force point
        eps_p = 0.0
        path = np.concatenate([np.linspace(0, 4 * CFG.yield_y, 300),
                               np.linspace(4 * CFG.yield_y, -4 * CFG.yield_y, 600)])
        forces = np.empty_like(path)
        for i, z in enumerate(path):
            forces[i], eps_p = bilinear_force(float(z), eps_p, CFG)
        # unloading branch is elastic over a 2Y-wide window
        peak = forces[299]
        reversal = forces[299:] - peak
        elastic_part = reversal[np.abs(path[299:] - path[299]) < 1.9 * CFG.yield_y]
        z_part = path[299:][np.abs(path[299:] - path[299]) < 1.9 * CFG.yield_y]
        slope = np.polyfit(z_part, elastic_part, 1)[0]
        assert slope == pytest.approx(CFG.omega_l**2, rel=1e-6)

    def test_energy_balance(self):
        sig = sample_signal()
        nl = solve_nonlinear(sig, CFG)
        z, dti = nl.samples, nl.dt
        n = z.size
        forcing = -np.interp(np.arange(n) * dti, sig.times, sig.samples)
        v = np.gradient(z, dti)
        eps_p = 0.0
        restoring = np.empty(n)
        for k in range(n):
            restoring[k], eps_p = bilinear_force(float(z[k]), eps_p, CFG)

        def cum(integrand):
            steps = 0.5 * (integrand[:-1] + integrand[1:]) * dti
            return np.concatenate([[0.0], np.cumsum(steps)])

        w_in = cum(forcing * v)
        e_damp = cum(2 * CFG.beta * CFG.omega_l * v * v)
        e_rest = cum(restoring * v)  # strain + hysteretic
        e_kin = v**2 / 2
        residual = w_in - e_damp - e_rest - e_kin
        assert np.max(np.abs(residual)) < 0.01 * np.max(w_in)
        assert np.max(np.abs(z)) > CFG.yield_y  # the case must actually yield

    def test_dt_convergence(self):
        # same continuous forcing on a twice finer grid changes Z by < 0.5 %
        for seed in range(20):
            sig = sample_signal(seed=100 + seed, alpha1=2.5)
            fine_t = np.arange(2 * (sig.samples.size - 1) + 1) * (sig.dt / 2)
            fine = Signal(dt=sig.dt / 2, samples=np.interp(fine_t, sig.times, sig.samples))
            z_coarse = np.max(np.abs(solve_nonlinear(sig, CFG).samples))
            z_fine = np.max(np.abs(solve_nonlinear(fine, CFG).samples))
            assert abs(z_coarse - z_fine) / z_fine < 0.005


class TestSummarize:
    def test_zero_signal(self):
        sig = Signal(dt=0.01, samples=np.zeros(200))
        summary = summarize(sig, CFG)
        assert summary.max_nonlinear == 0.0
        assert summary.max_linear == 0.0
        assert summary.label == -1

    def test_weak_signal_z_equals_l_exactly(self):
        rng = np.random.default_rng(5)
        sig = Signal(dt=0.01, samples=0.05 * rng.standard_normal(2000))
        summary = summarize(sig, CFG)
        assert summary.max_linear < CFG.yield_y
        assert summary.max_nonlinear == summary.max_linear
        assert summary.label == -1

    def test_strong_scaling_turns_label_positive(self):
        base = sample_signal(seed=21, alpha1=1.0)
        summary = summarize(base, CFG)
        scale = 8.0 * CFG.yield_y / summary.max_linear
        strong = Signal(dt=base.dt, samples=scale * base.samples)
        strong_summary = summarize(strong, CFG)
        assert strong_summary.max_linear > 6 * CFG.yield_y
        assert strong_summary.max_nonlinear > CFG.threshold
        assert strong_summary.label == 1

    def test_label_monotone_in_threshold(self):
        sig = sample_signal(seed=2, alpha1=3.0)
        labels = []
        for multiple in (1.5, 2.0, 3.0, 5.0):
            cfg = StructureConfig(f_l=5.0, yield_y=5e-3, threshold_multiple=multiple)
            labels.append(summarize(sig, cfg).label)
        # raising the threshold can only flip +1 -> -1
        for earlier, later in zip(labels, labels[1:]):
            assert later <= earlier


class TestResponseSpectrum:
    def test_single_frequency_matches_summarize(self):
        sig = sample_signal(seed=13, alpha1=1.0)
        spec = response_spectrum(sig, [CFG.f_l], beta=CFG.beta)
        assert spec[0] == pytest.approx(summarize(sig, CFG).max_linear, rel=1e-12)

    def test_linearity_in_signal_scale(self):
        sig = sample_signal(seed=14, alpha1=1.0)
        freqs = [2.5, 5.0, 10.0]
        spec = response_spectrum(sig, freqs)
        scaled = response_spectrum(Signal(dt=sig.dt, samples=3.0 * sig.samples), freqs)
        assert scaled == pytest.approx(3.0 * spec)


class TestPresets:
    def test_preset_table(self):
        assert PRESETS["2.5"].yield_y == pytest.approx(9e-3)
        assert PRESETS["5"].yield_y == pytest.approx(5e-3)
        assert PRESETS["10"].yield_y == pytest.approx(1e-3)
        for cfg in PRESETS.values():
            assert cfg.beta == 0.02
            assert cfg.hardening_ratio == 0.2
            assert cfg.threshold_multiple == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StructureConfig(f_l=-5.0, yield_y=1e-3)
        with pytest.raises(ValueError):
            StructureConfig(f_l=5.0, yield_y=1e-3, hardening_ratio=1.0)
        with pytest.raises(ValueError):
            StructureConfig(f_l=5.0, yield_y=1e-3, threshold_multiple=0.5)
