"""Tests for the elastoplastic oscillator and its linear twin."""

import math

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
    BLOWUP_MULTIPLE,
    CHUNK_STEPS,
    PRESETS,
    STEPS_PER_PERIOD,
    StructureConfig,
    TimeStepError,
    _refinement,
    bilinear_force,
    nonlinear_history,
    response_spectrum,
    solve_linear,
    solve_nonlinear,
    summarize,
)

CFG = StructureConfig(f_l=5.0, yield_y=5e-3)


def sample_signal(seed=7, alpha1=3.0, duration=None):
    p = GroundMotionParams(
        modulation=ModulationParams(alpha1=alpha1, alpha2=0.7, alpha3=1.2, t1=2.0, t2=7.0),
        filter=FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 4, zeta_f=0.3),
    )
    return highpass_correct(synthesize(p, duration=duration, rng=np.random.default_rng(seed)))


def reference_grid(signal, omega):
    """The integration grid over the whole record, interpolated in one call."""
    period = 2.0 * math.pi / omega
    n_sub = max(1, math.ceil(signal.dt / (period / STEPS_PER_PERIOD) - 1e-9))
    dt = signal.dt / n_sub
    n = (signal.samples.size - 1) * n_sub + 1
    if n_sub == 1:
        return dt, -signal.samples
    return dt, -np.interp(np.arange(n) * dt, signal.times, signal.samples)


def reference_solve(signal, cfg):
    """One signal stepped alone by a scalar loop with the bilinear law inline."""
    omega = cfg.omega_l
    dt, forcing = reference_grid(signal, omega)
    n = forcing.size
    e = omega**2
    sig_y = e * cfg.yield_y
    a = cfg.hardening_ratio
    h_mod = a * e / (1.0 - a)
    denom = e + h_mod
    c1 = 1.0 / dt**2 + cfg.beta * omega / dt
    c3 = 1.0 / dt**2 - cfg.beta * omega / dt
    two_over = 2.0 / dt**2
    inv_c1 = 1.0 / c1
    blowup = BLOWUP_MULTIPLE * cfg.yield_y
    out = np.empty(n)
    z_prev = 0.5 * dt**2 * forcing[0]  # startup: z(-dt) from zero initial conditions
    z = 0.0
    eps_p = 0.0
    for k in range(n - 1):
        out[k] = z
        sig_trial = e * (z - eps_p)
        xi = sig_trial - h_mod * eps_p
        if xi > sig_y:
            eps_p += (xi - sig_y) / denom
            restoring = e * (z - eps_p)
        elif xi < -sig_y:
            eps_p -= (-xi - sig_y) / denom
            restoring = e * (z - eps_p)
        else:
            restoring = sig_trial
        z_next = (forcing[k] - restoring + two_over * z - c3 * z_prev) * inv_c1
        if abs(z_next) > blowup:
            raise TimeStepError(f"nonlinear response diverged at step {k} (dt={dt})")
        z_prev = z
        z = z_next
    out[n - 1] = z
    if not math.isfinite(z):
        raise TimeStepError(f"nonlinear response diverged (dt={dt})")
    return Signal(dt=dt, samples=out)


def reference_peaks(signals, cfg):
    return np.array([np.max(np.abs(reference_solve(s, cfg).samples)) for s in signals])


def yielding_batch(cfg):
    """Signals of ragged lengths, two of them equal, each scaled to a linear
    peak of 4 yield displacements."""
    full = [sample_signal(seed=40 + i, alpha1=2.0, duration=d)
            for i, d in enumerate((27.0, 11.0, 9.5, 20.0))]
    cut = [Signal(dt=full[0].dt, samples=full[0].samples[:n]) for n in (1000, 777, 129, 128, 3)]
    batch = full + cut + [full[1]]
    scaled = []
    for sig in batch:
        l_max = np.max(np.abs(solve_linear(sig, cfg).samples))
        scaled.append(Signal(dt=sig.dt, samples=(4.0 * cfg.yield_y / l_max) * sig.samples))
    return scaled


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
        nl = nonlinear_history(sig, CFG)
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
        nl = nonlinear_history(sig, CFG)
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
            # one batch of two time steps
            z_coarse, z_fine = solve_nonlinear([sig, fine], CFG).samples
            assert abs(z_coarse - z_fine) / z_fine < 0.005


class TestBilinearLaw:
    def test_arrays_match_scalar_calls_and_the_inline_law(self):
        e = CFG.omega_l**2
        sig_y = e * CFG.yield_y
        h_mod = CFG.hardening_ratio * e / (1.0 - CFG.hardening_ratio)
        rng = np.random.default_rng(8)
        z = CFG.yield_y * rng.uniform(-6.0, 6.0, 400)
        eps_p = CFG.yield_y * rng.uniform(-3.0, 3.0, 400)
        # trial points exactly on the yield surface stay elastic
        eps_p[:2] = 0.0
        z[:2] = (CFG.yield_y, -CFG.yield_y)
        force, new_eps = bilinear_force(z, eps_p, CFG)
        xis = e * (z - eps_p) - h_mod * eps_p
        assert (xis > sig_y).sum() > 50 and (xis < -sig_y).sum() > 50
        assert (np.abs(xis) <= sig_y).sum() > 50
        for k in range(z.size):
            f_k, eps_k = bilinear_force(float(z[k]), float(eps_p[k]), CFG)
            assert same_bits(force[k], f_k) and same_bits(new_eps[k], eps_k)
            sig_trial = e * (z[k] - eps_p[k])
            xi = sig_trial - h_mod * eps_p[k]
            eps_ref = eps_p[k]
            if xi > sig_y:
                eps_ref += (xi - sig_y) / (e + h_mod)
            elif xi < -sig_y:
                eps_ref -= (-xi - sig_y) / (e + h_mod)
            force_ref = sig_trial if abs(xi) <= sig_y else e * (z[k] - eps_ref)
            assert same_bits(new_eps[k], eps_ref) and same_bits(force[k], force_ref)


class TestBatchedStepper:
    @pytest.mark.parametrize("cfg, n_sub", [(PRESETS["2.5"], 1), (PRESETS["5"], 2),
                                            (PRESETS["10"], 4),
                                            (StructureConfig(f_l=16.0, yield_y=5e-4), 7)])
    def test_ragged_batch_matches_scalar_loop(self, cfg, n_sub):
        batch = yielding_batch(cfg)
        assert _refinement(batch[0], cfg.omega_l)[0] == n_sub
        steps = [(s.samples.size - 1) * n_sub for s in batch]
        assert max(steps) > 4 * CHUNK_STEPS and any(n % CHUNK_STEPS for n in steps)
        want = reference_peaks(batch, cfg)
        assert np.all(want > cfg.yield_y)  # every signal yields
        result = solve_nonlinear(batch, cfg)
        assert same_bits(result.samples, want)
        assert same_bits(result.dt, [reference_solve(s, cfg).dt for s in batch])
        # alone, and in another order
        for sig, peak in zip(batch, want):
            assert same_bits(solve_nonlinear([sig], cfg).samples, [peak])
        perm = np.random.default_rng(1).permutation(len(batch))
        permuted = solve_nonlinear([batch[i] for i in perm], cfg).samples
        assert same_bits(permuted, want[perm])

    @pytest.mark.parametrize("preset", ["2.5", "5", "10"])
    def test_history_matches_scalar_loop(self, preset):
        cfg = PRESETS[preset]
        for sig in yielding_batch(cfg)[:2]:
            got, want = nonlinear_history(sig, cfg), reference_solve(sig, cfg)
            assert got.dt == want.dt
            assert same_bits(got.samples, want.samples)

    def test_empty_batch(self):
        result = solve_nonlinear([], CFG)
        assert result.samples.shape == (0,) and result.dt.shape == (0,)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_sample_signals(self, n):
        sig = Signal(dt=0.01, samples=np.array([0.7, -1.3])[:n])
        want = reference_solve(sig, CFG)
        assert same_bits(solve_nonlinear([sig], CFG).samples, [np.max(np.abs(want.samples))])
        assert same_bits(nonlinear_history(sig, CFG).samples, want.samples)
        # and beside a long signal
        long = sample_signal(seed=3)
        both = solve_nonlinear([sig, long], CFG).samples
        assert same_bits(both, reference_peaks([sig, long], CFG))

    @pytest.mark.parametrize("amplitude", [1e12, 1e300])
    def test_one_diverging_signal_fails_the_batch(self, amplitude):
        batch = yielding_batch(CFG)[:3]
        batch.insert(1, Signal(dt=0.01, samples=amplitude * np.ones(1500)))
        with pytest.raises(TimeStepError, match="signal 1 "):
            solve_nonlinear(batch, CFG)
        with pytest.raises(TimeStepError):
            nonlinear_history(batch[1], CFG)


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
