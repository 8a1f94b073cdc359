"""Tests for the modulated filtered white-noise signal model."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from seisfrag.ground_motion import (
    PHASOR_ANCHOR_LAGS,
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    ParameterError,
    Signal,
    highpass_correct,
    modulating_q,
    read_signal_binary,
    read_signal_csv,
    sigma_f,
    synthesize,
    unit_variance_process,
    unit_variance_processes,
    write_signal_binary,
)
from conftest import write_signal_csv


def default_params(alpha1=1.5, zeta=0.3, f0=6.0, fn=4.0):
    return GroundMotionParams(
        modulation=ModulationParams(alpha1=alpha1, alpha2=0.7, alpha3=1.2, t1=2.0, t2=7.0),
        filter=FilterParams(omega0=2 * np.pi * f0, omega_n=2 * np.pi * fn, zeta_f=zeta),
    )


class TestModulatingQ:
    def test_quadratic_ramp(self):
        m = ModulationParams(alpha1=1.0, alpha2=0.5, alpha3=1.0, t1=2.0, t2=5.0)
        assert modulating_q(1.0, m) == pytest.approx(0.25)

    def test_plateau(self):
        m = ModulationParams(alpha1=1.0, alpha2=0.5, alpha3=1.0, t1=2.0, t2=5.0)
        assert modulating_q(3.0, m) == pytest.approx(1.0)

    def test_continuity_at_breakpoints(self):
        m = ModulationParams(alpha1=2.0, alpha2=0.5, alpha3=1.0, t1=2.0, t2=5.0)
        eps = 1e-9
        for t_star in (m.t0, m.t1, m.t2):
            left = modulating_q(t_star - eps, m)
            right = modulating_q(t_star + eps, m)
            assert abs(left - right) < 1e-6
        assert modulating_q(m.t2, m) == pytest.approx(m.alpha1)

    def test_before_t0_is_zero(self):
        m = ModulationParams(alpha1=1.0, alpha2=0.5, alpha3=1.0, t1=3.0, t2=5.0, t0=1.0)
        assert modulating_q(0.5, m) == 0.0

    def test_vectorized_matches_scalar(self):
        m = ModulationParams(alpha1=1.3, alpha2=0.4, alpha3=1.5, t1=1.0, t2=4.0)
        t = np.linspace(0, 10, 57)
        vec = modulating_q(t, m)
        assert vec == pytest.approx([modulating_q(float(ti), m) for ti in t])

    @pytest.mark.parametrize("grid", ["record", "uneven", "ties"])
    @pytest.mark.parametrize("case", ["inside", "on_nodes", "t1_is_t0", "zero_amplitude",
                                      "before_grid", "after_grid"])
    def test_bitwise_equal_to_mask_envelope(self, grid, case):
        rng = np.random.default_rng(3)
        if grid == "record":
            t = np.arange(2501) * 0.01
        elif grid == "uneven":
            t = np.sort(rng.uniform(0.0, 25.0, 1500))
        else:
            t = np.repeat(np.sort(rng.uniform(0.0, 25.0, 400)), 3)
        n0, n1, n2 = (float(t[k]) for k in (90, 250, 800))  # breakpoints exactly on nodes
        params = {
            "inside": dict(alpha1=1.7, t0=0.733, t1=2.519, t2=8.007),
            "on_nodes": dict(alpha1=1.7, t0=n0, t1=n1, t2=n2),
            "t1_is_t0": dict(alpha1=1.7, t0=n0, t1=n0, t2=n2),
            "zero_amplitude": dict(alpha1=0.0, t0=0.5, t1=2.5, t2=8.0),
            "before_grid": dict(alpha1=1.7, t0=0.0, t1=0.0, t2=0.0),
            "after_grid": dict(alpha1=1.7, t0=30.0, t1=31.0, t2=32.0),
        }[case]
        m = ModulationParams(alpha2=0.61, alpha3=1.37, **params)
        assert np.array_equal(modulating_q(t, m), mask_envelope(t, m))
        for ti in (m.t0, m.t1, m.t2, m.t1 + 0.37, float(t[-1]), 40.0):
            assert modulating_q(ti, m) == mask_envelope(np.array([ti]), m)[0]
            assert modulating_q(np.float64(ti), m) == mask_envelope(np.array([ti]), m)[0]

    @pytest.mark.parametrize("t", [np.array([0.0, 2.0, 1.0]), np.linspace(10.0, 0.0, 11),
                                   np.zeros((2, 3))])
    def test_decreasing_or_multidimensional_grid_refused(self, t):
        m = ModulationParams(alpha1=1.0, alpha2=0.5, alpha3=1.0, t1=2.0, t2=5.0)
        with pytest.raises(ValueError):
            modulating_q(t, m)


def mask_envelope(t: np.ndarray, m: ModulationParams) -> np.ndarray:
    """The envelope law with one boolean mask per phase, which needs no sort."""
    out = np.zeros(t.shape)
    if m.alpha1 != 0.0:
        if m.t1 > m.t0:
            rising = (t > m.t0) & (t <= m.t1)
            out[rising] = m.alpha1 * ((t[rising] - m.t0) / (m.t1 - m.t0)) ** 2
        plateau = (t > m.t1) & (t <= m.t2)
        out[plateau] = m.alpha1
        tail = t > m.t2
        out[tail] = m.alpha1 * np.exp(-m.alpha2 * (t[tail] - m.t2) ** m.alpha3)
    return out


class TestSigmaF:
    def test_zero_at_t0(self):
        filt = FilterParams(omega0=10.0, omega_n=10.0, zeta_f=0.4)
        assert sigma_f(0.0, filt, 0.01) == 0.0

    def test_constant_filter_closed_form(self):
        # stationary variance of the filtered process: omega / (4 zeta)
        filt = FilterParams(omega0=2 * np.pi * 5, omega_n=2 * np.pi * 5, zeta_f=0.4)
        target = filt.omega0 / (4 * filt.zeta_f)
        value = sigma_f(30.0, filt, 0.005) ** 2
        assert value == pytest.approx(target, rel=5e-3)

    def test_quadrature_converges_in_dt(self):
        filt = FilterParams(omega0=2 * np.pi * 5, omega_n=2 * np.pi * 5, zeta_f=0.4)
        coarse = sigma_f(20.0, filt, 0.01)
        fine = sigma_f(20.0, filt, 0.005)
        assert abs(coarse - fine) / fine < 0.01


def reference_response(filt, n, dt, noise, truncate_irf=True):
    """The per-lag loop of the normalized response for one noise vector."""
    zf = filt.zeta_f
    omegas = filt.omega_at(np.arange(n) * dt, (n - 1) * dt)
    wd = omegas * math.sqrt(1.0 - zf**2)
    amp = omegas / math.sqrt(1.0 - zf**2)
    max_lag_steps = n - 1
    if truncate_irf:
        max_lag_steps = min(max_lag_steps, int(math.ceil(8.0 / (zf * np.min(omegas)) / dt)))
    x = np.zeros(n)
    s2 = np.zeros(n)
    w_dt = noise * dt
    for ell in range(1, max_lag_steps + 1):
        lag = ell * dt
        h = amp[: n - ell] * np.exp(-zf * omegas[: n - ell] * lag) * np.sin(wd[: n - ell] * lag)
        x[ell:] += h * w_dt[: n - ell]
        s2[ell:] += h**2 * dt
    y = np.zeros(n)
    np.divide(x, np.sqrt(s2, out=np.zeros(n), where=s2 > 0), out=y, where=s2 > 0)
    return y


def reference_noise(seed, n, dt):
    return np.random.default_rng(seed).standard_normal(n) / math.sqrt(dt)


# The phasor recurrence rounds differently from the per-lag exp/sin loop; over
# at most PHASOR_ANCHOR_LAGS steps the unit-variance process moves by ~2e-14.
RESPONSE_TOL = 1e-13


def memory_lags(filt, n, dt):
    """The number of lags the convolution sums, as reference_response counts them."""
    omega_min = min(filt.omega0, filt.omega_n)
    return min(n - 1, int(math.ceil(8.0 / (filt.zeta_f * omega_min) / dt)))


class TestUnitVarianceProcess:
    FILT = FilterParams(omega0=2 * np.pi * 7, omega_n=2 * np.pi * 3, zeta_f=0.25)
    DURATION, DT = 6.0, 0.01
    N = 601
    # (filter, duration, lags its truncated memory must exceed): a ramped
    # filter whose memory spans three re-anchors, and a long-memory one
    CASES = {
        "ramp": (FilterParams(omega0=2 * np.pi * 7, omega_n=2 * np.pi * 3, zeta_f=0.2), 6.0,
                 3 * PHASOR_ANCHOR_LAGS),
        "long_memory": (FilterParams(omega0=2 * np.pi * 1.0, omega_n=2 * np.pi * 1.1,
                                     zeta_f=0.05), 30.0, 2000),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_block_matches_per_lag_loop(self, case):
        filt, duration, min_lags = self.CASES[case]
        n = int(round(duration / self.DT)) + 1
        assert memory_lags(filt, n, self.DT) > min_lags
        seeds = (3, 8, 21)
        block = unit_variance_processes(
            filt, duration, self.DT, [np.random.default_rng(s) for s in seeds]
        )
        for row, seed in zip(block, seeds):
            want = reference_response(filt, n, self.DT, reference_noise(seed, n, self.DT))
            assert np.max(np.abs(row - want)) <= RESPONSE_TOL

    def test_replicate_rows_equal_single_realizations(self):
        seeds = (3, 8, 21, 40)
        block = unit_variance_processes(
            self.FILT, self.DURATION, self.DT, [np.random.default_rng(s) for s in seeds]
        )
        assert block.shape == (len(seeds), self.N)
        for row, seed in zip(block, seeds):
            single = unit_variance_process(
                self.FILT, self.DURATION, self.DT, np.random.default_rng(seed)
            )
            assert np.array_equal(row, single.samples)

    def test_invalid_filter_rejected(self):
        bad = FilterParams(omega0=10.0, omega_n=10.0, zeta_f=1.5)
        with pytest.raises(ParameterError):
            unit_variance_processes(bad, 1.0, 0.01, [np.random.default_rng(0)])


class TestSynthesize:
    def test_matches_per_lag_loop(self):
        p = default_params(zeta=0.2, f0=9.0, fn=3.0)
        sig = synthesize(p, rng=np.random.default_rng(17))
        y = unit_variance_process(p.filter, p.modulation.t2 + 20.0, sig.dt,
                                  np.random.default_rng(17))
        assert np.array_equal(sig.samples, modulating_q(sig.times, p.modulation) * y.samples)
        n = sig.samples.size
        want = reference_response(p.filter, n, sig.dt, reference_noise(17, n, sig.dt))
        assert np.max(np.abs(y.samples - want)) <= RESPONSE_TOL

    def test_zero_amplitude_gives_zero_signal(self):
        p = default_params(alpha1=0.0)
        sig = synthesize(p, rng=np.random.default_rng(0))
        assert np.all(sig.samples == 0.0)

    def test_deterministic_given_seed(self):
        p = default_params()
        a = synthesize(p, rng=np.random.default_rng(42))
        b = synthesize(p, rng=np.random.default_rng(42))
        assert np.array_equal(a.samples, b.samples)

    def test_linear_scaling_in_alpha1(self):
        base = default_params(alpha1=1.0)
        double = default_params(alpha1=2.0)
        a = synthesize(base, rng=np.random.default_rng(5))
        b = synthesize(double, rng=np.random.default_rng(5))
        assert b.samples == pytest.approx(2.0 * a.samples)

    def test_expected_energy_matches_envelope_integral(self):
        # Monte Carlo mean of int s^2 equals int q^2 (unit-variance inner process)
        p = default_params()
        acc = 0.0
        n_seeds = 500
        for i in range(n_seeds):
            sig = synthesize(p, rng=np.random.default_rng(1000 + i))
            acc += np.trapezoid(sig.samples**2, dx=sig.dt)
        t = sig.times
        target = np.trapezoid(modulating_q(t, p.modulation) ** 2, dx=sig.dt)
        assert acc / n_seeds == pytest.approx(target, rel=0.02)

    def test_plateau_variance_matches_alpha1_squared(self):
        p = default_params(alpha1=1.5)
        k = int(5.0 / 0.01)  # well inside the plateau
        vals = np.array(
            [synthesize(p, rng=np.random.default_rng(i)).samples[k] for i in range(600)]
        )
        assert vals.var() == pytest.approx(p.modulation.alpha1**2, rel=0.15)

    def test_irf_truncation_error_is_small(self):
        p = default_params(zeta=0.15)
        trunc = synthesize(p, rng=np.random.default_rng(9))
        n = trunc.samples.size
        assert memory_lags(p.filter, n, trunc.dt) < n - 1  # the cutoff drops lags
        full = reference_response(p.filter, n, trunc.dt, reference_noise(9, n, trunc.dt),
                                  truncate_irf=False)
        exact = modulating_q(trunc.times, p.modulation) * full
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - trunc.samples)) < 1e-3 * scale

    def test_duration_shorter_than_plateau_rejected(self):
        p = default_params()
        with pytest.raises(ParameterError):
            synthesize(p, duration=3.0, rng=np.random.default_rng(0))

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            FilterParams(omega0=-1.0, omega_n=10.0, zeta_f=0.5).validate()
        with pytest.raises(ParameterError):
            ModulationParams(alpha1=1.0, alpha2=0.5, alpha3=1.0, t1=5.0, t2=2.0).validate()
        with pytest.raises(ParameterError):
            FilterParams(omega0=10.0, omega_n=10.0, zeta_f=1.2).validate()


class TestHighpassCorrect:
    def test_zero_input_zero_output(self):
        sig = Signal(dt=0.01, samples=np.zeros(500))
        out = highpass_correct(sig)
        assert np.all(out.samples == 0.0)

    def test_dc_step_decays(self):
        sig = Signal(dt=0.01, samples=np.ones(6000))
        out = highpass_correct(sig)
        assert abs(out.samples[0]) == pytest.approx(1.0, rel=0.05)
        assert abs(out.samples[-1]) < 1e-3

    def test_linearity(self):
        rng = np.random.default_rng(11)
        s1 = Signal(dt=0.01, samples=rng.standard_normal(800))
        s2 = Signal(dt=0.01, samples=rng.standard_normal(800))
        combo = Signal(dt=0.01, samples=2.0 * s1.samples - 3.0 * s2.samples)
        lhs = highpass_correct(combo).samples
        rhs = 2.0 * highpass_correct(s1).samples - 3.0 * highpass_correct(s2).samples
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_zero_residuals_on_padded_synthetic_signal(self):
        p = GroundMotionParams(
            modulation=ModulationParams(alpha1=2.0, alpha2=0.8, alpha3=1.3, t1=2.0, t2=6.0),
            filter=FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 4, zeta_f=0.3),
        )
        raw = synthesize(p, duration=p.modulation.t2 + 25.0, rng=np.random.default_rng(3))
        out = highpass_correct(raw)
        from scipy.integrate import cumulative_trapezoid

        vel = cumulative_trapezoid(out.samples, dx=out.dt, initial=0.0)
        disp = cumulative_trapezoid(vel, dx=out.dt, initial=0.0)
        assert abs(vel[-1]) < 1e-3 * np.max(np.abs(vel))
        assert abs(disp[-1]) < 1e-3 * np.max(np.abs(disp))


class TestSignalIO:
    def test_csv_roundtrip(self, tmp_path):
        sig = Signal(dt=0.02, samples=np.array([0.0, 1.25, -3.5e-7, 2.0]))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, sig)
        back = read_signal_csv(path)
        assert back.dt == sig.dt
        assert np.array_equal(back.samples, sig.samples)

    @pytest.mark.parametrize("failure", ["samples", "disk"])
    def test_csv_write_failing_midway_keeps_the_previous_file(self, tmp_path, monkeypatch, failure):
        """A write that raises part way leaves the earlier record as it was, and
        no temporary file: a truncated record would read back as a shorter valid one."""
        path = tmp_path / "sig.csv"
        write_signal_csv(path, Signal(dt=0.02, samples=np.array([0.0, 1.25, -3.5e-7, 2.0])))
        before = path.read_bytes()
        samples = np.linspace(-1.0, 1.0, 50)
        if failure == "samples":
            def values():
                yield from samples[:25]
                raise OSError("the source failed")
            sig = SimpleNamespace(dt=0.01, samples=values())
        else:
            sig = Signal(dt=0.01, samples=samples)

            def half_then_fail(self, data):
                with open(self, "wb") as fh:
                    fh.write(data[: len(data) // 2])
                raise OSError(28, "No space left on device")
            monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        with pytest.raises(OSError):
            write_signal_csv(path, sig)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["sig.csv"]

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = Signal(dt=0.005, samples=rng.standard_normal(257))
        path = tmp_path / "sig.bin"
        write_signal_binary(path, sig)
        back = read_signal_binary(path)
        assert back.dt == sig.dt
        assert np.array_equal(back.samples, sig.samples)

    @pytest.mark.parametrize("stray", [1, 3, 7])
    def test_binary_length_must_be_whole_floats(self, tmp_path, stray):
        path = tmp_path / "sig.bin"
        path.write_bytes(np.array([0.01, 1.0, 2.0], dtype="<f8").tobytes() + b"\x00" * stray)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {24 + stray} bytes "
                                             "is not a whole number of float64 values$"):
            read_signal_binary(path)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_refused_in_both_formats(self, tmp_path, dt):
        csv_path, bin_path = tmp_path / "sig.csv", tmp_path / "sig.bin"
        csv_path.write_text(f"dt={dt}\n1.0\n2.0\n")
        np.array([dt, 1.0, 2.0], dtype="<f8").tofile(bin_path)
        for read, path in ((read_signal_csv, csv_path), (read_signal_binary, bin_path)):
            with pytest.raises(ParameterError, match="dt must be positive and finite"):
                read(path)

    @pytest.mark.parametrize("text, where", [("dt=abc\n1.0\n", "line 1: bad dt 'abc'"),
                                             ("dt=0.01\n1.0\n\nabc\n", "line 4: bad sample 'abc'")],
                             ids=["dt", "sample"])
    def test_csv_parse_error_names_path_and_line(self, tmp_path, text, where):
        path = tmp_path / "sig.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {where}$"):
            read_signal_csv(path)

    def test_signal_validation(self):
        with pytest.raises(ParameterError):
            Signal(dt=0.0, samples=np.ones(3))
        with pytest.raises(ParameterError):
            Signal(dt=0.01, samples=np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            Signal(dt=0.01, samples=np.array([]))


class TestParamsVector:
    def test_roundtrip(self):
        p = default_params()
        q = GroundMotionParams.from_vector(p.as_vector())
        assert q == p

    def test_vector_order(self):
        p = default_params()
        v = p.as_vector()
        assert v[0] == p.modulation.alpha1
        assert v[5] == p.filter.omega0
        assert v[7] == p.filter.zeta_f
