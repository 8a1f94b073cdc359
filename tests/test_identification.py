"""Tests for envelope, frequency, and damping identification."""

import math
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad

from seisfrag.ground_motion import (
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    Signal,
    modulating_q,
    synthesize,
    unit_variance_process,
)
from seisfrag import ground_motion, identification
from seisfrag.identification import (
    FrequencyFit,
    IdentificationConfig,
    TargetRecord,
    _rate_at_times,
    count_irregular_extrema,
    count_upcrossings,
    expected_upcrossing_count,
    fit_damping,
    fit_filter_frequencies,
    fit_modulation,
    identify,
    mean_upcrossing_rate,
    read_params_csv,
    write_params_csv,
)
from seisfrag.oscillator import StructureConfig, response_spectrum
from seisfrag.rng import stream
from test_runner import cores, no_fork

TRUE_MOD = ModulationParams(alpha1=1.8, alpha2=0.6, alpha3=1.3, t1=2.5, t2=8.0)
TRUE_FILTER = FilterParams(omega0=2 * np.pi * 9, omega_n=2 * np.pi * 4.5, zeta_f=0.3)
DURATION = 25.0
DT = 0.01


def exact_energy_record(mod: ModulationParams, duration=DURATION, dt=DT) -> TargetRecord:
    """Record whose energy series is the exact envelope integral (zero noise)."""
    t = np.arange(int(duration / dt) + 1) * dt
    q2 = modulating_q(t, mod) ** 2
    sig = Signal(dt=dt, samples=np.sqrt(q2))
    return TargetRecord(
        signal=sig,
        cumulative_energy=cumulative_trapezoid(q2, t, initial=0.0),
        upcrossing_count=np.zeros(t.size),
        extrema_count=np.zeros(t.size),
    )


def pseudo_record(seed, mod=TRUE_MOD, filt=TRUE_FILTER) -> TargetRecord:
    sig = synthesize(GroundMotionParams(mod, filt), duration=DURATION,
                     rng=np.random.default_rng(seed))
    return TargetRecord.from_signal(sig)


class TestCounting:
    def test_upcrossings_hand_case(self):
        samples = np.array([-1.0, 1.0, 0.5, -0.5, -0.1, 2.0, 1.0])
        counts = count_upcrossings(samples)
        assert counts[-1] == 2  # crossings at steps 0->1 and 4->5
        assert np.all(np.diff(counts) >= 0)

    def test_upcrossing_counts_zero_boundary(self):
        # a sample exactly at zero counts as 'below' for the next step
        assert count_upcrossings(np.array([0.0, 1.0]))[-1] == 1
        assert count_upcrossings(np.array([1.0, 0.0, 1.0]))[-1] == 1

    def test_irregular_extrema_hand_case(self):
        # positive minimum at 0.5, negative maximum at -0.4
        samples = np.array([2.0, 0.5, 1.5, -1.0, -0.4, -1.2, 0.0])
        counts = count_irregular_extrema(samples)
        assert counts[-1] == 2
        assert np.all(np.diff(counts) >= 0)

    def test_narrowband_has_fewer_irregular_extrema(self):
        filt_nb = FilterParams(omega0=30.0, omega_n=30.0, zeta_f=0.05)
        filt_bb = FilterParams(omega0=30.0, omega_n=30.0, zeta_f=0.6)
        nb = unit_variance_process(filt_nb, 20.0, DT, np.random.default_rng(0))
        bb = unit_variance_process(filt_bb, 20.0, DT, np.random.default_rng(0))
        assert count_irregular_extrema(nb.samples)[-1] < count_irregular_extrema(bb.samples)[-1]


class TestFitModulation:
    def test_exact_energy_round_trip(self):
        fit = fit_modulation(exact_energy_record(TRUE_MOD))
        m = fit.params
        for got, want in [
            (m.alpha1, TRUE_MOD.alpha1),
            (m.alpha2, TRUE_MOD.alpha2),
            (m.alpha3, TRUE_MOD.alpha3),
            (m.t1, TRUE_MOD.t1),
            (m.t2, TRUE_MOD.t2),
        ]:
            assert abs(got - want) / want < 0.02
        assert fit.converged

    def test_matched_terminal_energy(self):
        record = exact_energy_record(TRUE_MOD)
        fit = fit_modulation(record)
        t = record.times
        e_s = cumulative_trapezoid(modulating_q(t, fit.params) ** 2, t, initial=0.0)
        assert e_s[-1] == pytest.approx(record.cumulative_energy[-1], rel=0.01)

    def test_zero_energy_rejected(self):
        sig = Signal(dt=DT, samples=np.zeros(2000))
        record = TargetRecord.from_signal(sig)
        with pytest.raises(ValueError):
            fit_modulation(record)

    def test_sign_invariance(self):
        sig = pseudo_record(7).signal
        rec_pos = TargetRecord.from_signal(sig)
        rec_neg = TargetRecord.from_signal(Signal(dt=sig.dt, samples=-sig.samples))
        fit_pos = fit_modulation(rec_pos)
        fit_neg = fit_modulation(rec_neg)
        assert fit_pos.params.alpha1 == pytest.approx(fit_neg.params.alpha1, rel=1e-9)


class TestUpcrossingRate:
    def test_narrow_band_limit(self):
        filt = FilterParams(omega0=2 * np.pi * 4, omega_n=2 * np.pi * 4, zeta_f=0.02)
        rate = mean_upcrossing_rate(30.0, filt, 0.01)
        assert rate == pytest.approx(filt.omega0 / (2 * math.pi), rel=0.03)

    def test_stationary_rice_rate(self):
        zf, omega = 0.4, 2 * np.pi * 4
        root = math.sqrt(1 - zf**2)

        def h(u):
            return omega / root * math.exp(-zf * omega * u) * math.sin(omega * root * u)

        def h_dot(u):
            return (
                omega / root * math.exp(-zf * omega * u)
                * (omega * root * math.cos(omega * root * u) - zf * omega * math.sin(omega * root * u))
            )

        i_h2 = quad(lambda u: h(u) ** 2, 0, 60, limit=800)[0]
        i_hd2 = quad(lambda u: h_dot(u) ** 2, 0, 60, limit=800)[0]
        rice = math.sqrt(i_hd2 / i_h2) / (2 * math.pi)
        filt = FilterParams(omega0=omega, omega_n=omega, zeta_f=zf)
        assert mean_upcrossing_rate(30.0, filt, 0.001) == pytest.approx(rice, rel=0.03)

    def test_frequency_scaling(self):
        filt = FilterParams(omega0=20.0, omega_n=10.0, zeta_f=0.3)
        doubled = FilterParams(omega0=40.0, omega_n=20.0, zeta_f=0.3)
        t = 12.0
        base = mean_upcrossing_rate(t, filt, 0.002, ramp_duration=20.0)
        scaled = mean_upcrossing_rate(t / 2, doubled, 0.001, ramp_duration=10.0)
        assert scaled == pytest.approx(2 * base, rel=0.02)

    def test_monte_carlo_count_matches_integral(self):
        filt = FilterParams(omega0=2 * np.pi * 4, omega_n=2 * np.pi * 4, zeta_f=0.4)
        duration = 20.0
        total = 0
        n_seeds = 500
        for i in range(n_seeds):
            sim = unit_variance_process(filt, duration, DT, np.random.default_rng(3000 + i))
            total += count_upcrossings(sim.samples)[-1]
        monte_carlo = total / n_seeds
        ts = np.linspace(0.2, duration, 120)
        config = IdentificationConfig(adjustment_factor=1.0, quad_dt=DT)
        integral = expected_upcrossing_count(ts, filt, config, duration)[-1]
        assert monte_carlo == pytest.approx(integral, rel=0.05)

    def test_expected_count_non_decreasing(self):
        ts = np.linspace(0.5, DURATION, 60)
        counts = expected_upcrossing_count(ts, TRUE_FILTER, IdentificationConfig(), DURATION)
        assert np.all(np.diff(counts) >= 0)

    def test_rate_undefined_before_first_pulse(self):
        with pytest.raises(ValueError):
            mean_upcrossing_rate(0.001, TRUE_FILTER, 0.01)


def direct_rate(ts, filt, quad_dt, ramp_duration):
    """Up-crossing rate with exp, sin and cos evaluated on every (node, lag) cell."""
    ts = np.asarray(ts, dtype=float)
    zf = filt.zeta_f
    omega_max = max(filt.omega0, filt.omega_n)
    omega_min = min(filt.omega0, filt.omega_n)
    quad_dt = min(quad_dt, 2.0 * math.pi / (32.0 * omega_max))
    memory = min(8.0 / (zf * omega_min), float(np.max(ts)))
    lags = (np.arange(int(math.ceil(memory / quad_dt))) + 0.5) * quad_dt

    taus = ts[:, None] - lags[None, :]
    active = taus >= 0
    taus = np.where(active, taus, 0.0)
    omegas = filt.omega_at(taus, ramp_duration)
    root = math.sqrt(1.0 - zf**2)
    wd = omegas * root
    amp = omegas / root

    decay = np.exp(-zf * omegas * lags[None, :])
    phase = wd * lags[None, :]
    sin_p = np.sin(phase)
    h = np.where(active, amp * decay * sin_p, 0.0)
    h_dot = np.where(active, amp * decay * (wd * np.cos(phase) - zf * omegas * sin_p), 0.0)

    sig2 = np.sum(h**2, axis=1) * quad_dt
    cross = np.sum(h * h_dot, axis=1) * quad_dt
    inner = h_dot - h * (cross / sig2)[:, None]
    sdot2 = np.sum(np.where(active, inner, 0.0) ** 2, axis=1) * quad_dt / sig2
    return np.sqrt(sdot2) / (2.0 * math.pi)


def assert_rates_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want) / want) <= 1e-12


# (omega0, omega_n, duration): ramps of both signs, two at the objective's band edges
RAMPS = [
    (2 * np.pi * 9, 2 * np.pi * 4.5, 25.0),
    (2 * np.pi * 3, 2 * np.pi * 12, 25.0),
    (0.2, 500.0, 3.0),
    (500.0, 0.2, 3.0),
]


class TestRateKernel:
    @pytest.mark.parametrize("zeta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    @pytest.mark.parametrize("omega0, omega_n, duration", RAMPS)
    def test_matches_direct_formula(self, zeta, omega0, omega_n, duration):
        filt = FilterParams(omega0=omega0, omega_n=omega_n, zeta_f=zeta)
        ts = np.linspace(duration / 48, duration, 48)
        got = _rate_at_times(ts, filt, 0.05, duration)
        assert_rates_close(got, direct_rate(ts, filt, 0.05, duration))

    @pytest.mark.parametrize("omega0, omega_n", [(6.0, 3.0), (3.0, 6.0), (4.0, 4.0)])
    def test_nodes_shorter_than_the_memory(self, omega0, omega_n):
        # memory 8 / (zeta omega_min) = 27 s: every node sees only part of it
        filt = FilterParams(omega0=omega0, omega_n=omega_n, zeta_f=0.1)
        ts = np.linspace(0.02, 1.5, 30)
        assert_rates_close(_rate_at_times(ts, filt, 0.01, 20.0),
                           direct_rate(ts, filt, 0.01, 20.0))

    @pytest.mark.parametrize("t", [0.02, 0.3, 4.0, 30.0])
    @pytest.mark.parametrize("omega0, omega_n", [(40.0, 12.0), (12.0, 40.0)])
    def test_single_node(self, t, omega0, omega_n):
        filt = FilterParams(omega0=omega0, omega_n=omega_n, zeta_f=0.15)
        for ramp in (None, 30.0):
            got = mean_upcrossing_rate(t, filt, 0.01, ramp_duration=ramp)
            want = direct_rate([t], filt, 0.01, t if ramp is None else ramp)[0]
            assert abs(got - want) <= 1e-12 * want

    def test_expected_count_uses_the_kernel(self):
        ts = np.linspace(DURATION / 48, DURATION, 48)
        config = IdentificationConfig()
        nu = direct_rate(ts, TRUE_FILTER, config.quad_dt, DURATION)
        want = config.adjustment_factor * (
            cumulative_trapezoid(nu, ts, initial=0.0) + nu[0] * ts[0]
        )
        got = expected_upcrossing_count(ts, TRUE_FILTER, config, DURATION)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    @pytest.mark.parametrize("ts", [
        np.array([0.5, 1.0, 2.0, 2.5]),
        np.linspace(0.5, 10.0, 20) + np.r_[np.zeros(19), 1e-6],
        np.linspace(10.0, 0.5, 20),
        np.array([[0.5, 1.0], [1.5, 2.0]]),
        np.array([]),
    ])
    def test_uneven_or_malformed_grid_refused(self, ts):
        with pytest.raises(ValueError):
            _rate_at_times(ts, TRUE_FILTER, 0.05, DURATION)
        with pytest.raises(ValueError):
            expected_upcrossing_count(ts, TRUE_FILTER, IdentificationConfig(), DURATION)


def min_loop_rate(ts, filt, quad_dt, ramp_duration):
    """_rate_at_times with its node loop in the form that takes min(n, live)
    on every row and stores the (mostly empty) anchor slice every time."""
    ts = np.asarray(ts, dtype=float)
    k = ts.size
    gap = (ts[-1] - ts[0]) / max(k - 1, 1)
    zf = filt.zeta_f
    omega_max = max(filt.omega0, filt.omega_n)
    omega_min = min(filt.omega0, filt.omega_n)
    quad_dt = min(quad_dt, 2.0 * math.pi / (32.0 * omega_max))
    memory = min(8.0 / (zf * omega_min), float(ts[-1]))
    lags = (np.arange(int(math.ceil(memory / quad_dt))) + 0.5) * quad_dt

    root = math.sqrt(1.0 - zf**2)
    c = complex(-zf, root)
    slope = (filt.omega_n - filt.omega0) / max(ramp_duration, 1e-12)
    step = np.exp(c * abs(slope) * gap * lags)
    alive = np.searchsorted(lags, ts, side="right").tolist()
    if slope >= 0:
        order, start = range(k), ts[np.minimum(np.searchsorted(ts, lags), k - 1)]
    else:
        order, start = range(k - 1, -1, -1), ts[-1]
    anchors = np.exp(c * filt.omega_at(np.maximum(start - lags, 0.0), ramp_duration) * lags)
    phasors = np.zeros((k, lags.size), dtype=complex)
    row, live = phasors[0, :0], 0
    for r in order:
        n = alive[r]
        m = min(n, live)
        np.multiply(row[:m], step[:m], out=phasors[r, :m])
        phasors[r, live:n] = anchors[live:n]
        row, live = phasors[r], n

    omegas = np.subtract.outer(filt.omega_at(ts, ramp_duration), slope * lags)
    h = omegas * phasors.imag
    phasors *= c
    h_dot = np.square(omegas, out=omegas)
    h_dot *= phasors.imag
    sig2 = np.einsum("ij,ij->i", h, h)
    cross = np.einsum("ij,ij->i", h, h_dot)
    sdot2 = (np.einsum("ij,ij->i", h_dot, h_dot) - cross**2 / sig2) / sig2
    return np.sqrt(sdot2) / (2.0 * math.pi)


def captured_objective(monkeypatch, fit, *args):
    """The Nelder-Mead objective a fit builds, and its first start."""
    seen = {}

    def first_start(objective, starts, options):
        seen.update(objective=objective, start=np.asarray(starts[0]))
        return SimpleNamespace(x=starts[0], fun=objective(starts[0]), success=True)

    monkeypatch.setattr(identification, "_best_of_starts", first_start)
    fit(*args)
    return seen["objective"], seen["start"]


class TestArithmeticForms:
    """The identification hot paths equal their library forms bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 3, 17, 2501])
    def test_integrators_equal_scipy_and_numpy(self, size):
        rng = np.random.default_rng(size)
        x = np.sort(rng.uniform(0.0, 30.0, size))
        y = rng.standard_normal(size) ** 2
        gaps = np.diff(x)
        assert np.array_equal(ground_motion.cumulative_trapezoid(y, gaps),
                              cumulative_trapezoid(y, x, initial=0.0))
        assert np.array_equal(ground_motion.cumulative_trapezoid(y, 0.01),
                              cumulative_trapezoid(y, dx=0.01, initial=0.0))
        assert ground_motion.trapezoid(y, gaps) == np.trapezoid(y, x)
        assert ground_motion.trapezoid(y, 0.01) == np.trapezoid(y, dx=0.01)

    def test_record_energy_equals_scipy(self):
        sig = pseudo_record(5).signal
        assert np.array_equal(TargetRecord.from_signal(sig).cumulative_energy,
                              cumulative_trapezoid(sig.samples**2, dx=sig.dt, initial=0.0))

    @pytest.mark.parametrize("zeta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("omega0, omega_n, duration", RAMPS)
    def test_rate_equals_min_loop(self, zeta, omega0, omega_n, duration):
        filt = FilterParams(omega0=omega0, omega_n=omega_n, zeta_f=zeta)
        ts = np.linspace(duration / 48, duration, 48)
        assert np.array_equal(_rate_at_times(ts, filt, 0.05, duration),
                              min_loop_rate(ts, filt, 0.05, duration))

    @pytest.mark.parametrize("omega0, omega_n", [(6.0, 3.0), (3.0, 6.0), (4.0, 4.0)])
    def test_rate_equals_min_loop_while_pulses_appear(self, omega0, omega_n):
        # memory 27 s over nodes up to 1.5 s: new pulses appear at every node
        filt = FilterParams(omega0=omega0, omega_n=omega_n, zeta_f=0.1)
        for ts in (np.linspace(0.02, 1.5, 30), np.array([0.7])):
            assert np.array_equal(_rate_at_times(ts, filt, 0.01, 20.0),
                                  min_loop_rate(ts, filt, 0.01, 20.0))

    def test_modulation_objective_equals_scipy_form(self, monkeypatch):
        record = pseudo_record(21)
        objective, start = captured_objective(monkeypatch, fit_modulation, record)
        t, e_a = record.times, record.cumulative_energy
        t0 = float(t[max(int(np.argmax(e_a > 1e-12 * e_a[-1])) - 1, 0)])

        def scipy_form(u):
            if np.any(np.abs(u) > 50):
                return 1e30
            t1 = t0 + math.exp(u[3])
            m = ModulationParams(alpha1=math.exp(u[0]), alpha2=math.exp(u[1]),
                                 alpha3=math.exp(u[2]), t1=t1, t2=t1 + math.exp(u[4]), t0=t0)
            e_s = cumulative_trapezoid(modulating_q(t, m) ** 2, t, initial=0.0)
            return float(np.trapezoid((e_s - e_a) ** 2, t))

        rng = np.random.default_rng(8)
        points = [start + rng.normal(0.0, 1.0, 5) for _ in range(46)]
        points += [start + np.r_[0, 0, 0, -60.0, 0], start + np.r_[51.0, 0, 0, 0, 0],
                   np.r_[start[:3], -45.0, -45.0], np.zeros(5)]
        for u in points:
            assert objective(u) == scipy_form(u)

    def test_frequency_objective_equals_scipy_form(self, monkeypatch):
        record = pseudo_record(22)
        config = IdentificationConfig()
        objective, start = captured_objective(
            monkeypatch, fit_filter_frequencies, record, 0.3, config
        )
        duration = record.duration
        ts = np.linspace(duration / config.eval_nodes, duration, config.eval_nodes)
        n_a = np.interp(ts, record.times, record.upcrossing_count)

        def scipy_form(v):
            if np.any(v < math.log(0.2)) or np.any(v > math.log(500.0)):
                return 1e30
            filt = FilterParams(omega0=math.exp(v[0]), omega_n=math.exp(v[1]), zeta_f=0.3)
            nu = min_loop_rate(ts, filt, config.quad_dt, duration)
            n_x = config.adjustment_factor * (
                cumulative_trapezoid(nu, ts, initial=0.0) + nu[0] * ts[0]
            )
            return float(np.trapezoid((n_x - n_a) ** 2, ts))

        rng = np.random.default_rng(9)
        points = [start + rng.normal(0.0, 0.5, 2) for _ in range(47)]
        points += [np.log([0.1, 30.0]), np.log([30.0, 600.0]), np.log([0.2, 500.0])]
        for v in points:
            assert objective(v) == scipy_form(v)


class TestFitFrequencies:
    def test_round_trip_average(self):
        estimates = []
        for i in range(8):
            fit = fit_filter_frequencies(pseudo_record(900 + i), TRUE_FILTER.zeta_f)
            estimates.append([fit.omega0, fit.omega_n])
        mean = np.mean(estimates, axis=0)
        assert abs(mean[0] - TRUE_FILTER.omega0) / TRUE_FILTER.omega0 < 0.10
        assert abs(mean[1] - TRUE_FILTER.omega_n) / TRUE_FILTER.omega_n < 0.10

    def test_stationary_record_gives_equal_frequencies(self):
        filt = FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 6, zeta_f=0.3)
        fits = [
            fit_filter_frequencies(pseudo_record(40 + i, filt=filt), 0.3) for i in range(3)
        ]
        w0 = np.mean([f.omega0 for f in fits])
        wn = np.mean([f.omega_n for f in fits])
        assert abs(w0 - wn) / w0 < 0.15

    def test_time_reversed_counts_swap_frequencies(self):
        record = pseudo_record(11)
        counts = record.upcrossing_count
        reversed_counts = counts[-1] - counts[::-1]
        reversed_record = TargetRecord(
            signal=record.signal,
            cumulative_energy=record.cumulative_energy,
            upcrossing_count=reversed_counts,
            extrema_count=record.extrema_count,
        )
        forward = fit_filter_frequencies(record, TRUE_FILTER.zeta_f)
        backward = fit_filter_frequencies(reversed_record, TRUE_FILTER.zeta_f)
        assert forward.omega0 > forward.omega_n  # source sweeps downward
        assert backward.omega0 < backward.omega_n

    def test_too_few_crossings_rejected(self):
        sig = Signal(dt=DT, samples=np.sin(np.arange(100) * DT * 0.5))
        with pytest.raises(ValueError):
            fit_filter_frequencies(TargetRecord.from_signal(sig), 0.3)


class TestFitDamping:
    def test_round_trip_within_one_grid_step(self):
        filt = FilterParams(omega0=2 * np.pi * 9, omega_n=2 * np.pi * 4.5, zeta_f=0.4)
        hits = 0
        trials = 20
        for i in range(trials):
            record = pseudo_record(300 + i, filt=filt)
            fit = fit_damping(record, IdentificationConfig(seed=i))
            hits += fit.zeta_f in (0.3, 0.4, 0.5)
        assert hits >= 0.9 * trials

    def test_narrow_band_source_picks_smallest_grid_value(self):
        filt = FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 6, zeta_f=0.05)
        small = 0
        for i in range(5):
            record = pseudo_record(600 + i, filt=filt)
            fit = fit_damping(record, IdentificationConfig(seed=i))
            small += fit.zeta_f == 0.1
        assert small >= 3

    def test_mismatches_equal_per_replicate_loop(self):
        record = pseudo_record(31)
        config = IdentificationConfig(seed=4, damping_grid=(0.2, 0.5), sim_replicates=3)
        want = []
        for gi, zeta in enumerate(config.damping_grid):
            freq = fit_filter_frequencies(record, zeta, config)
            filt = FilterParams(omega0=freq.omega0, omega_n=freq.omega_n, zeta_f=zeta)
            acc = np.zeros(record.times.size)
            for rep in range(config.sim_replicates):
                sim = unit_variance_process(
                    filt, record.duration, record.signal.dt, stream(4, "damping", gi, rep)
                )
                acc += count_irregular_extrema(sim.samples)
            mean_counts = acc / config.sim_replicates
            want.append(float(np.trapezoid((mean_counts - record.extrema_count) ** 2,
                                           record.times)))
        assert fit_damping(record, config).mismatches == tuple(want)

    def test_ties_go_to_the_smaller_damping(self):
        fits = [FrequencyFit(omega0=k + 1.0, omega_n=1.0, objective=0.0, converged=True)
                for k in range(3)]
        config = IdentificationConfig(damping_grid=(0.5, 0.2, 0.3))
        fit = fit_damping(exact_energy_record(TRUE_MOD), config,
                          candidates=list(zip(fits, (2.0, 1.0, 1.0))))
        assert (fit.zeta_f, fit.frequency_fit, fit.mismatches) == (0.3, fits[1], (2.0, 1.0, 1.0))

    def test_single_candidate_grid(self):
        record = pseudo_record(12)
        fit = fit_damping(record, IdentificationConfig(damping_grid=(0.35,), sim_replicates=2))
        assert fit.zeta_f == 0.35


class TestIdentify:
    def test_deterministic(self):
        record = pseudo_record(21)
        config = IdentificationConfig(seed=5, damping_grid=(0.2, 0.3, 0.4), sim_replicates=4)
        first = identify(record, config)
        second = identify(record, config)
        assert first.params == second.params

    def test_full_round_trip_energy_and_spectrum(self):
        true_params = GroundMotionParams(TRUE_MOD, TRUE_FILTER)
        source = synthesize(true_params, duration=DURATION, rng=np.random.default_rng(77))
        record = TargetRecord.from_signal(source)
        result = identify(record, IdentificationConfig(seed=3))
        theta_hat = GroundMotionParams.from_vector(result.params.as_vector())

        # expected energy of the resynthesized family matches the record energy
        t = record.times
        e_model = cumulative_trapezoid(
            modulating_q(t, theta_hat.modulation) ** 2, t, initial=0.0
        )[-1]
        assert e_model == pytest.approx(record.cumulative_energy[-1], rel=0.05)

        # median response spectrum at the structure frequency within 15 %
        f_l, beta = 5.0, 0.02
        source_sd = response_spectrum(source, [f_l], beta)[0]
        resynth_sd = [
            response_spectrum(
                synthesize(theta_hat, duration=DURATION, rng=np.random.default_rng(8000 + i)),
                [f_l],
                beta,
            )[0]
            for i in range(50)
        ]
        # compare against the median of the source's own resynthesis family
        true_sd = [
            response_spectrum(
                synthesize(true_params, duration=DURATION, rng=np.random.default_rng(9000 + i)),
                [f_l],
                beta,
            )[0]
            for i in range(50)
        ]
        assert np.median(resynth_sd) == pytest.approx(np.median(true_sd), rel=0.15)
        assert source_sd > 0

    def test_identified_t0_is_retained_and_dropped_from_vector(self):
        mod = ModulationParams(alpha1=1.5, alpha2=0.6, alpha3=1.2, t1=3.0, t2=8.0, t0=1.0)
        record = exact_energy_record(mod)
        fit = fit_modulation(record)
        assert fit.params.t0 == pytest.approx(1.0, abs=0.05)
        # the simulation vector drops t0: resynthesis starts at zero delay
        vec = GroundMotionParams(fit.params, TRUE_FILTER).as_vector()
        assert vec.size == 8
        assert GroundMotionParams.from_vector(vec).modulation.t0 == 0.0


def round_trip_record(mod, filt, i) -> TargetRecord:
    """A pseudo-record from the acceptance suite's identification round trip."""
    sig = synthesize(GroundMotionParams(mod, filt), duration=DURATION,
                     rng=stream(4, "round-trip", i))
    return TargetRecord.from_signal(sig)


def serial_identify(record, config):
    """Envelope, then each damping candidate in grid order, in this process."""
    mod_fit = fit_modulation(record, config)
    fits, mismatches = [], []
    for gi, zeta in enumerate(sorted(config.damping_grid)):
        freq = fit_filter_frequencies(record, zeta, config)
        filt = FilterParams(omega0=freq.omega0, omega_n=freq.omega_n, zeta_f=zeta)
        acc = np.zeros(record.times.size)
        for rep in range(config.sim_replicates):
            sim = unit_variance_process(filt, record.duration, record.signal.dt,
                                        stream(config.seed, "damping", gi, rep))
            acc += count_irregular_extrema(sim.samples)
        fits.append(filt)
        mismatches.append(float(np.trapezoid(
            (acc / config.sim_replicates - record.extrema_count) ** 2, record.times)))
    best = min(range(len(fits)), key=lambda gi: (mismatches[gi], gi))
    params = GroundMotionParams(mod_fit.params, fits[best])
    return params, mod_fit.converged, tuple(mismatches)


class TestSharedIdentification:
    """`identify` runs its envelope fit and damping candidates on every core."""

    def identified(self, record, config):
        seen = []
        traced = identification.fit_damping

        def recording(*args, **kwargs):
            seen.append(traced(*args, **kwargs))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(identification, "fit_damping", recording)
            result = identify(record, config)
        assert len(seen) == 1
        return result.params, result.converged, seen[0].mismatches

    @pytest.mark.parametrize("vector", ["A", "B"])
    def test_shared_one_core_and_serial_runs_are_bit_identical(self, monkeypatch, vector):
        mod, filt, i = {
            "A": (TRUE_MOD, TRUE_FILTER, 0),
            "B": (ModulationParams(alpha1=1.0, alpha2=0.4, alpha3=1.0, t1=1.5, t2=9.0),
                  FilterParams(omega0=2 * np.pi * 6, omega_n=2 * np.pi * 3, zeta_f=0.2), 1),
        }[vector]
        record = round_trip_record(mod, filt, i)
        config = IdentificationConfig(seed=i)
        cores(monkeypatch, 2)
        shared = self.identified(record, config)
        assert not multiprocessing.active_children()
        cores(monkeypatch, 1)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        alone = self.identified(record, config)
        reference = serial_identify(record, config)
        for params, converged, mismatches in (shared, alone):
            assert params.as_vector().tobytes() == reference[0].as_vector().tobytes()
            assert params.modulation.t0 == reference[0].modulation.t0
            assert converged == reference[1]
            assert np.array(mismatches).tobytes() == np.array(reference[2]).tobytes()

    def test_error_of_every_candidate_reaches_the_caller(self, monkeypatch):
        cores(monkeypatch, 2)
        sig = Signal(dt=DT, samples=np.sin(np.arange(100) * DT * 0.5))
        with pytest.raises(ValueError, match="^record has fewer than 5 up-crossings$"):
            identify(TargetRecord.from_signal(sig))
        assert not multiprocessing.active_children()

class TestParamsCsv:
    def test_round_trip(self, tmp_path):
        params = [
            GroundMotionParams(TRUE_MOD, TRUE_FILTER),
            GroundMotionParams(
                ModulationParams(alpha1=0.5, alpha2=0.3, alpha3=1.0, t1=1.0, t2=4.0, t0=0.5),
                FilterParams(omega0=30.0, omega_n=12.0, zeta_f=0.2),
            ),
        ]
        path = tmp_path / "params.csv"
        write_params_csv(path, params)
        back = read_params_csv(path)
        assert back == params
        lines = path.read_bytes().split(b"\n")
        assert lines[0] == b"alpha1,alpha2,alpha3,t1,t2,omega0,omega_n,zeta_f,t0"
        assert len(lines) == 4 and lines[-1] == b"" and b"\r" not in path.read_bytes()

    def test_unexpected_columns_rejected(self, tmp_path):
        path = tmp_path / "params.csv"
        path.write_text("alpha1,alpha2\n1,2\n")
        with pytest.raises(ValueError):
            read_params_csv(path)
