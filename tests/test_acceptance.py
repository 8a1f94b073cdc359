"""Acceptance suite: every exit criterion at its stated tolerance.

The desk-scale experiment (5000-signal pool, three structure presets, twenty
replicated active-learning runs per kernel) is built once per module in a
temporary workspace; each criterion then reads the shared artifacts and
prints one pass/fail line. Run with -s to see the lines as they happen.
"""

import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from seisfrag import preprocess as prep
from seisfrag.cli import (
    cmd_fragility,
    cmd_generate,
    cmd_labels,
    cmd_learn,
    cmd_report,
    load_config,
    read_features_csv,
    read_labels_csv,
)
from seisfrag.ensemble import reference_ensemble
from seisfrag.ground_motion import (
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    Signal,
    highpass_correct,
    modulating_q,
    sigma_f,
    synthesize,
)
from seisfrag.identification import TargetRecord, identify
from seisfrag.kde import KdeModel, kde_pdf, kristan_bandwidth, sample_raw
from seisfrag.learning import (
    Kernel,
    auc,
    dual_objective,
    prbp,
    train_svm,
)
from seisfrag.oscillator import (
    PRESETS,
    StructureConfig,
    bilinear_force,
    nonlinear_history,
    response_spectrum,
    solve_linear,
    summarize,
)
from seisfrag.rng import stream

POOL_SIZE = 5000
DESK_SEED = 42
N_RUNS = 20
BUDGET = 1000


def check(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def desk_config(out_dir, **extra):
    base = dict(
        seed=DESK_SEED, pool_size=POOL_SIZE, budget=BUDGET, n_runs=N_RUNS, out_dir=str(out_dir)
    )
    return load_config(None, {**base, **extra})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Desk-scale artifacts: pool, labels for three presets, learn + fragility."""
    out = tmp_path_factory.mktemp("acceptance") / "desk"
    timings = {}

    t0 = time.time()
    cfg5 = desk_config(out)
    cmd_generate(cfg5)
    timings["generate"] = time.time() - t0

    t0 = time.time()
    cmd_labels(cfg5)
    timings["labels_5"] = time.time() - t0

    for preset in ("2.5", "10"):
        t0 = time.time()
        cfg_p = desk_config(out, preset=preset)
        cmd_generate(cfg_p)  # reuses the signals, recomputes L for the preset
        cmd_labels(cfg_p)
        timings[f"labels_{preset}"] = time.time() - t0

    t0 = time.time()
    cmd_learn(cfg5)
    timings["learn_linear"] = time.time() - t0
    t0 = time.time()
    cmd_fragility(cfg5)
    timings["fragility_linear"] = time.time() - t0

    cfg_rbf = desk_config(out, kernel="rbf")
    t0 = time.time()
    cmd_learn(cfg_rbf)
    timings["learn_rbf"] = time.time() - t0
    t0 = time.time()
    cmd_fragility(cfg_rbf)
    timings["fragility_rbf"] = time.time() - t0

    cmd_report(cfg5)
    return {"out": out, "cfg5": cfg5, "cfg_rbf": cfg_rbf, "timings": timings}


def read_report(path) -> dict:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, val = line.partition("=")
        try:
            values[key] = float(val)
        except ValueError:
            values[key] = val
    return values


def read_history_prbp(path) -> dict:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        parts = line.split(",")
        if parts[3]:
            out[int(parts[0])] = float(parts[3])
    return out


# ---------------------------------------------------------------------------
# criteria 1-8: component-level oracles
# ---------------------------------------------------------------------------


def test_criterion_01_energy_identity():
    t0 = time.time()
    cases = [
        (ModulationParams(1.5, 0.5, 1.2, 2.0, 7.0), FilterParams(2 * np.pi * 6, 2 * np.pi * 6, 0.3)),
        (ModulationParams(0.8, 0.9, 0.9, 1.0, 4.0), FilterParams(2 * np.pi * 3, 2 * np.pi * 8, 0.15)),
        (ModulationParams(2.5, 0.3, 1.6, 3.0, 9.0), FilterParams(2 * np.pi * 10, 2 * np.pi * 4, 0.5)),
    ]
    worst = 0.0
    for k, (mod, filt) in enumerate(cases):
        params = GroundMotionParams(mod, filt)
        total = 0.0
        for i in range(500):
            sig = synthesize(params, rng=stream(900 + k, "energy", i))
            total += np.trapezoid(sig.samples**2, dx=sig.dt)
        t = sig.times
        target = np.trapezoid(modulating_q(t, mod) ** 2, dx=sig.dt)
        worst = max(worst, abs(total / 500 - target) / target)
    elapsed = time.time() - t0
    check(
        1, "energy identity",
        worst < 0.02 and elapsed < 60,
        f"worst rel err {worst:.4f} (<0.02), {elapsed:.0f} s (<60)",
    )


def test_criterion_02_sigma_f_closed_form():
    filt = FilterParams(omega0=2 * np.pi * 5, omega_n=2 * np.pi * 5, zeta_f=0.4)
    value = sigma_f(40.0, filt, 0.005) ** 2
    target = filt.omega0 / (4 * filt.zeta_f)
    err = abs(value - target) / target
    check(2, "sigma_f closed form", err < 0.005, f"rel err {err:.2e} (<5e-3)")


def test_criterion_03_oscillator_oracles():
    cfg = StructureConfig(f_l=5.0, yield_y=5e-3)
    # resonant steady state
    amp = 1.0
    dt = 1e-4
    t = np.arange(0, 20, dt)
    lin = solve_linear(Signal(dt=dt, samples=-amp * np.sin(cfg.omega_l * t)),
                       StructureConfig(f_l=5.0, yield_y=1.0))
    resonance = np.max(np.abs(lin.samples[int(15 / lin.dt):]))
    target = amp / (2 * cfg.beta * cfg.omega_l**2)
    res_err = abs(resonance - target) / target

    # nonlinear energy audit on a yielding signal
    params = GroundMotionParams(
        ModulationParams(3.0, 0.7, 1.2, 2.0, 7.0),
        FilterParams(2 * np.pi * 6, 2 * np.pi * 4, 0.3),
    )
    sig = highpass_correct(synthesize(params, rng=stream(3, "audit")))
    nl = nonlinear_history(sig, cfg)
    z, dti = nl.samples, nl.dt
    forcing = -np.interp(np.arange(z.size) * dti, sig.times, sig.samples)
    v = np.gradient(z, dti)
    eps_p = 0.0
    restoring = np.empty(z.size)
    for k in range(z.size):
        restoring[k], eps_p = bilinear_force(float(z[k]), eps_p, cfg)

    def cum(q):
        return np.concatenate([[0.0], np.cumsum(0.5 * (q[:-1] + q[1:]) * dti)])

    w_in = cum(forcing * v)
    residual = w_in - cum(2 * cfg.beta * cfg.omega_l * v * v) - cum(restoring * v) - v**2 / 2
    audit_err = np.max(np.abs(residual)) / np.max(w_in)
    yielded = np.max(np.abs(z)) > cfg.yield_y

    # weak signal: Z equals L exactly
    weak = Signal(dt=0.01, samples=0.05 * np.random.default_rng(5).standard_normal(2000))
    summary = summarize(weak, cfg)
    exact = summary.max_linear < cfg.yield_y and summary.max_nonlinear == summary.max_linear

    check(
        3, "oscillator oracles",
        res_err < 0.01 and audit_err < 0.01 and yielded and exact,
        f"resonance err {res_err:.2e} (<0.01), energy audit {audit_err:.2e} (<0.01), Z==L exact: {exact}",
    )


def test_criterion_04_identification_round_trip():
    t0 = time.time()
    mod = ModulationParams(alpha1=1.8, alpha2=0.6, alpha3=1.3, t1=2.5, t2=8.0)
    filt = FilterParams(omega0=2 * np.pi * 9, omega_n=2 * np.pi * 4.5, zeta_f=0.3)

    # noise-free energy: envelope components within 2 % each
    duration, dt = 25.0, 0.01
    t = np.arange(int(duration / dt) + 1) * dt
    q2 = modulating_q(t, mod) ** 2
    record = TargetRecord(
        signal=Signal(dt=dt, samples=np.sqrt(q2)),
        cumulative_energy=cumulative_trapezoid(q2, t, initial=0.0),
        upcrossing_count=np.zeros(t.size),
        extrema_count=np.zeros(t.size),
    )
    from seisfrag.identification import fit_modulation

    fitted = fit_modulation(record).params
    mod_errs = [
        abs(getattr(fitted, f) - getattr(mod, f)) / getattr(mod, f)
        for f in ("alpha1", "alpha2", "alpha3", "t1", "t2")
    ]

    # frequencies: full identification on 20 pseudo-records, 10 % on the average
    estimates = []
    for i in range(20):
        sig = synthesize(GroundMotionParams(mod, filt), duration=duration,
                         rng=stream(4, "round-trip", i))
        result = identify(TargetRecord.from_signal(sig), seed=i)
        estimates.append([result.params.filter.omega0, result.params.filter.omega_n])
    mean_est = np.mean(estimates, axis=0)
    freq_errs = [
        abs(mean_est[0] - filt.omega0) / filt.omega0,
        abs(mean_est[1] - filt.omega_n) / filt.omega_n,
    ]
    elapsed = time.time() - t0
    check(
        4, "identification round trip",
        max(mod_errs) < 0.02 and max(freq_errs) < 0.10 and elapsed < 600,
        f"envelope max err {max(mod_errs):.4f} (<0.02), freq errs "
        f"{freq_errs[0]:.3f}/{freq_errs[1]:.3f} (<0.10), {elapsed:.0f} s (<600)",
    )


def test_criterion_05_kde():
    # single-point model: pdf is exactly the Gaussian kernel
    h = np.array([[0.5, 0.1], [0.1, 0.3]])
    center = np.array([0.7, -1.1])
    single = KdeModel(points=center[None, :], covariance=h, beta=1.0, bandwidth=h,
                      cholesky=np.linalg.cholesky(h))
    probe = np.array([1.0, -0.5])
    diff = probe - center
    exact = math.exp(-0.5 * diff @ np.linalg.solve(h, diff)) / (
        2 * math.pi * math.sqrt(np.linalg.det(h))
    )
    pdf_err = abs(kde_pdf(single, probe) - exact) / exact

    pts = np.random.default_rng(0).standard_normal((200, 1))
    model = kristan_bandwidth(pts)
    silverman = 1.06 * 200 ** (-0.2)
    beta_err = abs(model.beta - silverman) / silverman

    model8 = kristan_bandwidth(reference_ensemble())
    draws = sample_raw(model8, stream(5, "kde"), size=10_000)
    se = draws.std(axis=0) / math.sqrt(draws.shape[0])
    mean_ok = np.all(np.abs(draws.mean(axis=0) - model8.points.mean(axis=0)) < 3 * se)
    check(
        5, "kde bandwidth and sampling",
        pdf_err < 1e-12 and beta_err < 0.25 and mean_ok,
        f"single-point pdf err {pdf_err:.1e}, beta vs Silverman {beta_err:.3f} (<0.25), "
        f"mean within 3 SE: {mean_ok}",
    )


def test_criterion_06_boxcox():
    zero_at_one = all(prep.boxcox(1.0, d) == pytest.approx(0.0, abs=1e-15)
                      for d in (-2.0, -0.5, 0.5, 2.0)) and prep.boxcox(1.0, 0.0) == 0.0
    continuity = all(abs(prep.boxcox(x, 1e-8) - math.log(x)) < 1e-6 for x in (0.5, 2.0, 10.0))
    sample = np.exp(np.random.default_rng(1).standard_normal(10_000))
    delta = prep.fit_boxcox_delta(sample)
    check(
        6, "box-cox",
        zero_at_one and continuity and -0.1 <= delta <= 0.1,
        f"BC(1,.)=0: {zero_at_one}, continuity at 0: {continuity}, lognormal delta {delta:.3f}",
    )


def test_criterion_07_svm_core():
    x_pos, x_neg = np.array([2.0, 1.0]), np.array([-1.0, 0.5])
    model = train_svm(np.vstack([x_pos, x_neg]), [1, -1], Kernel("linear"), cost=100.0)
    mid_err = abs(model.score((x_pos + x_neg) / 2))
    margin_err = max(abs(model.score(x_pos) - 1), abs(model.score(x_neg) + 1))

    xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    xor_y = np.array([1, 1, -1, -1])
    lin_errors = np.sum(np.sign(train_svm(xor_x, xor_y, Kernel("linear"), 100.0).score(xor_x)) != xor_y)
    rbf_errors = np.sum(
        np.sign(train_svm(xor_x, xor_y, Kernel("rbf", gamma=1.0), 100.0).score(xor_x)) != xor_y
    )

    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 3))
    y = np.where(x[:, 0] + 0.5 * rng.standard_normal(40) > 0, 1, -1)
    cost = 10.0
    svm = train_svm(x, y, Kernel("rbf", gamma=0.5), cost=cost)
    d_star = dual_objective(svm)
    certificate = True
    for _ in range(100):
        u = rng.uniform(0, cost, size=40)
        s_pos, s_neg = u[y == 1].sum(), u[y == -1].sum()
        t = min(s_pos, s_neg)
        u[y == 1] *= t / s_pos
        u[y == -1] *= t / s_neg
        certificate &= d_star >= dual_objective(svm, u) - 1e-9
    check(
        7, "svm core",
        mid_err < 1e-6 and margin_err < 1e-3 and lin_errors >= 1 and rbf_errors == 0 and certificate,
        f"midpoint |score| {mid_err:.1e}, margin err {margin_err:.1e}, XOR lin/rbf errors "
        f"{lin_errors}/{rbf_errors}, dual certificate: {certificate}",
    )


def test_criterion_08_prbp_roc():
    hand = prbp([5, 4, 3, 2, 1, 0], [1, 1, -1, -1, 1, -1])
    rng = np.random.default_rng(3)
    scores = np.round(rng.standard_normal(400), 1)
    labels = np.where(rng.random(400) < 1 / (1 + np.exp(-scores)), 1, -1)
    pos, neg = scores[labels == 1], scores[labels == -1]
    u_stat = (np.sum(pos[:, None] > neg[None, :]) + 0.5 * np.sum(pos[:, None] == neg[None, :])) / (
        pos.size * neg.size
    )
    mw_gap = abs(auc(scores, labels) - u_stat)
    perfect_labels = np.array([-1] * 30 + [1] * 10)
    perfect_scores = np.arange(40.0)
    perfect = (
        prbp(perfect_scores, perfect_labels) == 1.0
        and abs(auc(perfect_scores, perfect_labels) - 1.0) < 1e-12
    )
    check(
        8, "prbp and roc",
        hand == pytest.approx(2 / 3) and mw_gap < 1e-10 and perfect,
        f"hand case {hand:.4f} (=2/3), AUC-MW gap {mw_gap:.1e} (<1e-10), perfect ordering: {perfect}",
    )


# ---------------------------------------------------------------------------
# criteria 9-15: desk-scale experiment
# ---------------------------------------------------------------------------


def test_criterion_09_active_learning_trend(workspace):
    out = workspace["out"]
    learn_dir = out / "learn_5_linear_r4"
    baselines = dict(
        line.split(",") for line in (learn_dir / "baselines.csv").read_text().splitlines()[1:]
    )
    pga_baseline = float(baselines["pga"])
    at_200 = []
    above_at_100 = 0
    for run in range(5):
        history = read_history_prbp(learn_dir / f"history_run{run:02d}.csv")
        at_200.append(history[200])
        above_at_100 += history[100] > pga_baseline
    timings = workspace["timings"]
    runtime = timings["generate"] + timings["labels_5"] + timings["learn_linear"]
    ok = np.mean(at_200) > pga_baseline and above_at_100 >= 4 and runtime < 1800
    check(
        9, "active-learning trend",
        ok,
        f"mean PRBP@200 {np.mean(at_200):.3f} > PGA {pga_baseline:.3f}, "
        f"@100 above in {above_at_100}/5, runtime {runtime:.0f} s (<1800); stage times "
        + ", ".join(f"{stage} {seconds:.0f} s" for stage, seconds in timings.items()),
    )


def test_criterion_10_baseline_frequency_dependence(workspace):
    out = workspace["out"]
    values = {}
    for preset in ("2.5", "10"):
        _, raw = read_features_csv(out / f"features_{preset}.csv")
        kept_ids, _, labels = read_labels_csv(out / f"labels_{preset}.csv")
        ids, _ = read_features_csv(out / f"features_{preset}.csv")
        row_of = {int(v): k for k, v in enumerate(ids)}
        rows = np.array([row_of[int(v)] for v in kept_ids])
        values[preset] = (
            prbp(raw[rows, 8], labels),
            prbp(raw[rows, 12], labels),
        )
    pga_ok = values["10"][0] > values["2.5"][0]
    l_ok = values["2.5"][1] > values["10"][1]
    check(
        10, "baseline frequency dependence",
        pga_ok and l_ok,
        f"PGA-PRBP 10Hz {values['10'][0]:.3f} > 2.5Hz {values['2.5'][0]:.3f}: {pga_ok}; "
        f"L-PRBP 2.5Hz {values['2.5'][1]:.3f} > 10Hz {values['10'][1]:.3f}: {l_ok}",
    )


def test_criterion_11_fragility_precision_trend(workspace):
    out = workspace["out"]
    lin = read_report(out / "fragility_5_linear_r4" / "report.txt")
    rbf = read_report(out / "fragility_5_rbf_r4" / "report.txt")
    lin_at_1000 = [lin[f"run{r:02d}.n1000.score.delta_l2"] for r in range(N_RUNS)]
    lin_at_20 = [lin[f"run{r:02d}.n20.score.delta_l2"] for r in range(N_RUNS)]
    rbf_at_1000 = [rbf[f"run{r:02d}.n1000.score.delta_l2"] for r in range(N_RUNS)]
    improved = sum(a < b for a, b in zip(lin_at_1000, lin_at_20))
    mean_lin = float(np.mean(lin_at_1000))
    mean_rbf = float(np.mean(rbf_at_1000))
    ok = mean_lin < 0.05 and improved >= 16 and mean_rbf > mean_lin
    check(
        11, "fragility precision trend",
        ok,
        f"linear delta@1000 {mean_lin:.4f} (<0.05), improved vs n=20 in {improved}/20 (>=16), "
        f"rbf {mean_rbf:.4f} > linear {mean_lin:.4f}",
    )


def test_criterion_12_steepness_ordering(workspace):
    out = workspace["out"]
    report = read_report(out / "fragility_5_linear_r4" / "report.txt")
    wins = 0
    for run in range(N_RUNS):
        score_e = report[f"run{run:02d}.n1000.score.entropy"]
        pga_e = report[f"run{run:02d}.n1000.pga.entropy"]
        lin_e = report[f"run{run:02d}.n1000.lin_disp.entropy"]
        wins += score_e < pga_e and score_e < lin_e
    check(12, "steepness ordering", wins >= 16, f"score entropy smallest in {wins}/20 (>=16)")


def test_criterion_13_hybrid_combiner(workspace):
    out = workspace["out"]
    report = read_report(out / "fragility_5_rbf_r4" / "report.txt")
    gaps = []
    for run in range(N_RUNS):
        hybrid = report[f"run{run:02d}.n1000.hybrid.delta_l2"]
        pure = report[f"run{run:02d}.n1000.score.delta_l2"]
        gaps.append(hybrid - pure)
    ok = all(g <= 1e-12 for g in gaps)
    check(
        13, "hybrid combiner",
        ok,
        f"hybrid <= pure-RBF delta in {sum(g <= 1e-12 for g in gaps)}/20 runs (need 20)",
    )


def test_criterion_14_labeled_only_pitfall(workspace):
    out = workspace["out"]
    report = read_report(out / "fragility_5_linear_r4" / "report.txt")
    pool_rate = report["pool.positive_rate"]
    means = [report[f"run{r:02d}.labeled_only.mean_bin_probability"] for r in range(N_RUNS)]
    in_band = all(0.3 <= m <= 0.7 for m in means)
    check(
        14, "labeled-only pitfall",
        in_band and pool_rate < 0.2,
        f"mean bin probability in [0.3,0.7] for all 20 runs: {in_band} "
        f"(range {min(means):.2f}..{max(means):.2f}), pool rate {pool_rate:.3f} (<0.2)",
    )


def test_criterion_15_determinism(tmp_path):
    reports = []
    for sub in ("d1", "d2"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cfg = load_config(None, dict(
                seed=9, pool_size=220, budget=15, n_runs=1,
                n_bins=6, out_dir=str(tmp_path / sub),
            ))
            cmd_generate(cfg)
            cmd_labels(cfg)
            cmd_learn(cfg)
            cmd_fragility(cfg)
            cmd_report(cfg)
        text = (tmp_path / sub / "report.txt").read_text()
        reports.append(
            "\n".join(l for l in text.splitlines() if not l.startswith("config.out_dir"))
        )
    check(15, "determinism", reports[0] == reports[1], "seeded rerun is bit-identical")


# ---------------------------------------------------------------------------
# supporting desk-scale checks from the module contracts
# ---------------------------------------------------------------------------


def test_desk_pool_composition(workspace):
    out = workspace["out"]
    _, raw = read_features_csv(out / "features_5.csv")
    kept_ids, _, labels = read_labels_csv(out / "labels_5.csv")
    kept_fraction = kept_ids.size / POOL_SIZE
    assert 0.25 <= kept_fraction <= 0.45
    assert 0.05 <= np.mean(labels == 1) <= 0.30
    print(f"[info] kept fraction {kept_fraction:.3f}, positive rate {np.mean(labels == 1):.3f}")


def test_desk_simple_classifier_orderings(workspace):
    # within each preset the dominant baseline flips with the structure frequency
    out = workspace["out"]
    values = {}
    for preset in ("2.5", "10"):
        ids, raw = read_features_csv(out / f"features_{preset}.csv")
        kept_ids, _, labels = read_labels_csv(out / f"labels_{preset}.csv")
        row_of = {int(v): k for k, v in enumerate(ids)}
        rows = np.array([row_of[int(v)] for v in kept_ids])
        values[preset] = (
            prbp(raw[rows, 8], labels),
            prbp(raw[rows, 12], labels),
        )
    assert values["10"][0] > values["10"][1]  # PGA dominates at 10 Hz
    assert values["2.5"][1] > values["2.5"][0]  # L dominates at 2.5 Hz


def test_desk_response_spectrum_band():
    # medians of resampled signals sit inside the pseudo-records' quantile band
    ensemble = reference_ensemble()
    f_l, beta = 5.0, 0.02
    record_sd = []
    for i, theta in enumerate(ensemble):
        sig = highpass_correct(
            synthesize(GroundMotionParams.from_vector(theta), rng=stream(7, "rec", i))
        )
        record_sd.append(response_spectrum(sig, [f_l], beta)[0])
    model = kristan_bandwidth(ensemble)
    from seisfrag.kde import sample_theta

    sample_sd = []
    for i in range(200):
        params = sample_theta(model, stream(7, "theta", i))
        sig = highpass_correct(synthesize(params, rng=stream(7, "sig", i)))
        sample_sd.append(response_spectrum(sig, [f_l], beta)[0])
    lo, hi = np.quantile(record_sd, [0.15, 0.85])
    median = float(np.median(sample_sd))
    assert lo <= median <= hi
    print(f"[info] sample median Sd {median:.4g} inside record band [{lo:.4g}, {hi:.4g}]")


def test_desk_weight_trace_ranking(workspace):
    # PGA and L carry the largest linear weights in most replicated runs
    out = workspace["out"]
    learn_dir = out / "learn_5_linear_r4"
    hits = 0
    for run in range(N_RUNS):
        last = (learn_dir / f"history_run{run:02d}.csv").read_text().splitlines()[-1]
        w = np.abs(np.array([float(v) for v in last.split(",")[4:]]))
        if set(np.argsort(w)[-2:]) == {0, 1}:  # lin_disp, pga in the r4 layout
            hits += 1
    assert hits >= 15
    print(f"[info] lin_disp/pga dominate the weight vector in {hits}/20 runs")


def test_desk_score_monotone_with_nonlinear_peak(workspace):
    # linear-kernel score ranks the nonlinear response (rank correlation > 0.8)
    out = workspace["out"]
    cfg5 = workspace["cfg5"]
    from scipy.stats import spearmanr

    from seisfrag.cli import _load_pool, read_model_csv

    _, pool = _load_pool(cfg5, out)
    _, z_values, _ = read_labels_csv(out / "labels_5.csv")
    indices, seq_labels, *_ = read_model_csv(out / "learn_5_linear_r4" / "model_run00.csv")
    model = train_svm(pool.features[indices], seq_labels, Kernel("linear"), cfg5.cost)
    rho = spearmanr(model.score(pool.features), z_values).statistic
    assert rho > 0.8
    print(f"[info] Spearman(score, Z) = {rho:.3f}")
