"""Command-line pipeline: generate, identify, labels, learn, fragility, report.

Every stochastic step draws from a stream named by (seed, purpose, index), so
any command rerun with the same configuration is bit-identical. Commands are
idempotent given their completed checkpoints.
"""

from __future__ import annotations

import argparse
import logging
import sys
import warnings
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import preprocess as prep
from .ensemble import reference_ensemble, write_ensemble_csv
from .features import FEATURE_NAMES, extract
from .fragility import (bin_by_projection, curve, fit_logistic, hybrid_probability,
                        labeled_only_diagnostic)
from .ground_motion import (
    SYNTHESIS_VERSION,
    highpass_correct,
    read_signal_binary,
    read_signal_csv,
    synthesize,
    write_signal_binary,
)
from .identification import IdentificationConfig, TargetRecord, identify, write_params_csv
from .kde import kristan_bandwidth, sample_theta, save_model_csv as save_kde_csv
from .learning import Kernel, Pool, SvmModel, active_learn, prbp, train_svm
from .oscillator import PRESETS, solve_linear, solve_nonlinear
from .rng import stream
from .runner import run_shared
from .table import atomic_write, read_table, write_table

LEARN_SCHEDULE = (10, 20, 50, 100, 200, 500, 1000)
# fragility draws its curves from models learn stores at its own checkpoints
FRAGILITY_SCHEDULE = LEARN_SCHEDULE[1:]
PRODUCTION_MIN_POOL = 500
# learn and fragility share their runs over the cores from this budget on. A
# run at budget 20 takes 5-10 ms, about what forking and joining a worker costs
# (8 ms on a 2-core Xeon); from budget 50 on a run takes 14 ms or more.
SHARED_MIN_BUDGET = 50
# intensity measures the labels file repeats from the features file
LABEL_MEASURES = ("pga", "pgv", "pgd", "energy", "lin_disp")
LIN_DISP = FEATURE_NAMES.index("lin_disp")
VIEWS = ("r4", "r13")  # the feature sets: the transformed pool is stored in both

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    pool_size: int = 5000
    preset: str = "5"  # 2.5 | 5 | 10 Hz structure
    kernel: str = "linear"  # linear | rbf
    cost: float = 10.0
    feature_set: str = "r4"  # r4 | r13
    budget: int = 1000
    n_runs: int = 20
    n_bins: int = 20
    out_dir: str = "runs/demo"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {sorted(PRESETS)}, got {self.preset!r}")
        if self.kernel not in ("linear", "rbf"):
            raise ValueError(f"kernel must be linear or rbf, got {self.kernel!r}")
        if self.feature_set not in VIEWS:
            raise ValueError(f"feature_set must be r4 or r13, got {self.feature_set!r}")
        if self.pool_size < 1 or self.budget < 2 or self.n_runs < 1:
            raise ValueError("pool_size, budget and n_runs must be positive")
        if not self.cost > 0:  # SMO at cost 0 returns a zero model flagged as converged
            raise ValueError(f"cost must be positive, got {self.cost}")
        if self.n_bins < 1:
            raise ValueError(f"n_bins must be at least 1, got {self.n_bins}")
        if self.pool_size < PRODUCTION_MIN_POOL:
            warnings.warn(
                f"pool_size {self.pool_size} is below the production floor "
                f"{PRODUCTION_MIN_POOL}; fine for smoke tests only",
                stacklevel=2,
            )

    @property
    def structure(self):
        return PRESETS[self.preset]

    def make_kernel(self) -> Kernel:
        if self.kernel == "linear":
            return Kernel("linear")
        dim = 4 if self.feature_set == "r4" else 13
        return Kernel("rbf", gamma=1.0 / dim)

    @property
    def tag(self) -> str:
        return f"{self.kernel}_{self.feature_set}"


def _config_values(path) -> dict:
    """The raw key=value pairs of a flat config file."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Flat key=value file; every key can be overridden by a flag."""
    values = _config_values(path) if path else {}
    values.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for f in fields(RunConfig):
        if f.name in values:
            kwargs[f.name] = _convert(f.type, values.pop(f.name))
    if values:
        raise ValueError(f"unknown config keys: {sorted(values)}")
    return RunConfig(**kwargs)


def _convert(type_name, raw):
    if isinstance(raw, (int, float)):
        return raw
    if type_name in ("int", int):
        return int(raw)
    if type_name in ("float", float):
        return float(raw)
    return str(raw)


# the line save_config heads a pool's config with; load_config skips it
_VERSION_LINE = f"# synthesis_version={SYNTHESIS_VERSION}"


def save_config(cfg: RunConfig, path: Path) -> None:
    lines = [_VERSION_LINE, *(f"{f.name}={getattr(cfg, f.name)}" for f in fields(RunConfig))]
    atomic_write(path, "\n".join(lines) + "\n")


def _current_synthesis(out: Path) -> bool:
    """Whether out's config.txt records this synthesis version."""
    config_path = out / "config.txt"
    return config_path.exists() and _VERSION_LINE in config_path.read_text(encoding="utf-8").splitlines()


def _require_current_synthesis(out: Path) -> None:
    """Refuse a pool of another synthesis version, or of none recorded: the
    artifacts built over it would not be those of a fresh pool."""
    if not _current_synthesis(out):
        raise ValueError(f"{out} holds a pool of another synthesis_version")


# ---------------------------------------------------------------------------
# generate: ensemble -> KDE -> signals -> features
# ---------------------------------------------------------------------------


def _signal_path(out: Path, index: int) -> Path:
    return out / "signals" / f"sig_{index:05d}.bin"


def _features_path(cfg: RunConfig, out: Path) -> Path:
    return out / f"features_{cfg.preset}.csv"


def _feature_row(out: Path, seed: int, kde_model, structure, i: int) -> list:
    """The features row of signal i, over its stored signal or, when there is
    none, a fresh one that is stored first. Signal i draws only from its own
    streams, so any process computes the same row."""
    params = sample_theta(kde_model, stream(seed, "theta", i))
    sig_path = _signal_path(out, i)
    if sig_path.exists():
        sig = read_signal_binary(sig_path)
    else:
        raw = synthesize(params, dt=0.01, rng=stream(seed, "signal", i))
        sig = highpass_correct(raw)
        write_signal_binary(sig_path, sig)
    lin_disp = float(np.max(np.abs(solve_linear(sig, structure).samples)))
    return [i, *extract(sig, params.as_vector(), lin_disp).as_array().tolist()]


def cmd_generate(cfg: RunConfig) -> Path:
    """Sample parameters, synthesize the pool, extract features.

    Every signal of the pool is one task, shared out over the cores (see
    `run_shared`); a stored signal is read rather than synthesized, so an
    interrupted run resumes where it stopped and reproduces identical output.
    An out_dir whose pool was generated with another seed or pool_size is
    refused: its signals belong to that pool. So is one holding signals of
    another synthesis version, or of none recorded: resuming it would mix
    signals of two versions.
    """
    out = Path(cfg.out_dir)
    config_path = out / "config.txt"
    changed = []
    if config_path.exists():
        # read as it stands: an older config.txt lists keys RunConfig no longer has
        previous = _config_values(config_path)
        changed = [k for k in ("seed", "pool_size")
                   if int(previous.get(k, getattr(RunConfig, k))) != getattr(cfg, k)]
    if any(out.glob("signals/sig_*.bin")) and not _current_synthesis(out):
        changed.append("synthesis_version")
    if changed:
        raise ValueError(f"{out} holds a pool generated with other {', '.join(changed)}")
    (out / "signals").mkdir(parents=True, exist_ok=True)
    save_config(cfg, config_path)
    ensemble = reference_ensemble()
    write_ensemble_csv(out / "ensemble.csv", ensemble)
    kde_model = kristan_bandwidth(ensemble)
    save_kde_csv(out / "kde_model.csv", kde_model)

    rows = run_shared([partial(_feature_row, out, cfg.seed, kde_model, cfg.structure, i)
                       for i in range(cfg.pool_size)])
    path = _features_path(cfg, out)
    write_table(path, ["id", *FEATURE_NAMES], rows)
    for part in out.glob("features_*_part[0-9][0-9][0-9][0-9].csv"):  # older layout, unread
        part.unlink()
    return path


def read_features_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """(ids, feature matrix) from a features CSV."""
    table = read_table(path)
    if table.columns != ["id", *FEATURE_NAMES]:
        raise ValueError(f"{path}: unexpected feature columns")
    values = table.floats()
    return values[:, 0].astype(int), np.ascontiguousarray(values[:, 1:])


# ---------------------------------------------------------------------------
# labels: the expensive Monte Carlo reference over the kept pool
# ---------------------------------------------------------------------------


def _labels_path(cfg: RunConfig, out: Path) -> Path:
    return out / f"labels_{cfg.preset}.csv"


def _transformed_path(cfg: RunConfig, out: Path, view: str) -> Path:
    return out / f"transformed_{cfg.preset}_{view}.csv"


def cmd_labels(cfg: RunConfig) -> Path:
    """Nonlinear peak Z and label of every kept signal, all stepped in one
    call of the batched stepper.

    First the transform is fitted on the kept pool and written with the pool
    in both feature views, which learn and fragility read; a kept pool too
    small to fit gets labels only.
    """
    out = Path(cfg.out_dir)
    _require_current_synthesis(out)
    ids, raw = read_features_csv(_features_path(cfg, out))
    structure = cfg.structure
    kept = prep.filter_pool(raw[:, LIN_DISP], structure.yield_y)
    if kept.size >= prep.BOXCOX_MIN_VALUES:
        model = prep.fit(raw[kept])
        prep.save_model_csv(out / f"preprocess_{cfg.preset}.csv", model)
        for view in VIEWS:
            matrix = prep.apply(model, raw[kept], view=view)
            write_table(_transformed_path(cfg, out, view),
                        ["id", *(f"x_{j}" for j in range(matrix.shape[1]))],
                        ([ids[i], *row] for i, row in zip(kept, matrix)))
    measures = [FEATURE_NAMES.index(name) for name in LABEL_MEASURES]
    signals = [read_signal_binary(_signal_path(out, int(ids[i]))) for i in kept]
    peaks = solve_nonlinear(signals, structure).samples
    rows = ([ids[i], *raw[i, measures], z, 1 if z > structure.threshold else -1]
            for i, z in zip(kept, peaks.tolist()))
    path = _labels_path(cfg, out)
    write_table(path, ["id", *LABEL_MEASURES, "max_nonlinear", "label"], rows)
    return path


def read_labels_csv(path, names=("id", "max_nonlinear", "label")) -> tuple[np.ndarray, ...]:
    """The named columns of a labels CSV, ids and labels as ints; by default
    (kept ids, Z values, labels)."""
    table = read_table(path)
    columns = dict(zip(table.columns, table.floats().T))
    return tuple(columns[n].astype(int) if n in ("id", "label") else columns[n] for n in names)


# ---------------------------------------------------------------------------
# learn: replicated active-learning runs against the labeled reference
# ---------------------------------------------------------------------------


def _load_pool(cfg: RunConfig, out: Path) -> tuple[np.ndarray, Pool]:
    """The kept ids, and the kept pool in the config's feature view: the
    matrix labels stored, refused unless its ids are the kept ids, with the
    labels, PGA and L of the labels file. A budget or bin count above the
    kept count is refused: no run could label or bin that many signals."""
    kept_ids, pga, lin_disp, labels = read_labels_csv(
        _labels_path(cfg, out), ("id", "pga", "lin_disp", "label")
    )
    path = _transformed_path(cfg, out, cfg.feature_set)
    values = read_table(path).floats()
    if not np.array_equal(values[:, 0].astype(int), kept_ids):
        raise ValueError(f"{path}: ids differ from the kept ids of the labels file")
    for key in ("budget", "n_bins"):
        if getattr(cfg, key) > kept_ids.size:
            raise ValueError(f"{key}={getattr(cfg, key)} exceeds the {kept_ids.size} signals "
                             f"of the kept pool in {path}")
    return kept_ids, Pool(values[:, 1:], labels, pga, lin_disp)


def _learn_dir(cfg: RunConfig, out: Path) -> Path:
    return out / f"learn_{cfg.preset}_{cfg.tag}"


def _model_path(learn_dir: Path, run: int, n: int | None = None) -> Path:
    """The run's final model, or the one it held at n labels."""
    return learn_dir / (f"model_run{run:02d}.csv" if n is None else f"model_run{run:02d}_n{n}.csv")


def _write_model_csv(path: Path, model: SvmModel, kept_ids, cost: float,
                     unconverged_solves: int = 0) -> None:
    meta = {"kernel": model.kernel.kind, "gamma": model.kernel.gamma, "cost": cost,
            "bias": model.bias}
    if unconverged_solves:
        # absent when 0: the benchmark's KKT test skips exactly the four meta lines above
        meta["unconverged_solves"] = unconverged_solves
    write_table(
        path,
        ["order", "pool_index", "signal_id", "label", "coefficient"],
        (
            [pos, idx, kept_ids[idx], lab, coef]
            for pos, (idx, lab, coef) in enumerate(
                zip(model.labeled_refs, model.labels, model.coefficients)
            )
        ),
        meta=meta,
    )


def read_model_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """(labeled pool indices in query order, labels, coefficients, meta) from a model CSV."""
    table = read_table(path)
    values = table.floats()
    indices, labels = values[:, 1].astype(int), values[:, 3].astype(int)
    return indices, labels, np.ascontiguousarray(values[:, 4]), table.meta


def _share_runs(cfg: RunConfig, run_task) -> list:
    """run_task(run) for every run, in run order: over the cores through
    `run_shared` from a budget of SHARED_MIN_BUDGET on, below it in this
    process, where a run costs about what a fork and join does."""
    tasks = [partial(run_task, run) for run in range(cfg.n_runs)]
    return run_shared(tasks) if cfg.budget >= SHARED_MIN_BUDGET else [task() for task in tasks]


def _learn_run(cfg: RunConfig, kept_ids, pool: Pool, learn_dir: Path, run: int):
    """One active-learning run, which draws only from its own stream: writes
    its history, final model and checkpoint models, and returns its (n, PRBP)
    pairs and the count of its solves stopped at the update cap."""
    schedule = tuple(n for n in LEARN_SCHEDULE if n <= cfg.budget)
    state = active_learn(
        pool,
        cfg.make_kernel(),
        budget=cfg.budget,
        rng=stream(cfg.seed, "learn", run),
        cost=cfg.cost,
        eval_at=schedule,
    )
    columns = ["n", "queried_id", "label", "prbp"]
    if cfg.kernel == "linear":  # the linear model's weights; an RBF model has none
        columns += [f"w_{j}" for j in range(pool.features.shape[1])]
    write_table(
        learn_dir / f"history_run{run:02d}.csv",
        columns,
        ([e.n_labeled, kept_ids[e.queried], e.label, e.prbp,
          *(() if e.weights is None else e.weights)] for e in state.history),
    )
    _write_model_csv(_model_path(learn_dir, run), state.model, kept_ids, cfg.cost,
                     state.unconverged_solves)
    for n in FRAGILITY_SCHEDULE:
        if n < len(state.labeled_indices):
            _write_model_csv(_model_path(learn_dir, run, n), state.checkpoints[n], kept_ids,
                             cfg.cost)
    prbps = [(e.n_labeled, e.prbp) for e in state.history if e.prbp is not None]
    return prbps, state.unconverged_solves


def cmd_learn(cfg: RunConfig) -> Path:
    """n_runs seeded active-learning runs: per run its history, its final
    model and the models it held at the fragility checkpoints below the
    final size, which fragility draws its curves from.

    Each run is one task (see `_share_runs`) that writes its own run's files;
    the warnings of solves stopped at the update cap are logged here in run
    order, then the summary over the runs and the baselines are written.
    """
    out = Path(cfg.out_dir)
    _require_current_synthesis(out)
    kept_ids, pool = _load_pool(cfg, out)
    learn_dir = _learn_dir(cfg, out)
    learn_dir.mkdir(parents=True, exist_ok=True)
    # a run that fails leaves no summary of an earlier config next to its files
    for name in ("summary.csv", "baselines.csv"):
        (learn_dir / name).unlink(missing_ok=True)

    per_run_prbp = {}  # n -> PRBP of every run, n in schedule order
    results = _share_runs(cfg, partial(_learn_run, cfg, kept_ids, pool, learn_dir))
    for run, (prbps, unconverged_solves) in enumerate(results):
        for n, value in prbps:
            per_run_prbp.setdefault(n, []).append(value)
        if unconverged_solves:
            log.warning("%s run %02d: %d SMO solves stopped at the update cap",
                        learn_dir.name, run, unconverged_solves)

    write_table(
        learn_dir / "summary.csv",
        ["n", "prbp_mean", "prbp_min", "prbp_max"],
        ([n, np.mean(v), np.min(v), np.max(v)] for n, v in per_run_prbp.items()),
    )
    write_table(
        learn_dir / "baselines.csv",
        ["classifier", "prbp"],
        [
            ["pga", prbp(pool.raw_pga, pool.labels)],
            ["lin_disp", prbp(pool.raw_lin_disp, pool.labels)],
        ],
    )
    return learn_dir


# ---------------------------------------------------------------------------
# fragility: curves and diagnostics from the stored labeled sequences
# ---------------------------------------------------------------------------


def _fragility_dir(cfg: RunConfig, out: Path) -> Path:
    return out / f"fragility_{cfg.preset}_{cfg.tag}"


def _load_model(cfg: RunConfig, path: Path, features: np.ndarray,
                final: SvmModel | None = None) -> SvmModel:
    """A model learn stored, refused if missing or written for another kernel
    or cost. Given its run's final model, a checkpoint is refused unless its
    labeled sequence is a proper prefix of the final one, as learn writes it."""
    if not path.exists():
        raise FileNotFoundError(f"{path} is missing: rerun learn")
    indices, labels, coefficients, meta = read_model_csv(path)
    kernel = cfg.make_kernel()
    stored = (meta["kernel"], float(meta["gamma"] or 0), float(meta["cost"]))
    if stored != (kernel.kind, kernel.gamma or 0.0, cfg.cost):
        raise ValueError(f"{path}: (kernel, gamma, cost) {stored} differ from the config")
    if final is not None:
        n = labels.size
        if not (n < final.labels.size and np.array_equal(indices, final.labeled_refs[:n])
                and np.array_equal(labels, final.labels[:n])):
            raise ValueError(f"{path}: labeled sequence is not a prefix of the run's final "
                             "model: rerun learn")
    return SvmModel(
        support_x=features[indices],
        coefficients=coefficients,
        bias=float(meta["bias"]),
        kernel=kernel,
        labeled_refs=indices,
        labels=labels,
    )


SENSITIVITY_BINS = (10, 20, 40)  # bin counts of the final score curve's delta_l2


def _fragility_run(cfg: RunConfig, pool: Pool, fixed_groups: dict, learn_dir: Path, run: int):
    """One run's curves at each checkpoint, from the models learn stored:
    (report lines, curve rows, final score delta_l2 per sensitivity bin count)."""
    features, labels, pga = pool.features, pool.labels, pool.raw_pga
    fixed = {"pga": pga, "lin_disp": pool.raw_lin_disp}

    def calibrated(model: SvmModel):
        """Pool scores and their probabilities, calibrated on the model's labeled set."""
        scores = model.score(features)
        return scores, fit_logistic(scores[model.labeled_refs], model.labels).probability(scores)

    report, curve_rows = [], []
    final = _load_model(cfg, _model_path(learn_dir, run), features)
    final_scores, final_probs = calibrated(final)
    final_curves = {}  # the final model's score curve per bin count
    for n in (n for n in FRAGILITY_SCHEDULE if n <= cfg.budget):
        if n >= final.labels.size:  # the whole labeled set
            model, scores, probs = final, final_scores, final_probs
        else:
            model = _load_model(cfg, _model_path(learn_dir, run, n), features, final)
            scores, probs = calibrated(model)
        groups = {"score": bin_by_projection(scores, cfg.n_bins), **fixed_groups}
        curves = {
            name: curve(labels, probs, values, cfg.n_bins, name, groups[name])
            for name, values in {"score": scores, **fixed}.items()
        }
        if model is final:
            final_curves[cfg.n_bins] = curves["score"]

        if cfg.kernel == "rbf":
            lin_model = train_svm(features[model.labeled_refs], model.labels, Kernel("linear"),
                                  cfg.cost, refs=model.labeled_refs)
            _, lin_probs = calibrated(lin_model)
            hybrid = hybrid_probability(lin_probs, probs)
            curves["hybrid"] = curve(labels, hybrid, scores, cfg.n_bins, "hybrid",
                                     groups["score"])

        for name, cv in curves.items():
            for metric in ("delta_l2", "entropy", "uncertain_fraction"):
                report.append(f"run{run:02d}.n{n}.{name}.{metric}={getattr(cv, metric):.17g}")
            curve_rows += ([run, n, name, b.center, b.count, b.p_ref, b.p_est] for b in cv.bins)

    # labeled-set-only anti-pattern, reported with a warning banner
    diag = labeled_only_diagnostic(pga[final.labeled_refs], final.labels, cfg.n_bins)
    mean_bin_p = float(np.mean([b.p_ref for b in diag.bins]))
    report.append(f"run{run:02d}.labeled_only.mean_bin_probability={mean_bin_p:.17g}")
    report.append(
        f"run{run:02d}.labeled_only.warning=labeled-set-only curve is biased by "
        "active sampling; do not use as a fragility estimate"
    )

    # a bin count above the final scores' distinct values cannot be filled
    fillable = [k for k in SENSITIVITY_BINS if k <= np.unique(final_scores).size]
    for k_bins in fillable:
        if k_bins not in final_curves:
            final_curves[k_bins] = curve(labels, final_probs, final_scores, k_bins, "score")
    return report, curve_rows, {k_bins: final_curves[k_bins].delta_l2 for k_bins in fillable}


def cmd_fragility(cfg: RunConfig) -> Path:
    """Curves at each checkpoint of every run, from the kept pool that labels
    stored and the models that learn stored: the model a run held at each
    checkpoint, calibrated on its own labeled set. Only the RBF hybrid's
    linear companion, which no artifact holds, is trained here.

    PGA and L never change, so they are binned once, here. Each run is then
    one task (see `_share_runs`) that returns its report lines, curve rows
    and sensitivity deltas, which are joined here in run order and written
    once all runs are back.
    """
    out = Path(cfg.out_dir)
    _require_current_synthesis(out)
    _, pool = _load_pool(cfg, out)
    frag_dir = _fragility_dir(cfg, out)
    frag_dir.mkdir(parents=True, exist_ok=True)
    for name in ("report.txt", "curves.csv"):  # as in cmd_learn
        (frag_dir / name).unlink(missing_ok=True)
    fixed_groups = {name: bin_by_projection(values, cfg.n_bins)
                    for name, values in (("pga", pool.raw_pga), ("lin_disp", pool.raw_lin_disp))}
    results = _share_runs(cfg, partial(_fragility_run, cfg, pool, fixed_groups, _learn_dir(cfg, out)))

    report = [
        f"pool.kept={len(pool.labels)}",
        f"pool.positive_rate={np.mean(pool.labels == 1):.17g}",
    ]
    curve_rows = []
    for run_report, run_rows, _ in results:
        report += run_report
        curve_rows += run_rows
    # binning sensitivity at the final budget, averaged over runs
    for k_bins in SENSITIVITY_BINS:
        deltas = [run_deltas.get(k_bins) for *_, run_deltas in results]
        if None in deltas:
            log.warning("%s: sensitivity.k%d left out: a run's final scores have fewer "
                        "than %d distinct values", frag_dir.name, k_bins, k_bins)
            continue
        report.append(f"sensitivity.k{k_bins}.score.delta_l2_mean={np.mean(deltas):.17g}")

    write_table(
        frag_dir / "curves.csv",
        ["run", "n", "projection", "center", "count", "p_ref", "p_est"],
        curve_rows,
    )
    atomic_write(frag_dir / "report.txt", "\n".join(report) + "\n")
    return frag_dir


# ---------------------------------------------------------------------------
# identify: user-supplied records -> parameter CSV
# ---------------------------------------------------------------------------


def cmd_identify(cfg: RunConfig, record_paths: list[str]) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    for path in record_paths:
        sig = read_signal_csv(path) if str(path).endswith(".csv") else read_signal_binary(path)
        record = TargetRecord.from_signal(sig)
        fit = identify(record, IdentificationConfig(seed=cfg.seed))
        if not fit.converged:
            log.warning("%s: identification did not converge", path)
        results.append(fit.params)
    dest = out / "identified_params.csv"
    write_params_csv(dest, results)
    return dest


# ---------------------------------------------------------------------------
# report: aggregate learn + fragility artifacts
# ---------------------------------------------------------------------------


def cmd_report(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    learn_dir = _learn_dir(cfg, out)
    frag_dir = _fragility_dir(cfg, out)
    lines = [f"config.{f.name}={getattr(cfg, f.name)}" for f in fields(RunConfig)]
    for name, path in (
        ("learn.summary", learn_dir / "summary.csv"),
        ("learn.baselines", learn_dir / "baselines.csv"),
    ):
        if path.exists():
            lines += [f"{name}." + ",".join(row) for row in read_table(path).rows]
    frag_report = frag_dir / "report.txt"
    if frag_report.exists():
        lines.extend(frag_report.read_text(encoding="utf-8").strip().splitlines())
    dest = out / "report.txt"
    atomic_write(dest, "\n".join(lines) + "\n")
    return dest


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        parser.add_argument(f"--{f.name}", dest=f.name, default=None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="seisfrag",
        description="Seismic fragility curves by active learning on SVM classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "labels", "learn", "fragility", "report"):
        p = sub.add_parser(name)
        _add_config_flags(p)
    p_id = sub.add_parser("identify")
    _add_config_flags(p_id)
    p_id.add_argument("records", nargs="+", help="signal files (CSV or binary)")

    args = parser.parse_args(argv)
    overrides = {
        f.name: getattr(args, f.name) for f in fields(RunConfig) if getattr(args, f.name) is not None
    }
    cfg = load_config(args.config, overrides)

    if args.command == "generate":
        print(cmd_generate(cfg))
    elif args.command == "labels":
        print(cmd_labels(cfg))
    elif args.command == "learn":
        print(cmd_learn(cfg))
    elif args.command == "fragility":
        print(cmd_fragility(cfg))
    elif args.command == "identify":
        print(cmd_identify(cfg, args.records))
    elif args.command == "report":
        print(cmd_report(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
