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
    gamma: float = 0.0  # rbf width; 0 means 1/dim
    cost: float = 10.0
    feature_set: str = "r4"  # r4 | r13
    budget: int = 1000
    n_runs: int = 20
    n_bins: int = 20
    batch_size: int = 500
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
        return Kernel("rbf", gamma=self.gamma if self.gamma > 0 else 1.0 / dim)

    @property
    def tag(self) -> str:
        return f"{self.kernel}_{self.feature_set}"


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Flat key=value file; every key can be overridden by a flag."""
    values: dict = {}
    if path:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
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

    Work proceeds in batches; a finished batch leaves a part file, so an
    interrupted run resumes where it stopped and reproduces identical output.
    An out_dir whose pool was generated with another seed, pool_size or
    batch_size is refused: its signals and part files belong to that pool.
    So is one holding signals or part files of another synthesis version, or
    of none recorded: resuming it would mix signals of two versions. The
    signals of a batch are shared out over the cores (see `run_shared`).
    """
    out = Path(cfg.out_dir)
    config_path = out / "config.txt"
    changed = []
    if config_path.exists():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            previous = load_config(str(config_path), {})
        keys = ("seed", "pool_size", "batch_size")
        changed = [k for k in keys if getattr(previous, k) != getattr(cfg, k)]
    stored = any(out.glob("signals/sig_*.bin")) or any(out.glob("features_*_part*.csv"))
    if stored and not _current_synthesis(out):
        changed.append("synthesis_version")
    if changed:
        raise ValueError(f"{out} holds a pool generated with other {', '.join(changed)}")
    (out / "signals").mkdir(parents=True, exist_ok=True)
    save_config(cfg, config_path)
    ensemble = reference_ensemble()
    write_ensemble_csv(out / "ensemble.csv", ensemble)
    kde_model = kristan_bandwidth(ensemble)
    save_kde_csv(out / "kde_model.csv", kde_model)

    columns = ["id", *FEATURE_NAMES]
    n_batches = (cfg.pool_size + cfg.batch_size - 1) // cfg.batch_size
    rows = []
    for b in range(n_batches):
        part = out / f"features_{cfg.preset}_part{b:04d}.csv"
        done = read_table(part) if part.exists() else None
        if done is None or done.columns != columns:
            indices = range(b * cfg.batch_size, min((b + 1) * cfg.batch_size, cfg.pool_size))
            write_table(part, columns, run_shared(
                [partial(_feature_row, out, cfg.seed, kde_model, cfg.structure, i)
                 for i in indices]))
            done = read_table(part)
        rows += done.rows

    write_table(_features_path(cfg, out), columns, rows)
    return _features_path(cfg, out)


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
    """Nonlinear peak Z and label of every kept signal, batch_size signals per
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
    rows = []
    for start in range(0, kept.size, cfg.batch_size):
        batch = kept[start : start + cfg.batch_size]
        signals = [read_signal_binary(_signal_path(out, int(ids[i]))) for i in batch]
        peaks = solve_nonlinear(signals, structure).samples
        for i, z in zip(batch, peaks.tolist()):
            rows.append([ids[i], *raw[i, measures], z, 1 if z > structure.threshold else -1])
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
    labels, PGA and L of the labels file."""
    kept_ids, pga, lin_disp, labels = read_labels_csv(
        _labels_path(cfg, out), ("id", "pga", "lin_disp", "label")
    )
    path = _transformed_path(cfg, out, cfg.feature_set)
    values = read_table(path).floats()
    if not np.array_equal(values[:, 0].astype(int), kept_ids):
        raise ValueError(f"{path}: ids differ from the kept ids of the labels file")
    # prep.apply's layout: column-major in the r4 view, whose columns it picks
    # with a list, row-major in r13. BLAS sums the same values in another order
    # on another layout, which would move every linear score by ulps.
    features = np.asarray(values[:, 1:], order="F" if cfg.feature_set == "r4" else "C")
    return kept_ids, Pool(features, labels, pga, lin_disp)


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


def cmd_learn(cfg: RunConfig) -> Path:
    """n_runs seeded active-learning runs: per run its history, its final
    model and the models it held at the fragility checkpoints below the
    final size, which fragility draws its curves from."""
    out = Path(cfg.out_dir)
    _require_current_synthesis(out)
    kept_ids, pool = _load_pool(cfg, out)
    kernel = cfg.make_kernel()
    learn_dir = _learn_dir(cfg, out)
    learn_dir.mkdir(parents=True, exist_ok=True)
    schedule = tuple(n for n in LEARN_SCHEDULE if n <= cfg.budget)
    dim = pool.features.shape[1]

    per_run_prbp = {n: [] for n in schedule}
    for run in range(cfg.n_runs):
        state = active_learn(
            pool,
            kernel,
            budget=min(cfg.budget, len(pool)),
            rng=stream(cfg.seed, "learn", run),
            cost=cfg.cost,
            eval_at=schedule,
        )
        rows = []
        for entry in state.history:
            w = [float("nan")] * dim if entry.weights is None else entry.weights
            rows.append([entry.n_labeled, kept_ids[entry.queried], entry.label, entry.prbp, *w])
            if entry.prbp is not None:
                per_run_prbp[entry.n_labeled].append(entry.prbp)
        write_table(
            learn_dir / f"history_run{run:02d}.csv",
            ["n", "queried_id", "label", "prbp", *(f"w_{j}" for j in range(dim))],
            rows,
        )
        _write_model_csv(_model_path(learn_dir, run), state.model, kept_ids, cfg.cost,
                         state.unconverged_solves)
        for n in FRAGILITY_SCHEDULE:
            if n < len(state.labeled_indices):
                _write_model_csv(_model_path(learn_dir, run, n), state.checkpoints[n], kept_ids,
                                 cfg.cost)
        if state.unconverged_solves:
            log.warning("%s run %02d: %d SMO solves stopped at the update cap",
                        learn_dir.name, run, state.unconverged_solves)

    write_table(
        learn_dir / "summary.csv",
        ["n", "prbp_mean", "prbp_min", "prbp_max"],
        ([n, np.mean(v), np.min(v), np.max(v)] for n, v in per_run_prbp.items() if v),
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


def cmd_fragility(cfg: RunConfig) -> Path:
    """Curves at each checkpoint of every run, from the kept pool that labels
    stored and the models that learn stored: the model a run held at each
    checkpoint, calibrated on its own labeled set. Only the RBF hybrid's
    linear companion, which no artifact holds, is trained here."""
    out = Path(cfg.out_dir)
    _require_current_synthesis(out)
    _, pool = _load_pool(cfg, out)
    features, labels, pga, lin_disp = pool.features, pool.labels, pool.raw_pga, pool.raw_lin_disp
    learn_dir = _learn_dir(cfg, out)
    frag_dir = _fragility_dir(cfg, out)
    frag_dir.mkdir(parents=True, exist_ok=True)
    schedule = tuple(n for n in FRAGILITY_SCHEDULE if n <= cfg.budget)
    linear_kernel = Kernel("linear")

    def calibrated(model: SvmModel):
        """Pool scores and their probabilities, calibrated on the model's labeled set."""
        scores = model.score(features)
        return scores, fit_logistic(scores[model.labeled_refs], model.labels).probability(scores)

    report: list[str] = [
        f"pool.kept={len(labels)}",
        f"pool.positive_rate={np.mean(labels == 1):.17g}",
    ]
    curve_rows = []
    sensitivity = {k_bins: [] for k_bins in (10, 20, 40)}  # final score delta_l2 per run
    fixed = {"pga": pga, "lin_disp": lin_disp}  # never change: binned once per command
    fixed_groups = {name: bin_by_projection(v, cfg.n_bins) for name, v in fixed.items()}
    for run in range(cfg.n_runs):
        final = _load_model(cfg, _model_path(learn_dir, run), features)
        final_scores, final_probs = calibrated(final)
        final_curves = {}  # the final model's score curve per bin count
        for n in schedule:
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
                lin_model = train_svm(features[model.labeled_refs], model.labels, linear_kernel,
                                      cfg.cost, refs=model.labeled_refs)
                _, lin_probs = calibrated(lin_model)
                hybrid = hybrid_probability(lin_probs, probs)
                curves["hybrid"] = curve(labels, hybrid, scores, cfg.n_bins, "hybrid",
                                         groups["score"])

            for name, cv in curves.items():
                for metric in ("delta_l2", "entropy", "uncertain_fraction"):
                    report.append(f"run{run:02d}.n{n}.{name}.{metric}={getattr(cv, metric):.17g}")
                curve_rows += ([run, n, name, b.center, b.count, b.p_ref, b.p_est]
                               for b in cv.bins)

        # labeled-set-only anti-pattern, reported with a warning banner
        diag = labeled_only_diagnostic(pga[final.labeled_refs], final.labels, cfg.n_bins)
        mean_bin_p = float(np.mean([b.p_ref for b in diag.bins]))
        report.append(f"run{run:02d}.labeled_only.mean_bin_probability={mean_bin_p:.17g}")
        report.append(
            f"run{run:02d}.labeled_only.warning=labeled-set-only curve is biased by "
            "active sampling; do not use as a fragility estimate"
        )

        for k_bins, deltas in sensitivity.items():
            if k_bins not in final_curves:
                final_curves[k_bins] = curve(labels, final_probs, final_scores, k_bins, "score")
            deltas.append(final_curves[k_bins].delta_l2)

    # binning sensitivity at the final budget, averaged over runs
    for k_bins, deltas in sensitivity.items():
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
