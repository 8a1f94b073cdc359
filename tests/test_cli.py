"""Tests for the pipeline commands and their artifacts."""

import filecmp
import logging
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from seisfrag import cli, fragility, learning
from seisfrag import preprocess as prep
from seisfrag.cli import (
    RunConfig,
    _load_model,
    _load_pool,
    cmd_fragility,
    cmd_generate,
    cmd_identify,
    cmd_labels,
    cmd_learn,
    cmd_report,
    load_config,
    main,
    read_features_csv,
    read_labels_csv,
    read_model_csv,
)
from seisfrag.ground_motion import (
    SYNTHESIS_VERSION,
    FilterParams,
    GroundMotionParams,
    ModulationParams,
    read_signal_binary,
    synthesize,
    write_signal_csv,
)
from seisfrag.identification import IdentificationResult
from seisfrag.learning import train_svm
from seisfrag.oscillator import NonlinearPeaks
from seisfrag.rng import stream_seed
from seisfrag.table import read_table, write_table
from test_oscillator import reference_solve
from test_runner import cores, no_fork, two_cores
from test_tracing import _tracing

SMOKE = dict(seed=3, pool_size=220, budget=25, n_runs=2, n_bins=6)


def smoke_config(out_dir, **extra):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return load_config(None, {**SMOKE, **extra, "out_dir": str(out_dir)})


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "run"
    cfg = smoke_config(out)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        cmd_generate(cfg)
        cmd_labels(cfg)
        cmd_learn(cfg)
        cmd_fragility(cfg)
        cmd_report(cfg)
    return cfg, out


class TestConfig:
    def test_file_and_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=7\npool_size=800\npreset=10\n# comment\n")
        cfg = load_config(str(cfg_file), {"pool_size": "900"})
        assert cfg.seed == 7
        assert cfg.pool_size == 900
        assert cfg.preset == "10"

    @pytest.mark.parametrize("line", ["polsize=100", "batch_size=500", "gamma=0.0"])
    def test_unknown_key_rejected(self, tmp_path, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(line + "\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(str(cfg_file), {})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(preset="7")
        with pytest.raises(ValueError):
            RunConfig(kernel="poly")
        for key, value in (("cost", 0.0), ("cost", -1.0), ("cost", float("nan")), ("n_bins", 0)):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                RunConfig(**{key: value})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.warns(UserWarning):
                RunConfig(pool_size=10)


class TestGenerate:
    def test_small_pool_produces_one_file_per_signal(self, tmp_path):
        cfg = smoke_config(tmp_path / "tiny", pool_size=10)
        cmd_generate(cfg)
        assert len(list((tmp_path / "tiny" / "signals").glob("sig_*.bin"))) == 10
        ids, raw = read_features_csv(tmp_path / "tiny" / "features_5.csv")
        assert ids.size == 10
        assert raw.shape == (10, 13)

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg_a = smoke_config(tmp_path / "a", pool_size=40)
        cfg_b = smoke_config(tmp_path / "b", pool_size=40)
        cmd_generate(cfg_a)
        cmd_generate(cfg_b)
        assert filecmp.cmp(tmp_path / "a" / "features_5.csv", tmp_path / "b" / "features_5.csv", shallow=False)
        for i in (0, 17, 39):
            assert filecmp.cmp(
                tmp_path / "a" / "signals" / f"sig_{i:05d}.bin",
                tmp_path / "b" / "signals" / f"sig_{i:05d}.bin",
                shallow=False,
            )

    def test_checkpoint_resume_reproduces_output(self, tmp_path):
        out = tmp_path / "ckpt"
        cfg = smoke_config(out, pool_size=40)
        reference = cmd_generate(cfg).read_bytes()
        signals = {p.name: p.read_bytes() for p in (out / "signals").iterdir()}
        # as a run cut short: no features file, and some signals not yet stored
        (out / "features_5.csv").unlink()
        for i in (3, 17, 31):
            (out / "signals" / f"sig_{i:05d}.bin").unlink()
        assert cmd_generate(cfg).read_bytes() == reference
        assert {p.name: p.read_bytes() for p in (out / "signals").iterdir()} == signals

    def test_other_pool_keys_refused(self, tmp_path):
        out = tmp_path / "stale"
        pool = dict(pool_size=20, seed=1)
        first = cmd_generate(smoke_config(out, **pool)).read_text()
        for key, value in (("seed", 2), ("pool_size", 24)):
            with pytest.raises(ValueError, match=key):
                cmd_generate(smoke_config(out, **{**pool, key: value}))
        assert (out / "features_5.csv").read_text() == first
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert load_config(str(out / "config.txt"), {}).seed == 1
        # another preset over the same pool keeps working
        ids, _ = read_features_csv(cmd_generate(smoke_config(out, **pool, preset="10")))
        assert ids.tolist() == list(range(20))

    @pytest.mark.parametrize("stale", ["no_version_line", "other_version", "no_config"])
    def test_pool_of_another_synthesis_version_refused(self, tmp_path, stale):
        out = tmp_path / "pool"
        cfg = smoke_config(out, pool_size=12)
        first = cmd_generate(cfg).read_text()
        signals = {p.name: p.read_bytes() for p in (out / "signals").iterdir()}
        # its own pool serves another preset, reusing the signal files
        cmd_generate(smoke_config(out, pool_size=12, preset="2.5"))
        assert {p.name: p.read_bytes() for p in (out / "signals").iterdir()} == signals
        config = out / "config.txt"
        version_line = f"# synthesis_version={SYNTHESIS_VERSION}\n"
        assert version_line in config.read_text()
        if stale == "no_config":
            config.unlink()
        else:
            other = "" if stale == "no_version_line" else "# synthesis_version=1\n"
            config.write_text(config.read_text().replace(version_line, other))
        kept = config.read_text() if config.exists() else None
        with pytest.raises(ValueError, match="synthesis_version"):
            cmd_generate(cfg)
        with pytest.raises(ValueError, match="synthesis_version"):
            cmd_generate(smoke_config(out, pool_size=12, preset="10"))
        assert (config.read_text() if config.exists() else None) == kept
        assert (out / "features_5.csv").read_text() == first

    @pytest.mark.parametrize("command", [cmd_labels, cmd_learn, cmd_fragility])
    def test_later_stages_refuse_a_pool_without_the_version_line(
        self, pipeline_dir, tmp_path, command
    ):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        config = copy / "config.txt"
        config.write_text(config.read_text().replace(f"# synthesis_version={SYNTHESIS_VERSION}\n", ""))
        files = {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()}
        with pytest.raises(ValueError, match="synthesis_version"):
            command(smoke_config(copy))
        assert {p: p.read_bytes() for p in copy.rglob("*") if p.is_file()} == files

    def test_empty_out_dir_with_an_old_config_accepted(self, tmp_path):
        out = tmp_path / "pool"
        out.mkdir()
        (out / "config.txt").write_text("seed=3\npool_size=12\nbatch_size=5\ngamma=0.0\n")
        cmd_generate(smoke_config(out, pool_size=12))
        assert f"# synthesis_version={SYNTHESIS_VERSION}" in (out / "config.txt").read_text()

    def test_pool_of_the_batched_layout_serves_another_preset(self, tmp_path):
        """A pool as generate left it while it still wrote one part file per
        batch of batch_size signals and kept batch_size and gamma in its
        config.txt: another preset over it gives the features of a fresh
        pool and removes the part files, and another seed or pool_size is
        still refused."""
        fresh, old = tmp_path / "fresh", tmp_path / "old"
        expected = {preset: cmd_generate(smoke_config(fresh, pool_size=12, preset=preset))
                    .read_bytes() for preset in ("5", "10")}
        cmd_generate(smoke_config(old, pool_size=12))
        signals = {p.name: p.read_bytes() for p in (old / "signals").iterdir()}
        config = old / "config.txt"
        config.write_text(config.read_text()
                          .replace("kernel=linear\n", "kernel=linear\ngamma=0.0\n")
                          .replace("n_bins=6\n", "n_bins=6\nbatch_size=5\n"))
        header, *rows = (old / "features_5.csv").read_text().splitlines(keepends=True)
        for b in range(3):
            (old / f"features_5_part{b:04d}.csv").write_text(header + "".join(rows[5 * b:5 * b + 5]))
        for key, value in (("seed", 4), ("pool_size", 13)):
            with pytest.raises(ValueError, match=f"other {key}$"):
                cmd_generate(smoke_config(old, **{"pool_size": 12, "preset": "10", key: value}))
        assert (cmd_generate(smoke_config(old, pool_size=12, preset="10")).read_bytes()
                == expected["10"])
        assert (old / "features_5.csv").read_bytes() == expected["5"]
        assert not list(old.glob("features_*_part*.csv"))
        assert {p.name: p.read_bytes() for p in (old / "signals").iterdir()} == signals
        assert not {"batch_size", "gamma"} & cli._config_values(config).keys()


class TestSharedGenerate:
    """`generate` shares the pool's signals over the cores, byte for byte."""

    POOL = dict(pool_size=12)

    def generated(self, out) -> dict:
        """Every file but config.txt (which names out) after generate for the
        5 Hz preset, then for the 10 Hz preset over the stored signals."""
        for preset in ("5", "10"):
            cmd_generate(smoke_config(out, **self.POOL, preset=preset))
        assert not multiprocessing.active_children()
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file() and p.name != "config.txt"}

    def one_core(self, out, monkeypatch) -> dict:
        with monkeypatch.context() as mp:
            cores(mp, 1)
            mp.setattr(multiprocessing, "get_context", no_fork)
            return self.generated(out)

    def test_two_cores_and_one_core_give_the_same_bytes(self, tmp_path, monkeypatch):
        with monkeypatch.context() as mp:
            two_cores(mp, tmp_path, cli, "_feature_row")
            shared = self.generated(tmp_path / "shared")
        assert len(list(tmp_path.glob("pid_*"))) > 1  # this process and a worker
        alone = self.one_core(tmp_path / "alone", monkeypatch)
        assert shared.keys() == alone.keys()
        assert len([name for name in alone if name.startswith("signals/sig_")]) == 12
        assert shared == alone

    def test_error_in_a_worker_leaves_no_features_and_no_partial_file(self, tmp_path,
                                                                       monkeypatch):
        """The worker fails synthesizing one of the last seven signals: no
        features file is written, and a rerun completes the pool."""
        parent = os.getpid()
        late = {stream_seed(SMOKE["seed"], "signal", i) for i in range(5, 12)}

        def cut(params, dt, rng):
            if os.getpid() != parent and rng.bit_generator.seed_seq.entropy in late:
                raise RuntimeError("synthesis cut short")
            return synthesize(params, dt=dt, rng=rng)

        out = tmp_path / "cut"
        with monkeypatch.context() as mp:
            two_cores(mp, tmp_path, cli, "_feature_row")
            mp.setattr(cli, "synthesize", cut)
            with pytest.raises(RuntimeError, match="^synthesis cut short$"):
                cmd_generate(smoke_config(out, **self.POOL))
        assert not multiprocessing.active_children()
        assert not list(out.glob("features_*"))
        assert not list(out.rglob("*.tmp"))
        with monkeypatch.context() as mp:
            cores(mp, 2)
            resumed = self.generated(out)
        assert resumed == self.one_core(tmp_path / "alone", monkeypatch)


class TestLabels:
    def test_labels_artifact(self, pipeline_dir):
        cfg, out = pipeline_dir
        ids, z_values, labels = read_labels_csv(out / "labels_5.csv")
        _, raw = read_features_csv(out / "features_5.csv")
        kept_mask = (raw[:, 12] >= cfg.structure.yield_y) & (
            raw[:, 12] <= 6 * cfg.structure.yield_y
        )
        assert ids.size == kept_mask.sum()
        assert set(np.unique(labels)) <= {-1, 1}
        # labels consistent with the stored nonlinear peaks
        assert np.array_equal(labels, np.where(z_values > cfg.structure.threshold, 1, -1))

    def test_positive_fraction_band(self, pipeline_dir):
        _, out = pipeline_dir
        _, _, labels = read_labels_csv(out / "labels_5.csv")
        assert 0.05 <= np.mean(labels == 1) <= 0.30

    def test_batches_give_the_scalar_reference_file(self, pipeline_dir, tmp_path, monkeypatch):
        """One call of the batched stepper holds every kept signal, and gives
        the labels that stepping each signal alone gives."""
        _, out = pipeline_dir
        scalar = tmp_path / "scalar"
        shutil.copytree(out, scalar)
        calls = []

        def one_by_one(signals, structure):
            calls.append(len(signals))
            peaks = [np.max(np.abs(reference_solve(s, structure).samples)) for s in signals]
            return NonlinearPeaks(samples=np.array(peaks), dt=np.zeros(len(signals)))

        monkeypatch.setattr(cli, "solve_nonlinear", one_by_one)
        cmd_labels(smoke_config(scalar))
        assert calls == [read_labels_csv(out / "labels_5.csv")[0].size]
        assert (out / "labels_5.csv").read_bytes() == (scalar / "labels_5.csv").read_bytes()

    def test_empty_kept_pool_writes_the_header_only(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        features = read_table(copy / "features_5.csv")
        lin_disp = features.columns.index("lin_disp")
        rows = [[*row[:lin_disp], "0", *row[lin_disp + 1:]] for row in features.rows]
        write_table(copy / "features_5.csv", features.columns, rows)
        path = cmd_labels(smoke_config(copy))
        assert path.read_text() == "id,pga,pgv,pgd,energy,lin_disp,max_nonlinear,label\n"
        assert read_labels_csv(path)[0].size == 0

    def test_kept_pool_too_small_to_fit_gets_labels_but_no_transform(self, tmp_path):
        ws = tmp_path / "ws"
        cfg = smoke_config(ws, pool_size=30, preset="10")
        cmd_generate(cfg)
        kept = read_labels_csv(cmd_labels(cfg))[0].size
        assert 0 < kept < prep.BOXCOX_MIN_VALUES
        assert not [*ws.glob("preprocess_*"), *ws.glob("transformed_*")]
        for command in (cmd_learn, cmd_fragility):
            with pytest.raises(FileNotFoundError, match="transformed_10_r4.csv"):
                command(cfg)


class TestLearn:
    def test_history_and_models(self, pipeline_dir):
        cfg, out = pipeline_dir
        learn_dir = out / "learn_5_linear_r4"
        histories = sorted(learn_dir.glob("history_run*.csv"))
        assert len(histories) == cfg.n_runs
        indices, labels, *_ = read_model_csv(learn_dir / "model_run00.csv")
        assert len(indices) == cfg.budget
        assert len(set(indices)) == cfg.budget
        assert set(labels) == {-1, 1}

    @pytest.mark.parametrize("kernel, weights", [("linear", ",w_0,w_1,w_2,w_3"), ("rbf", "")])
    def test_history_columns(self, pipeline_dir, tmp_path, kernel, weights):
        """Only a linear history has weight columns: an RBF model has no w."""
        cfg = smoke_config(learn_inputs(pipeline_dir[1], tmp_path / "ws"), kernel=kernel)
        learn_dir = cmd_learn(cfg)
        for run in range(cfg.n_runs):
            lines = (learn_dir / f"history_run{run:02d}.csv").read_text().splitlines()
            assert lines[0] == "n,queried_id,label,prbp" + weights
            assert {line.count(",") for line in lines} == {lines[0].count(",")}
            assert "nan" not in "".join(lines)

    def test_checkpoint_models_are_the_fragility_sizes_below_the_final(self, pipeline_dir):
        cfg, out = pipeline_dir  # budget 25: fragility reads n = 20, and the final model
        names = sorted(p.name for p in (out / "learn_5_linear_r4").glob("model_run*.csv"))
        assert names == [f"model_run{run:02d}{n}.csv"
                         for run in range(cfg.n_runs) for n in ("", "_n20")]
        # a checkpoint keeps exactly the final model's four meta lines
        meta = read_model_csv(out / "learn_5_linear_r4" / "model_run00_n20.csv")[3]
        assert list(meta) == ["kernel", "gamma", "cost", "bias"]

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_checkpoint_models_give_the_history_prbp(self, pipeline_dir, kernel):
        cfg, out = pipeline_dir
        cfg = smoke_config(out, kernel=kernel)
        learn_dir = out / f"learn_5_{kernel}_r4"
        if not learn_dir.exists():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cmd_learn(cfg)
        _, pool = _load_pool(cfg, out)
        checked = 0
        for run in range(cfg.n_runs):
            history = read_table(learn_dir / f"history_run{run:02d}.csv").floats()
            prbp_at = {int(row[0]): row[3] for row in history if not np.isnan(row[3])}
            weights_at = {int(row[0]): row[4:] for row in history}
            for path in learn_dir.glob(f"model_run{run:02d}_n*.csv"):
                model = _load_model(cfg, path, pool.features)
                n = model.labels.size
                assert learning.prbp(model.score(pool.features), pool.labels) == prbp_at[n]
                if kernel == "linear":  # the warm model the learner held, not a refit
                    assert np.array_equal(model.weights, weights_at[n])
                checked += 1
        assert checked == cfg.n_runs

    def test_solves_stopped_at_the_cap_are_counted_and_logged(self, pipeline_dir, tmp_path,
                                                                monkeypatch, caplog):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        calls = []
        original = learning._smo

        def one_unconverged(*args, **kwargs):
            alpha, bias, converged, grad = original(*args, **kwargs)
            calls.append(None)
            return alpha, bias, converged and len(calls) != 3, grad

        monkeypatch.setattr(learning, "_smo", one_unconverged)
        with caplog.at_level(logging.WARNING, logger="seisfrag.cli"):
            learn_dir = cmd_learn(smoke_config(copy))
        metas = [read_model_csv(learn_dir / f"model_run{run:02d}.csv")[3] for run in (0, 1)]
        assert metas[0]["unconverged_solves"] == "1"
        assert "unconverged_solves" not in metas[1]
        assert [r.getMessage() for r in caplog.records] == [
            "learn_5_linear_r4 run 00: 1 SMO solves stopped at the update cap"
        ]
        # the count is meta only: the rows and every other file are unchanged
        for name in ("model_run01.csv", "history_run00.csv", "history_run01.csv"):
            assert filecmp.cmp(learn_dir / name, out / "learn_5_linear_r4" / name, shallow=False)

    def test_summary_matches_recomputation(self, pipeline_dir):
        cfg, out = pipeline_dir
        learn_dir = out / "learn_5_linear_r4"
        per_n = {}
        for run in range(cfg.n_runs):
            for line in (learn_dir / f"history_run{run:02d}.csv").read_text().splitlines()[1:]:
                parts = line.split(",")
                if parts[3]:
                    per_n.setdefault(int(parts[0]), []).append(float(parts[3]))
        for line in (learn_dir / "summary.csv").read_text().splitlines()[1:]:
            n, mean, lo, hi = line.split(",")
            vals = per_n[int(n)]
            assert float(mean) == pytest.approx(np.mean(vals))
            assert float(lo) == pytest.approx(np.min(vals))
            assert float(hi) == pytest.approx(np.max(vals))

    def test_schedule_present(self, pipeline_dir):
        cfg, out = pipeline_dir
        summary = (out / "learn_5_linear_r4" / "summary.csv").read_text().splitlines()[1:]
        ns = [int(line.split(",")[0]) for line in summary]
        assert ns == [n for n in (10, 20, 50, 100, 200, 500, 1000) if n <= cfg.budget]

    def test_persisted_models_and_transformed_matrix(self, pipeline_dir):
        cfg, out = pipeline_dir
        assert (out / "kde_model.csv").exists()
        from seisfrag import preprocess as prep

        model = prep.load_model_csv(out / "preprocess_5.csv")
        assert model.stds.size == 13
        lines = (out / "transformed_5_r4.csv").read_text().splitlines()
        kept = read_labels_csv(out / "labels_5.csv")[0].size
        assert len(lines) == kept + 1
        assert lines[0] == "id,x_0,x_1,x_2,x_3"


class TestKeptPool:
    """labels fits the transform once; learn and fragility load what it stored."""

    @pytest.mark.parametrize("view", ["r4", "r13"])
    def test_loaded_pool_is_the_fitted_transform(self, pipeline_dir, view):
        cfg, out = pipeline_dir  # labelled with feature_set=r4
        ids, raw = read_features_csv(out / "features_5.csv")
        kept = prep.filter_pool(raw[:, 12], cfg.structure.yield_y)
        fitted = prep.apply(prep.fit(raw[kept]), raw[kept], view=view)
        kept_ids, pool = _load_pool(smoke_config(out, feature_set=view), out)
        assert np.array_equal(kept_ids, ids[kept])
        assert pool.features.tobytes() == fitted.tobytes()
        labels_file = read_labels_csv(out / "labels_5.csv", ("label", "pga", "lin_disp"))
        for stored, column in zip((pool.labels, pool.raw_pga, pool.raw_lin_disp), labels_file):
            assert np.array_equal(stored, column)

    @pytest.mark.parametrize("command", [cmd_learn, cmd_fragility])
    def test_budget_above_the_kept_pool_refused(self, pipeline_dir, tmp_path, command):
        """Seed 3 keeps 68 of 220 signals: a budget of 200 would be cut to 68
        labels, and fragility would report that one model at n = 100 and 200."""
        out = learn_inputs(pipeline_dir[1], tmp_path / "ws")
        with pytest.raises(ValueError, match=r"^budget=200 exceeds the 68 signals of the kept "
                                             r"pool in .*transformed_5_r4\.csv$"):
            command(smoke_config(out, budget=200, n_runs=1))
        assert sorted(p.name for p in out.iterdir()) == ["config.txt", "labels_5.csv",
                                                         "transformed_5_r4.csv"]

    def test_bins_above_the_kept_pool_refused(self, tmp_path):
        """Seed 42 keeps 32 of 100 signals at 5 Hz: 40 bins are refused before
        learn runs, not deep inside fragility's binning."""
        cfg = smoke_config(tmp_path / "ws", seed=42, pool_size=100, budget=20, n_runs=1)
        cmd_generate(cfg)
        cmd_labels(cfg)
        for command in (cmd_learn, cmd_fragility):
            with pytest.raises(ValueError, match=r"^n_bins=40 exceeds the 32 signals"):
                command(smoke_config(cfg.out_dir, seed=42, pool_size=100, budget=20, n_runs=1,
                                     n_bins=40))
        assert not list(Path(cfg.out_dir).glob("learn_*/*"))
        cmd_learn(smoke_config(cfg.out_dir, seed=42, pool_size=100, budget=20, n_runs=1,
                               n_bins=32))

    def test_learn_needs_only_labels_and_the_transformed_pool(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        (copy / "features_5.csv").unlink()
        (copy / "preprocess_5.csv").unlink()
        learn_dir = cmd_learn(smoke_config(copy))
        names = sorted(p.name for p in (out / "learn_5_linear_r4").iterdir())
        assert sorted(p.name for p in learn_dir.iterdir()) == names
        for name in names:
            assert filecmp.cmp(learn_dir / name, out / "learn_5_linear_r4" / name, shallow=False)

    def test_learn_on_the_other_view_needs_no_relabelling(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        cfg = smoke_config(copy, feature_set="r13")
        learn_dir = cmd_learn(cfg)
        columns = read_table(learn_dir / "history_run00.csv").columns
        assert columns[4:] == [f"w_{j}" for j in range(13)]
        assert (cmd_fragility(cfg) / "report.txt").exists()

    def test_only_labels_fits_the_transform_and_reads_features(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        cfg = smoke_config(copy)
        tracer = _tracing().Tracer()
        tracer.install()
        counts = []
        try:
            for command in (cmd_labels, cmd_learn, cmd_fragility):
                command(cfg)
                calls = tracer.self_times()
                counts.append([calls.get(name, (0, 0.0))[0]
                               for name in ("preprocess.fit", "cli.read_features_csv")])
        finally:
            tracer.uninstall()
        assert counts == [[1, 1], [1, 1], [1, 1]]  # running totals after each command


class TestFragility:
    def test_report_has_all_projections(self, pipeline_dir):
        cfg, out = pipeline_dir
        report = (out / "fragility_5_linear_r4" / "report.txt").read_text()
        for name in ("score", "pga", "lin_disp"):
            assert f".{name}.delta_l2=" in report
        assert "labeled_only.mean_bin_probability" in report
        assert "sensitivity.k10" in report and "sensitivity.k40" in report

    def test_hybrid_present_for_rbf(self, tmp_path, pipeline_dir):
        cfg, out = pipeline_dir
        rbf_cfg = smoke_config(out, kernel="rbf")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cmd_learn(rbf_cfg)
            cmd_fragility(rbf_cfg)
        report = (out / "fragility_5_rbf_r4" / "report.txt").read_text()
        assert ".hybrid.delta_l2=" in report

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_loaded_final_model_scores_like_a_retrain(self, pipeline_dir, kernel):
        cfg, out = pipeline_dir
        cfg = smoke_config(out, kernel=kernel)
        learn_dir = out / f"learn_5_{kernel}_r4"
        if not learn_dir.exists():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cmd_learn(cfg)
        _, pool = _load_pool(cfg, out)
        for run in range(cfg.n_runs):
            path = learn_dir / f"model_run{run:02d}.csv"
            loaded = _load_model(cfg, path, pool.features)
            indices, labels, *_ = read_model_csv(path)
            retrained = train_svm(pool.features[indices], labels, cfg.make_kernel(), cfg.cost)
            assert np.array_equal(loaded.score(pool.features), retrained.score(pool.features))

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_checkpoint_scores_are_the_scores_learn_ranked(self, pipeline_dir, tmp_path,
                                                           monkeypatch, kernel):
        """The pool scores behind each checkpoint's PRBP in learn are, bit for
        bit, the model's own score and the loaded model's score in fragility."""
        cfg = smoke_config(learn_inputs(pipeline_dir[1], tmp_path / "ws"), kernel=kernel,
                           budget=50)
        kept_ids, pool = _load_pool(cfg, Path(cfg.out_dir))
        learn_dir = cli._learn_dir(cfg, Path(cfg.out_dir))
        learn_dir.mkdir()
        states, ranked = [], []
        active_learn, prbp = cli.active_learn, learning.prbp

        def keep_state(*args, **kwargs):
            states.append(active_learn(*args, **kwargs))
            return states[-1]

        def keep_scores(scores, labels):
            ranked.append(scores.copy())
            return prbp(scores, labels)

        monkeypatch.setattr(cli, "active_learn", keep_state)
        monkeypatch.setattr(learning, "prbp", keep_scores)
        for run in range(cfg.n_runs):
            ranked.clear()
            cli._learn_run(cfg, kept_ids, pool, learn_dir, run)
            state = states[run]
            assert sorted(state.checkpoints) == [10, 20, 50] and len(ranked) == 3
            for n, scores in zip(sorted(state.checkpoints), ranked):
                assert scores.tobytes() == state.checkpoints[n].score(pool.features).tobytes()
                if n in cli.FRAGILITY_SCHEDULE:
                    path = cli._model_path(learn_dir, run, None if n == cfg.budget else n)
                    loaded = _load_model(cfg, path, pool.features)
                    assert scores.tobytes() == loaded.score(pool.features).tobytes()

    @pytest.mark.parametrize("old, new", [
        ("# cost=10\n", "# cost=5\n"),
        ("# kernel=linear\n# gamma=\n", "# kernel=rbf\n# gamma=0.25\n"),
    ])
    def test_refuses_model_of_another_config(self, pipeline_dir, tmp_path, old, new):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        model_path = copy / "learn_5_linear_r4" / "model_run01.csv"
        text = model_path.read_text()
        assert old in text
        model_path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="model_run01"):
            cmd_fragility(smoke_config(copy))

    def test_refuses_missing_checkpoint_model(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)  # as a workspace learned before checkpoints were stored
        (copy / "learn_5_linear_r4" / "model_run01_n20.csv").unlink()
        with pytest.raises(FileNotFoundError, match=r"model_run01_n20\.csv is missing: rerun learn"):
            cmd_fragility(smoke_config(copy))

    def test_refuses_checkpoint_of_another_sequence(self, pipeline_dir, tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)  # as one left by a learn of another config
        learn_dir = copy / "learn_5_linear_r4"
        shutil.copyfile(learn_dir / "model_run00_n20.csv", learn_dir / "model_run01_n20.csv")
        with pytest.raises(ValueError, match=r"model_run01_n20\.csv: labeled sequence is not "
                                             r"a prefix of the run's final model: rerun learn"):
            cmd_fragility(smoke_config(copy))

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_no_retrain_of_the_config_kernel(self, pipeline_dir, tmp_path, monkeypatch, kernel):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        cfg = smoke_config(copy, kernel=kernel)
        if not (copy / f"learn_5_{kernel}_r4").exists():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cmd_learn(cfg)
        kinds = []
        original = learning.train_svm

        def counting(features, labels, kernel, *args, **kwargs):
            kinds.append(kernel.kind)
            return original(features, labels, kernel, *args, **kwargs)

        monkeypatch.setattr(learning, "train_svm", counting)
        monkeypatch.setattr(cli, "train_svm", counting)
        cmd_fragility(cfg)
        # RBF trains only the hybrid's linear companion, once per run at n = 20
        assert kinds == ([] if kernel == "linear" else ["linear"] * cfg.n_runs)

    def test_fragility_needs_only_labels_transformed_pool_and_models(self, pipeline_dir,
                                                                     tmp_path):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        (copy / "features_5.csv").unlink()
        (copy / "preprocess_5.csv").unlink()
        frag_dir = cmd_fragility(smoke_config(copy))
        for name in ("curves.csv", "report.txt"):
            assert filecmp.cmp(frag_dir / name, out / "fragility_5_linear_r4" / name,
                               shallow=False)

    @pytest.mark.parametrize("edit", ["drop_row", "change_id"])
    def test_refuses_transformed_pool_of_other_ids(self, pipeline_dir, tmp_path, edit):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        path = copy / "transformed_5_r4.csv"
        lines = path.read_text().splitlines(keepends=True)
        if edit == "drop_row":
            del lines[3]
        else:
            signal_id, rest = lines[3].split(",", 1)
            lines[3] = f"{int(signal_id) + 100000},{rest}"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match="transformed_5_r4"):
            cmd_fragility(smoke_config(copy))

    def test_fixed_projections_binned_once_per_command(self, pipeline_dir, tmp_path,
                                                       monkeypatch):
        _, out = pipeline_dir
        pga, lin_disp = read_labels_csv(out / "labels_5.csv", ("pga", "lin_disp"))
        binned = []
        original = fragility.bin_by_projection

        def counting(values, n_bins, *args):
            binned.append((np.array_equal(values, pga), np.array_equal(values, lin_disp)))
            return original(values, n_bins, *args)

        monkeypatch.setattr(fragility, "bin_by_projection", counting)
        monkeypatch.setattr(cli, "bin_by_projection", counting)
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        cmd_fragility(smoke_config(copy))
        assert binned.count((True, False)) == 1
        assert binned.count((False, True)) == 1

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_score_binned_once_per_checkpoint(self, pipeline_dir, tmp_path, monkeypatch, kernel):
        _, out = pipeline_dir
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        # the budget is the schedule's last checkpoint, whose bin count the
        # sensitivity curves repeat
        cfg = smoke_config(copy, kernel=kernel, budget=20, n_bins=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cmd_learn(cfg)
        calls = []
        original = fragility.bin_by_projection

        def counting(values, n_bins, *args):
            calls.append(n_bins)
            return original(values, n_bins, *args)

        monkeypatch.setattr(fragility, "bin_by_projection", counting)
        monkeypatch.setattr(cli, "bin_by_projection", counting)
        report = (cmd_fragility(cfg) / "report.txt").read_text().splitlines()
        # PGA and L once; per run the n=20 score curve (shared by the hybrid),
        # the labeled-only curve and the K = 20 and 40 sensitivity curves
        assert sorted(calls) == sorted([10, 10] + cfg.n_runs * [10, 10, 20, 40])
        values = dict(line.split("=", 1) for line in report)
        deltas = [float(values[f"run{run:02d}.n20.score.delta_l2"]) for run in range(cfg.n_runs)]
        assert values["sensitivity.k10.score.delta_l2_mean"] == f"{np.mean(deltas):.17g}"
        if kernel == "rbf":
            curves = read_table(copy / "fragility_5_rbf_r4" / "curves.csv").rows
            score = [row[3:5] for row in curves if row[2] == "score"]
            assert [row[3:5] for row in curves if row[2] == "hybrid"] == score

    def test_sensitivity_count_the_final_scores_cannot_fill_is_left_out(
        self, pipeline_dir, tmp_path, monkeypatch, caplog
    ):
        _, out = pipeline_dir
        too_many = read_labels_csv(out / "labels_5.csv")[0].size + 1
        monkeypatch.setattr(cli, "SENSITIVITY_BINS", (*cli.SENSITIVITY_BINS, too_many))
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        with caplog.at_level(logging.WARNING, logger="seisfrag.cli"):
            frag_dir = cmd_fragility(smoke_config(copy))
        # every other line is written as without that count
        for name in ("curves.csv", "report.txt"):
            assert filecmp.cmp(frag_dir / name, out / "fragility_5_linear_r4" / name,
                               shallow=False)
        assert [r.getMessage() for r in caplog.records] == [
            f"fragility_5_linear_r4: sensitivity.k{too_many} left out: a run's final scores "
            f"have fewer than {too_many} distinct values"
        ]

    def test_binning_every_checkpoint_gives_the_same_files(self, pipeline_dir, tmp_path,
                                                           monkeypatch):
        _, out = pipeline_dir

        def rebinning(labels, probabilities, values, n_bins, name, groups=None):
            return fragility.curve(labels, probabilities, values, n_bins, name)

        monkeypatch.setattr(cli, "curve", rebinning)
        copy = tmp_path / "copy"
        shutil.copytree(out, copy)
        frag_dir = cmd_fragility(smoke_config(copy))
        for name in ("curves.csv", "report.txt"):
            assert filecmp.cmp(frag_dir / name, out / "fragility_5_linear_r4" / name,
                               shallow=False)

    def test_curves_csv_counts(self, pipeline_dir):
        cfg, out = pipeline_dir
        lines = (out / "fragility_5_linear_r4" / "curves.csv").read_text().splitlines()[1:]
        kept = read_labels_csv(out / "labels_5.csv")[0].size
        score_n25 = [l for l in lines if l.split(",")[:3] == ["0", "20", "score"]]
        assert sum(int(l.split(",")[4]) for l in score_n25) == kept


def learn_inputs(out: Path, dest: Path) -> Path:
    """A workspace holding only what learn and fragility read, from out."""
    dest.mkdir(parents=True)
    for name in ("config.txt", "labels_5.csv", "transformed_5_r4.csv"):
        shutil.copyfile(out / name, dest / name)
    return dest


def run_files(out: Path, kernel: str) -> dict:
    """Every file of the kernel's learn and fragility directories."""
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for d in (f"learn_5_{kernel}_r4", f"fragility_5_{kernel}_r4")
            for p in sorted((out / d).iterdir())}


class TestSharedRuns:
    """From SHARED_MIN_BUDGET on, learn and fragility make one task of each
    run, shared over the cores, byte for byte; below it nothing forks. The
    gate is lowered here so that the smoke workspace takes the shared path."""

    RUNS = 3

    def learned(self, out: Path, kernel: str) -> dict:
        cfg = smoke_config(out, kernel=kernel, n_runs=self.RUNS)
        cmd_learn(cfg)
        frag_dir = cmd_fragility(cfg)
        assert not multiprocessing.active_children()
        # the runs' lines and rows are joined in run order
        report = (frag_dir / "report.txt").read_text().splitlines()
        runs = [int(line[3:5]) for line in report if line.startswith("run")]
        rows = [int(row[0]) for row in read_table(frag_dir / "curves.csv").rows]
        assert runs == sorted(runs) and rows == sorted(rows)
        assert set(runs) == set(rows) == set(range(self.RUNS))
        return run_files(out, kernel)

    def shared(self, mp, marks: Path) -> None:
        """Two cores, the gate open, and a worker taking a share of the runs
        of both commands; marks/learn and marks/fragility record who ran them."""
        mp.setattr(cli, "SHARED_MIN_BUDGET", 2)
        for command in ("learn", "fragility"):
            (marks / command).mkdir(parents=True)
            two_cores(mp, marks / command, cli, f"_{command}_run")

    @staticmethod
    def worker_ran(marks: Path, command: str) -> bool:
        return any(int(p.name[4:]) != os.getpid() for p in (marks / command).glob("pid_*"))

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_two_cores_and_one_core_give_the_same_bytes(self, pipeline_dir, tmp_path,
                                                        monkeypatch, kernel):
        with monkeypatch.context() as mp:
            self.shared(mp, tmp_path / "marks")
            shared = self.learned(learn_inputs(pipeline_dir[1], tmp_path / "shared"), kernel)
        assert self.worker_ran(tmp_path / "marks", "learn")
        assert self.worker_ran(tmp_path / "marks", "fragility")
        with monkeypatch.context() as mp:
            cores(mp, 1)
            mp.setattr(multiprocessing, "get_context", no_fork)
            alone = self.learned(learn_inputs(pipeline_dir[1], tmp_path / "alone"), kernel)
        assert len([name for name in alone if name.startswith(f"learn_5_{kernel}_r4/history")]) \
            == self.RUNS
        assert shared == alone

    @pytest.mark.parametrize("command, written", [
        ("learn", ("summary.csv", "baselines.csv")),
        ("fragility", ("report.txt", "curves.csv")),
    ])
    def test_error_in_a_worker_is_raised_here_and_writes_no_summary(
        self, pipeline_dir, tmp_path, monkeypatch, command, written
    ):
        out = learn_inputs(pipeline_dir[1], tmp_path / "cut")
        cfg = smoke_config(out, n_runs=self.RUNS)
        if command == "fragility":
            cmd_learn(cfg)
        parent, run = os.getpid(), getattr(cli, f"_{command}_run")

        def cut(*args):
            if os.getpid() != parent:
                raise RuntimeError("run cut short")
            return run(*args)

        with monkeypatch.context() as mp:
            mp.setattr(cli, f"_{command}_run", cut)
            self.shared(mp, tmp_path / "marks")
            with pytest.raises(RuntimeError, match="^run cut short$"):
                getattr(cli, f"cmd_{command}")(cfg)
        assert not multiprocessing.active_children()
        assert self.worker_ran(tmp_path / "marks", command)
        target = out / f"{command}_5_linear_r4"
        assert not [name for name in written if (target / name).exists()]
        assert not list(out.rglob("*.tmp"))
        # the rerun writes what an uninterrupted run writes
        assert self.learned(out, "linear") == self.learned(
            learn_inputs(pipeline_dir[1], tmp_path / "whole"), "linear")

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_below_the_gate_nothing_forks(self, pipeline_dir, tmp_path, monkeypatch, kernel):
        assert SMOKE["budget"] < cli.SHARED_MIN_BUDGET
        cores(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        files = self.learned(learn_inputs(pipeline_dir[1], tmp_path / "ws"), kernel)
        assert "fragility_5_" + kernel + "_r4/report.txt" in files

    @pytest.mark.parametrize("gate, shared", [(SMOKE["budget"] + 1, False), (SMOKE["budget"], True)])
    def test_runs_are_shared_from_the_gate_on(self, pipeline_dir, tmp_path, monkeypatch, gate,
                                              shared):
        monkeypatch.setattr(cli, "SHARED_MIN_BUDGET", gate)
        batches = []

        def recording(tasks):
            batches.append(len(tasks))
            return [task() for task in tasks]

        monkeypatch.setattr(cli, "run_shared", recording)
        self.learned(learn_inputs(pipeline_dir[1], tmp_path / "ws"), "linear")
        assert batches == ([self.RUNS, self.RUNS] if shared else [])

    def test_unconverged_solves_of_a_worker_run_reach_this_log(self, pipeline_dir, tmp_path,
                                                               monkeypatch, caplog):
        parent, calls = os.getpid(), []
        original = learning._smo

        def one_unconverged_in_a_worker(*args, **kwargs):
            alpha, bias, converged, grad = original(*args, **kwargs)
            if os.getpid() == parent:
                return alpha, bias, converged, grad
            calls.append(None)  # counts this worker's solves: its copy of the list
            return alpha, bias, converged and len(calls) != 3, grad

        out = learn_inputs(pipeline_dir[1], tmp_path / "ws")
        with monkeypatch.context() as mp:
            self.shared(mp, tmp_path / "marks")
            mp.setattr(learning, "_smo", one_unconverged_in_a_worker)
            with caplog.at_level(logging.WARNING, logger="seisfrag.cli"):
                learn_dir = cmd_learn(smoke_config(out, n_runs=self.RUNS))
        assert self.worker_ran(tmp_path / "marks", "learn")
        flagged = [run for run in range(self.RUNS)
                   if read_model_csv(cli._model_path(learn_dir, run))[3].get("unconverged_solves")]
        assert len(flagged) == 1  # the first run the worker took
        assert [r.getMessage() for r in caplog.records] == [
            f"learn_5_linear_r4 run {flagged[0]:02d}: 1 SMO solves stopped at the update cap"
        ]


class TestFailedCommand:
    """A command removes its summary files before its runs start, so one that
    fails leaves none of an earlier config next to its own run files."""

    CFG = dict(budget=30, n_runs=3)

    @pytest.mark.parametrize("command, summaries, merged", [
        ("learn", ("summary.csv", "baselines.csv"), ("learn.summary", "learn.baselines")),
        ("fragility", ("report.txt", "curves.csv"), ("pool.kept", "run00.")),
    ])
    def test_no_earlier_summary_after_a_failed_run(self, pipeline_dir, tmp_path, monkeypatch,
                                                   command, summaries, merged):
        out = learn_inputs(pipeline_dir[1], tmp_path / "ws")
        cmd_learn(smoke_config(out, **self.CFG, cost=10))
        cmd_fragility(smoke_config(out, **self.CFG, cost=10))
        run_task = getattr(cli, f"_{command}_run")

        def failing(*args):
            if args[-1] == 2:
                raise RuntimeError("run 02 failed")
            return run_task(*args)

        monkeypatch.setattr(cli, f"_{command}_run", failing)
        # learn under another cost; fragility under the cost its models have
        cfg = smoke_config(out, **self.CFG, cost=5 if command == "learn" else 10)
        with pytest.raises(RuntimeError, match="^run 02 failed$"):
            getattr(cli, f"cmd_{command}")(cfg)
        target = out / f"{command}_5_linear_r4"
        assert (target / "model_run00.csv" if command == "learn" else target).exists()
        assert not [name for name in summaries if (target / name).exists()]
        report = cmd_report(cfg).read_text().splitlines()
        assert not [line for line in report if line.startswith(merged)]


class TestBlasThreads:
    """learn and fragility write the same bytes under one BLAS thread and two.

    The pool has the benchmark desk's shape (125 kept, budget 100), whose
    kept x budget is above OpenBLAS's generic threading threshold for a
    matrix-vector product (2304 x 4 elements). Builds set their own: the
    scipy-openblas 0.3.31 build threads one only from about 460 800 elements,
    and there RBF scores moved with the thread count on the 5000-signal
    acceptance workspace but not on any pool of test size."""

    DESK = dict(seed=42, pool_size=400, budget=100, n_runs=2, n_bins=20)

    def test_one_and_two_blas_threads_give_the_same_bytes(self, tmp_path):
        base = tmp_path / "base"
        cfg = smoke_config(base, **self.DESK)
        cmd_generate(cfg)
        kept = read_labels_csv(cmd_labels(cfg))[0].size
        assert kept * cfg.budget > 2304 * 4
        src = str(Path(cli.__file__).parents[1])
        files = {}
        for threads in ("1", "2"):
            out = learn_inputs(base, tmp_path / f"threads{threads}")
            flags = [f"--{key}={value}" for key, value in self.DESK.items()]
            commands = [[command, f"--out_dir={out}", f"--kernel={kernel}", *flags]
                        for kernel in ("linear", "rbf") for command in ("learn", "fragility")]
            code = ("import warnings; warnings.simplefilter('ignore'); "
                    "from seisfrag.cli import main\n"
                    f"for argv in {commands!r}: main(argv)")
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                p for p in [src, os.environ.get("PYTHONPATH")] if p))
            subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
            files[threads] = {**run_files(out, "linear"), **run_files(out, "rbf")}
        assert len(files["1"]) == 2 * (2 * 4 + 2 + 2)  # per kernel: 2 runs x 4 + 2, and 2
        assert files["1"] == files["2"]


class TestReportAndDeterminism:
    def test_report_merges_everything(self, pipeline_dir):
        cfg, out = pipeline_dir
        report = (out / "report.txt").read_text()
        assert "config.seed=3" in report
        assert "learn.baselines.pga" in report
        assert "pool.positive_rate=" in report

    def test_full_pipeline_rerun_identical(self, tmp_path):
        outputs = []
        for sub in ("r1", "r2"):
            cfg = smoke_config(tmp_path / sub, pool_size=220, budget=15, n_runs=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cmd_generate(cfg)
                cmd_labels(cfg)
                cmd_learn(cfg)
                cmd_fragility(cfg)
                cmd_report(cfg)
            text = (tmp_path / sub / "report.txt").read_text()
            outputs.append(
                "\n".join(l for l in text.splitlines() if not l.startswith("config.out_dir"))
            )
        assert outputs[0] == outputs[1]


class TestIdentifyCommand:
    def test_identify_writes_params(self, tmp_path):
        params = GroundMotionParams(
            ModulationParams(alpha1=1.5, alpha2=0.6, alpha3=1.2, t1=2.0, t2=7.0),
            FilterParams(omega0=2 * np.pi * 8, omega_n=2 * np.pi * 4, zeta_f=0.3),
        )
        rec_path = tmp_path / "record.csv"
        write_signal_csv(rec_path, synthesize(params, duration=22.0, rng=np.random.default_rng(5)))
        cfg = smoke_config(tmp_path / "ident")
        dest = cmd_identify(cfg, [str(rec_path)])
        text = dest.read_text().splitlines()
        assert text[0].startswith("alpha1,")
        assert len(text) == 2

    def test_unconverged_record_is_logged(self, tmp_path, monkeypatch, caplog):
        params = GroundMotionParams(
            ModulationParams(alpha1=1.5, alpha2=0.6, alpha3=1.2, t1=2.0, t2=7.0),
            FilterParams(omega0=2 * np.pi * 8, omega_n=2 * np.pi * 4, zeta_f=0.3),
        )
        paths = [str(tmp_path / name) for name in ("good.csv", "bad.csv")]
        for path in paths:
            write_signal_csv(path, synthesize(params, rng=np.random.default_rng(1)))
        verdicts = iter([True, False])
        monkeypatch.setattr(cli, "identify", lambda record, config: IdentificationResult(
            params=params, converged=next(verdicts)))
        with caplog.at_level(logging.WARNING, logger="seisfrag.cli"):
            dest = cmd_identify(smoke_config(tmp_path / "ident"), paths)
        assert len(dest.read_text().splitlines()) == 3
        assert [r.getMessage() for r in caplog.records] == [
            f"{paths[1]}: identification did not converge"
        ]


class TestMainEntry:
    def test_main_generate(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            rc = main([
                "generate", "--pool_size", "10",
                "--out_dir", str(tmp_path / "cli"), "--seed", "1",
            ])
        assert rc == 0
        assert (tmp_path / "cli" / "features_5.csv").exists()
        assert len(list((tmp_path / "cli" / "signals").glob("*.bin"))) == 10

    @pytest.mark.parametrize("flag", ["--batch_size", "--gamma"])
    def test_removed_flags_refused(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit):
            main(["generate", flag, "5", "--out_dir", str(tmp_path / "cli")])
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
        assert not (tmp_path / "cli").exists()
