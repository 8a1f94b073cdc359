"""Tests for the pipeline commands and their artifacts."""

import filecmp
import logging
import multiprocessing
import os
import shutil
import time
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
from test_runner import cores, no_fork
from test_tracing import _tracing

SMOKE = dict(seed=3, pool_size=220, budget=25, n_runs=2, batch_size=100, n_bins=6)


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

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("polsize=100\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file), {})

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(preset="7")
        with pytest.raises(ValueError):
            RunConfig(kernel="poly")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.warns(UserWarning):
                RunConfig(pool_size=10)


class TestGenerate:
    def test_small_pool_produces_one_file_per_signal(self, tmp_path):
        cfg = smoke_config(tmp_path / "tiny", pool_size=10, batch_size=4)
        cmd_generate(cfg)
        assert len(list((tmp_path / "tiny" / "signals").glob("sig_*.bin"))) == 10
        ids, raw = read_features_csv(tmp_path / "tiny" / "features_5.csv")
        assert ids.size == 10
        assert raw.shape == (10, 13)

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg_a = smoke_config(tmp_path / "a", pool_size=40, batch_size=16)
        cfg_b = smoke_config(tmp_path / "b", pool_size=40, batch_size=16)
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
        cfg = smoke_config(tmp_path / "ckpt", pool_size=40, batch_size=10)
        reference = cmd_generate(cfg).read_text()
        # wipe the last two batches and one of their signals, then resume
        for b in (2, 3):
            (tmp_path / "ckpt" / f"features_5_part{b:04d}.csv").unlink()
        (tmp_path / "ckpt" / "signals" / "sig_00031.bin").unlink()
        resumed = cmd_generate(cfg).read_text()
        assert resumed == reference
        assert (tmp_path / "ckpt" / "signals" / "sig_00031.bin").exists()

    def test_batch_size_does_not_change_output(self, tmp_path):
        cfg_a = smoke_config(tmp_path / "ba", pool_size=30, batch_size=7)
        cfg_b = smoke_config(tmp_path / "bb", pool_size=30, batch_size=30)
        a = cmd_generate(cfg_a).read_text()
        b = cmd_generate(cfg_b).read_text()
        assert a == b

    def test_other_pool_keys_refused(self, tmp_path):
        out = tmp_path / "stale"
        pool = dict(pool_size=20, seed=1, batch_size=100)
        first = cmd_generate(smoke_config(out, **pool)).read_text()
        for key, value in (("seed", 2), ("pool_size", 24), ("batch_size", 7)):
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
        cfg = smoke_config(out, pool_size=12, batch_size=5)
        first = cmd_generate(cfg).read_text()
        signals = {p.name: p.read_bytes() for p in (out / "signals").iterdir()}
        # its own pool serves another preset, reusing the signal files
        cmd_generate(smoke_config(out, pool_size=12, batch_size=5, preset="2.5"))
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
            cmd_generate(smoke_config(out, pool_size=12, batch_size=5, preset="10"))
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
        (out / "config.txt").write_text("seed=3\npool_size=12\nbatch_size=5\n")
        cmd_generate(smoke_config(out, pool_size=12, batch_size=5))
        assert f"# synthesis_version={SYNTHESIS_VERSION}" in (out / "config.txt").read_text()


class TestSharedGenerate:
    """`generate` shares each batch's signals over the cores, byte for byte."""

    POOL = dict(pool_size=12, batch_size=5)  # two full batches and a short one

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

    @staticmethod
    def two_cores(mp, marks):
        """Two cores, with this process slowed so that a worker takes a share
        of every batch; each process that runs a task leaves a file in marks."""
        parent, row = os.getpid(), cli._feature_row

        def marked(*args):
            (marks / f"pid_{os.getpid()}").touch()
            if os.getpid() == parent:
                time.sleep(0.05)
            return row(*args)

        cores(mp, 2)
        mp.setattr(cli, "_feature_row", marked)

    def test_two_cores_and_one_core_give_the_same_bytes(self, tmp_path, monkeypatch):
        with monkeypatch.context() as mp:
            self.two_cores(mp, tmp_path)
            shared = self.generated(tmp_path / "shared")
        assert len(list(tmp_path.glob("pid_*"))) > 1  # this process and a worker
        alone = self.one_core(tmp_path / "alone", monkeypatch)
        assert shared.keys() == alone.keys()
        assert len([name for name in alone if name.startswith("signals/sig_")]) == 12
        assert {f"features_{p}_part{b:04d}.csv" for p in ("5", "10") for b in range(3)} < alone.keys()
        assert shared == alone

    def test_error_in_a_worker_leaves_no_part_and_no_partial_file(self, tmp_path, monkeypatch):
        """The worker fails synthesizing a signal of the second batch: that
        batch and the rest get no part file, and a rerun completes the pool."""
        parent = os.getpid()
        late = {stream_seed(SMOKE["seed"], "signal", i) for i in range(5, 12)}

        def cut(params, dt, rng):
            if os.getpid() != parent and rng.bit_generator.seed_seq.entropy in late:
                raise RuntimeError("synthesis cut short")
            return synthesize(params, dt=dt, rng=rng)

        out = tmp_path / "cut"
        with monkeypatch.context() as mp:
            self.two_cores(mp, tmp_path)
            mp.setattr(cli, "synthesize", cut)
            with pytest.raises(RuntimeError, match="^synthesis cut short$"):
                cmd_generate(smoke_config(out, **self.POOL))
        assert not multiprocessing.active_children()
        assert sorted(p.name for p in out.glob("features_*")) == ["features_5_part0000.csv"]
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
        _, out = pipeline_dir
        batched, scalar = tmp_path / "batched", tmp_path / "scalar"
        shutil.copytree(out, batched)
        shutil.copytree(out, scalar)
        calls = []

        def one_by_one(signals, structure):
            calls.append(len(signals))
            peaks = [np.max(np.abs(reference_solve(s, structure).samples)) for s in signals]
            return NonlinearPeaks(samples=np.array(peaks), dt=np.zeros(len(signals)))

        cmd_labels(smoke_config(batched, batch_size=7))
        monkeypatch.setattr(cli, "solve_nonlinear", one_by_one)
        cmd_labels(smoke_config(scalar, batch_size=7))
        kept = read_labels_csv(out / "labels_5.csv")[0].size
        assert kept > 3 * 7 and kept % 7 and calls == [7] * (kept // 7) + [kept % 7]
        reference = (scalar / "labels_5.csv").read_bytes()
        assert (batched / "labels_5.csv").read_bytes() == reference
        assert (out / "labels_5.csv").read_bytes() == reference  # batches of 100

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
        # BLAS scores depend on the layout: the matrix is laid out as apply's
        assert pool.features.flags.c_contiguous == fitted.flags.c_contiguous
        assert pool.features.flags.f_contiguous == fitted.flags.f_contiguous
        labels_file = read_labels_csv(out / "labels_5.csv", ("label", "pga", "lin_disp"))
        for stored, column in zip((pool.labels, pool.raw_pga, pool.raw_lin_disp), labels_file):
            assert np.array_equal(stored, column)

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
                "generate", "--pool_size", "10", "--batch_size", "5",
                "--out_dir", str(tmp_path / "cli"), "--seed", "1",
            ])
        assert rc == 0
        assert (tmp_path / "cli" / "features_5.csv").exists()
        assert len(list((tmp_path / "cli" / "signals").glob("*.bin"))) == 10
