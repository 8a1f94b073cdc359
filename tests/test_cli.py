"""Tests for the pipeline commands and their artifacts."""

import filecmp
import logging
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

from seisfrag import cli, fragility, learning
from seisfrag.cli import (
    RunConfig,
    _build_pool,
    _load_final_model,
    _read_transformed,
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
from seisfrag.table import read_table

# an overflow or an invalid value in a pipeline stage is a bug, not noise
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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

    def test_empty_out_dir_with_an_old_config_accepted(self, tmp_path):
        out = tmp_path / "pool"
        out.mkdir()
        (out / "config.txt").write_text("seed=3\npool_size=12\nbatch_size=5\n")
        cmd_generate(smoke_config(out, pool_size=12, batch_size=5))
        assert f"# synthesis_version={SYNTHESIS_VERSION}" in (out / "config.txt").read_text()


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
        pool, *_ = _build_pool(cfg, out)
        for run in range(cfg.n_runs):
            path = learn_dir / f"model_run{run:02d}.csv"
            loaded = _load_final_model(cfg, path, pool.features)
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

    @pytest.mark.parametrize("kernel, view", [("linear", "r4"), ("rbf", "r4"), ("linear", "r13")])
    def test_stored_pool_scores_like_the_learn_pool(self, pipeline_dir, kernel, view):
        cfg, out = pipeline_dir
        cfg = smoke_config(out, kernel=kernel, feature_set=view)
        learn_dir = out / f"learn_5_{kernel}_{view}"
        if not learn_dir.exists():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cmd_learn(cfg)
        pool, _, kept_ids, _ = _build_pool(cfg, out)
        stored = _read_transformed(cfg, out, kept_ids)
        assert np.array_equal(stored, pool.features)
        for run in range(cfg.n_runs):
            path = learn_dir / f"model_run{run:02d}.csv"
            learned = _load_final_model(cfg, path, pool.features).score(pool.features)
            loaded = _load_final_model(cfg, path, stored).score(stored)
            assert np.array_equal(loaded, learned)

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
