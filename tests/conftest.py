"""Shared fixtures: a moderate 5 Hz pool built once per session."""

import numpy as np
import pytest

from seisfrag import features as feat
from seisfrag import preprocess as prep
from seisfrag.ensemble import reference_ensemble
from seisfrag.ground_motion import highpass_correct, synthesize
from seisfrag.kde import kristan_bandwidth, sample_theta
from seisfrag.learning import Pool
from seisfrag.oscillator import PRESETS, solve_linear, solve_nonlinear
from seisfrag.rng import stream

MINI_POOL_SIZE = 1000
MINI_POOL_SEED = 11


class PoolData:
    """Raw features, kept subset, ground-truth labels, and transform model."""

    def __init__(self, raw, kept, labels, z_values, model, preset):
        self.raw = raw  # (n, 13) raw features of the whole pool
        self.kept = kept  # indices into raw
        self.labels = labels  # ground-truth labels of the kept subset
        self.z_values = z_values  # nonlinear peaks of the kept subset
        self.model = model  # fitted PreprocessModel
        self.preset = preset

    @property
    def raw_kept(self):
        return self.raw[self.kept]

    def features(self, view="r4"):
        return prep.apply(self.model, self.raw_kept)[:, feat.VIEWS[view]]

    def make_pool(self, view="r4") -> Pool:
        return Pool(
            features=self.features(view),
            labels=self.labels,
            raw_pga=self.raw_kept[:, 8],
            raw_lin_disp=self.raw_kept[:, 12],
        )


def build_pool_data(preset_name, size, seed) -> PoolData:
    cfg = PRESETS[preset_name]
    kde_model = kristan_bandwidth(reference_ensemble())
    rows, signals = [], []
    for i in range(size):
        params = sample_theta(kde_model, stream(seed, "theta", i))
        sig = highpass_correct(synthesize(params, rng=stream(seed, "signal", i)))
        lin = float(np.max(np.abs(solve_linear(sig, cfg).samples)))
        rows.append(feat.extract(sig, params.as_vector(), lin).as_array())
        signals.append(sig)
    raw = np.vstack(rows)
    kept = prep.filter_pool(raw[:, 12], cfg.yield_y)
    z_values = solve_nonlinear([signals[i] for i in kept], cfg).samples
    labels = np.where(z_values > cfg.threshold, 1, -1)
    model = prep.fit(raw[kept])
    return PoolData(raw, kept, labels, z_values, model, cfg)


@pytest.fixture(scope="session")
def mini_pool() -> PoolData:
    return build_pool_data("5", MINI_POOL_SIZE, MINI_POOL_SEED)
