"""Tests for the shipped reference ensemble."""

import numpy as np

from seisfrag.ensemble import ENSEMBLE_SIZE, make_reference_ensemble, reference_ensemble


def test_shipped_data_is_its_documented_generator():
    shipped = reference_ensemble()
    assert shipped.shape == (ENSEMBLE_SIZE, 8)
    assert np.array_equal(shipped, make_reference_ensemble())
