"""Domain types, noise models, and measurement synthesis."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from paretoloc.models import (
    DEFAULT_ANCHORS,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    cv_transition,
    draw_measurements,
    range_variance,
    true_ranges,
)
from paretoloc.simulate import Scene


def test_anchor_set_shape_and_count():
    a = AnchorSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert a.m == 4
    with pytest.raises(ValueError):
        AnchorSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))  # too few
    with pytest.raises(ValueError):
        AnchorSet(np.zeros((4, 3)))  # not planar


def test_anchor_set_rejects_degenerate():
    with pytest.raises(ValueError):
        AnchorSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(ValueError):
        AnchorSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_default_anchors_surround_cell():
    pos = DEFAULT_ANCHORS.positions
    assert DEFAULT_ANCHORS.m == 8
    assert pos.min() == 0.0 and pos.max() == 4.0


def test_range_noise_model_validation():
    with pytest.raises(ValueError):
        RangeNoiseModel(sigma0_sq=0.0)
    with pytest.raises(ValueError):
        RangeNoiseModel(kappa=-0.1)


def test_range_variance_values():
    model = RangeNoiseModel(sigma0_sq=0.0625, kappa=0.25)
    assert range_variance(0.0, model) == pytest.approx(0.0625)
    # hand value: 0.0625 * e^{0.25 * 4}
    assert range_variance(4.0, model) == pytest.approx(0.0625 * math.e)
    out = range_variance([0.0, 4.0], model)
    assert out.shape == (2,)
    with pytest.raises(ValueError):
        range_variance(-1.0, model)


@given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
def test_range_variance_monotone(r1, r2):
    model = RangeNoiseModel(sigma0_sq=0.04, kappa=0.3)
    lo, hi = sorted((r1, r2))
    assert range_variance(lo, model) <= range_variance(hi, model)


def test_true_ranges_hand_geometry():
    anchors = AnchorSet(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0], [3.0, 4.0]]))
    r = true_ranges([0.0, 0.0], anchors)
    assert_allclose(r, [0.0, 3.0, 4.0, 5.0], atol=1e-12)


def test_cv_process_model_matrices():
    cv = CvProcessModel(sigma1_sq=1.0, sigma2_sq=2.0, sigma3_sq=3.0, sigma4_sq=4.0)
    assert_allclose(cv.q_matrix(), np.diag([1.0, 2.0, 3.0, 4.0]))
    out = cv_transition(np.array([1.0, 2.0, 2.0, math.pi / 2.0]), 0.5)
    assert_allclose(out, [1.0, 3.0, 2.0, math.pi / 2.0], atol=1e-12)
    # the model holds its noise variances only; the step period is the scene's
    assert [f.name for f in dataclasses.fields(CvProcessModel)] == [
        "sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"
    ]
    with pytest.raises(ValueError):
        CvProcessModel(sigma3_sq=-1.0)


@pytest.mark.parametrize(
    "model, field",
    [
        (RangeNoiseModel, "sigma0_sq"),
        (RangeNoiseModel, "kappa"),
        (SensorNoiseModel, "sigma_v"),
        (SensorNoiseModel, "sigma_phi"),
        (Scene, "T"),
        (CvProcessModel, "sigma1_sq"),
        (CvProcessModel, "sigma4_sq"),
    ],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_noise_models_reject_non_finite_settings(model, field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        model(**{field: value})


def test_anchor_set_rejects_non_finite_coordinates():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for value in (math.nan, math.inf):
        positions[2, 1] = value
        with pytest.raises(ValueError, match="anchor positions must be finite"):
            AnchorSet(positions)


def test_sensor_streams_reproducible_and_independent():
    a = SensorStreams.from_seed(42)
    b = SensorStreams.from_seed(42)
    assert a.ranges.normal() == b.ranges.normal()
    # distinct substreams: the ranges stream does not mirror the speed stream
    c = SensorStreams.from_seed(42)
    assert c.ranges.normal() != c.speed.normal()


def test_draw_measurements_statistics():
    # noise levels recovered from a long draw at one fixed state
    anchors = AnchorSet(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]]))
    range_model = RangeNoiseModel(sigma0_sq=0.04, kappa=0.2)
    sensor_model = SensorNoiseModel(sigma_v=0.05, sigma_phi=0.3)
    position, speed, heading = np.array([1.0, 2.0]), 0.4, 0.9
    n = 20000
    ranges, speeds, headings = draw_measurements(
        np.tile(position, (n, 1)), np.full(n, speed), np.full(n, heading),
        anchors, range_model, sensor_model, SensorStreams.from_seed(7),
    )
    assert ranges.shape == (n, anchors.m) and speeds.shape == headings.shape == (n,)
    r_true = true_ranges(position, anchors)
    sig_true = np.sqrt(range_variance(r_true, range_model))
    # 5 sigma on the mean, ~4% on the std at n = 2e4
    assert np.all(np.abs(ranges.mean(axis=0) - r_true) < 5.0 * sig_true / math.sqrt(n))
    assert_allclose(ranges.std(axis=0, ddof=1), sig_true, rtol=0.05)
    assert speeds.mean() == pytest.approx(speed, abs=5.0 * 0.05 / math.sqrt(n))
    assert speeds.std(ddof=1) == pytest.approx(0.05, rel=0.05)
    assert headings.std(ddof=1) == pytest.approx(0.3, rel=0.05)


def test_draw_measurements_deterministic():
    positions = np.array([[1.0, 1.0], [1.2, 0.9], [1.5, 1.1], [1.7, 1.6], [2.0, 2.0]])
    speeds, headings = np.full(5, 0.1), np.linspace(0.0, 1.0, 5)
    models = (DEFAULT_ANCHORS, RangeNoiseModel(), SensorNoiseModel())
    first = draw_measurements(positions, speeds, headings, *models, SensorStreams.from_seed(3))
    again = draw_measurements(positions, speeds, headings, *models, SensorStreams.from_seed(3))
    # each sensor reads its own stream in step order: one state per call
    # draws the same numbers as all states in one call
    streams = SensorStreams.from_seed(3)
    per_state = [
        draw_measurements(positions[k : k + 1], speeds[k : k + 1], headings[k : k + 1], *models, streams)
        for k in range(5)
    ]
    for i, part in enumerate(first):
        np.testing.assert_array_equal(part, again[i])
        np.testing.assert_array_equal(part, np.concatenate([one[i] for one in per_state]))
