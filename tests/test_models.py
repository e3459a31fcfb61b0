"""Domain types, noise models, and measurement synthesis."""
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from paretoloc.models import (
    DEFAULT_ANCHORS,
    MAX_REACH,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    anchor_directions,
    anchor_planes,
    cv_transition,
    draw_measurements,
    floored_ranges,
    inverse_2x2,
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


def _summed_ranges(position, anchors):
    """Ranges as a sum over the coordinate axis of the squared gaps."""
    diff = anchors.positions - np.asarray(position, dtype=float)[..., None, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _layouts():
    """Stacks of positions in the memory orders the callers pass: C order,
    Fortran order, the coordinate axis slowest (the UKF's sigma points),
    and a strided view."""
    rng = np.random.default_rng(8)
    yield rng.normal(2.0, 3.0, 2)
    for shape in ((1, 2), (4, 2), (1000, 2), (4, 5, 2), (25, 40, 2)):
        p = rng.normal(2.0, 3.0, shape)
        yield p
        yield np.asfortranarray(p)
        yield np.moveaxis(np.ascontiguousarray(np.moveaxis(p, -1, 0)), 0, -1)
        yield p[::2]


@pytest.mark.parametrize("position", list(_layouts()), ids=lambda p: f"{p.shape}-{p.strides}")
def test_true_ranges_are_the_summed_ranges_in_their_memory_order(position):
    # the two squared gaps are added without a reduction; the bits and the
    # layout are the sum's, since later products (the UKF's) round by
    # the layout they read: a C-ordered result moved UKF errors by 7e-16
    anchors = AnchorSet(np.random.default_rng(9).uniform(-5.0, 5.0, (8, 2)))
    got, want = true_ranges(position, anchors), _summed_ranges(position, anchors)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


@pytest.mark.parametrize("position", list(_layouts()), ids=lambda p: f"{p.shape}-{p.strides}")
def test_anchor_planes_are_the_anchor_directions_split_by_coordinate(position):
    # the bracket's anchor-major (M, ...) planes carry the bits of the
    # filters' (..., M, 2) unit vectors and of the floored ranges, also at
    # a position on an anchor, and each anchor's plane is contiguous
    anchors = AnchorSet(np.random.default_rng(9).uniform(-5.0, 5.0, (8, 2)))
    if position.ndim == 2:
        position = position.copy()
        position[0] = anchors.positions[3]
    r, ux, uy = anchor_planes(position, anchors)
    want_r, u = anchor_directions(position, anchors)
    assert np.array_equal(r, np.moveaxis(want_r, -1, 0))
    assert np.array_equal(r, np.moveaxis(floored_ranges(position, anchors), -1, 0))
    assert np.array_equal(ux, np.moveaxis(u[..., 0], -1, 0))
    assert np.array_equal(uy, np.moveaxis(u[..., 1], -1, 0))
    assert r.shape == ux.shape == uy.shape == (8, *position.shape[:-1])
    if position.ndim <= 2:  # the bracket's ensembles (N, 2)
        assert r.flags.c_contiguous and ux.flags.c_contiguous and uy.flags.c_contiguous


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


@pytest.mark.parametrize("field", ["sigma_v", "sigma_phi"])
def test_sensor_noise_refuses_a_deviation_whose_square_overflows(field):
    # dead reckoning's input covariance reads sigma^2, which overflowed
    largest = math.sqrt(sys.float_info.max)  # its square is a double
    assert SensorNoiseModel(**{field: largest})
    for value in (math.nextafter(largest, math.inf), 1e300):
        with pytest.raises(ValueError, match=f"{field} must have a finite square, got "):
            SensorNoiseModel(**{field: value})


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_anchor_set_bounds_its_coordinates_and_compares_them_exactly():
    # up to MAX_REACH a squared norm and a difference of two fit in a
    # double; past it the distinctness check's norms overflowed at 1e300
    # (a numpy warning) and the collinearity check's differences at 1e308
    square = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    assert AnchorSet(MAX_REACH * square).m == 4
    for scale in (np.nextafter(MAX_REACH, math.inf), 1e300, 1e308):
        with pytest.raises(ValueError, match=r"anchor coordinates must be within \+/-3.35e\+153 m"):
            AnchorSet(scale * square)
    # the smallest gap is a gap, and -0.0 is 0.0
    tiny = np.array([[0.0, 0.0], [5e-324, 0.0], [0.0, 4.0], [4.0, 4.0]])
    assert AnchorSet(tiny).m == 4
    tiny[1] = [-0.0, 0.0]
    with pytest.raises(ValueError, match="anchors must be pairwise distinct"):
        AnchorSet(tiny)


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


_ENTRIES = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def _assert_inverse_matches_lapack(a):
    # both inverses are backward stable, so they differ by at most a few
    # ulps times the condition number, relative to the inverse's size
    got, ref = inverse_2x2(a), np.linalg.inv(a)
    cond = np.linalg.cond(a)[..., None, None]
    scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(got - ref) <= 16.0 * np.finfo(float).eps * cond * scale)


@given(
    arrays(float, st.tuples(st.integers(1, 6), st.just(2), st.just(2)), elements=_ENTRIES),
    st.floats(1e-6, 1e3),
)
def test_inverse_2x2_matches_lapack_on_spd_stacks(factor, ridge):
    _assert_inverse_matches_lapack(factor @ factor.mT + ridge * np.eye(2))


@given(
    arrays(float, (4, 2), elements=st.floats(0.1, 1e3)),
    st.floats(1e-12, 1e-6),
)
def test_inverse_2x2_matches_lapack_near_singularity(vectors, gap):
    # u v^T is singular; a relative gap on the diagonal makes it invertible
    # with a condition number up to about 1e12
    u, v = vectors[:2], vectors[2:]
    rank_one = np.einsum("ki,kj->kij", u.T, v.T)
    near = rank_one + gap * np.abs(rank_one).max(axis=(-2, -1), keepdims=True) * np.eye(2)
    _assert_inverse_matches_lapack(near)


@given(
    arrays(float, (3, 2, 2), elements=st.floats(0.5, 2.0)),
    st.integers(0, 2),
    st.sampled_from([0.0, 0.5, 2.0, -4.0]),
)
def test_inverse_2x2_refuses_a_stack_with_a_singular_member(stack, member, power_of_two):
    # a second row that is a power of two times the first makes the
    # determinant exactly zero: the whole stack fails with the error
    # np.linalg.inv raises on a singular matrix, and prints no warning
    stack[member, 1] = power_of_two * stack[member, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            inverse_2x2(stack)
        with pytest.raises(np.linalg.LinAlgError):
            inverse_2x2(np.where(np.eye(2, dtype=bool), np.nan, stack))
