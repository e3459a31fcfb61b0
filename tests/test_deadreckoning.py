"""Dead-reckoning displacement moments against numerical integration."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import hermite_e
from numpy.testing import assert_allclose
from scipy import integrate

from paretoloc.crlb import trig_moments
from paretoloc.deadreckoning import (
    HeadingMoments,
    MeasurementFrame,
    dr_first_moment,
    dr_predict,
    dr_second_moment,
    measurement_frames,
)
from paretoloc.models import SensorNoiseModel
from paretoloc.simulate import Scene


def _gauss(x, sigma):
    return math.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))


def _quad_first(v, phi, sigma_phi, trig):
    # E{V cos(phi + n)}: speed noise is zero-mean so only the heading
    # integral survives
    val, _ = integrate.quad(
        lambda x: trig(phi + x) * _gauss(x, sigma_phi), -12 * sigma_phi, 12 * sigma_phi
    )
    return v * val


def _quad_second(v, sigma_v, phi, sigma_phi, trig):
    val, _ = integrate.quad(
        lambda x: trig(phi + x) ** 2 * _gauss(x, sigma_phi),
        -12 * sigma_phi,
        12 * sigma_phi,
    )
    return (v**2 + sigma_v**2) * val


GRID = [
    (0.1, 0.05, 0.0, math.pi / 8.0),
    (0.5, 0.05, 0.7, math.pi / 8.0),
    (1.0, 0.2, 2.5, 0.6),
    (0.0, 0.05, 1.1, 1.0),
]


@pytest.mark.parametrize("v,sigma_v,phi,sigma_phi", GRID)
def test_first_moment_matches_integral(v, sigma_v, phi, sigma_phi):
    assert dr_first_moment(v, phi, sigma_phi, axis=0) == pytest.approx(
        _quad_first(v, phi, sigma_phi, math.cos), abs=1e-10
    )
    assert dr_first_moment(v, phi, sigma_phi, axis=1) == pytest.approx(
        _quad_first(v, phi, sigma_phi, math.sin), abs=1e-10
    )


@pytest.mark.parametrize("v,sigma_v,phi,sigma_phi", GRID)
def test_second_moment_matches_integral(v, sigma_v, phi, sigma_phi):
    assert dr_second_moment(v, sigma_v, phi, sigma_phi, axis=0) == pytest.approx(
        _quad_second(v, sigma_v, phi, sigma_phi, math.cos), abs=1e-10
    )
    assert dr_second_moment(v, sigma_v, phi, sigma_phi, axis=1) == pytest.approx(
        _quad_second(v, sigma_v, phi, sigma_phi, math.sin), abs=1e-10
    )


def test_speed_power_variant_drops_deterministic_part():
    # the variant the dr-moments check must reject is the second moment at
    # zero speed: it keeps only sigma_v^2 in the prefactor, so it undershoots
    # by exactly v^2 * (angular factor) -- measurably wrong off v = 0
    v, sigma_v, phi, sigma_phi = 0.5, 0.05, 0.7, math.pi / 8.0
    full = dr_second_moment(v, sigma_v, phi, sigma_phi, axis=0)
    variant = dr_second_moment(0.0, sigma_v, phi, sigma_phi, axis=0)
    angular = full / (v**2 + sigma_v**2)
    assert full - variant == pytest.approx(v**2 * angular, rel=1e-12)
    assert variant == pytest.approx(sigma_v**2 * angular, rel=1e-14)
    assert abs(full - _quad_second(v, sigma_v, phi, sigma_phi, math.cos)) < 1e-10
    assert abs(variant - _quad_second(v, sigma_v, phi, sigma_phi, math.cos)) > 0.05


def _gauss_hermite_heading_moments(phi0, var, nodes=80):
    """E{cos}, E{sin}, E{cos^2}, E{sin^2} and E{sin cos} of phi ~ N(phi0, var)
    by Gauss-Hermite quadrature in the standard normal weight."""
    x, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    phi = phi0 + math.sqrt(var) * x
    c, s = np.cos(phi), np.sin(phi)
    return np.array([w @ c, w @ s, w @ (c * c), w @ (s * s), w @ (s * c)])


@pytest.mark.parametrize("var", [0.0, 1e-8, 1e-3, 0.25, 2.0, 9.0])
@pytest.mark.parametrize("phi0", [0.0, 0.7, -2.5, math.pi / 2.0, 4.0])
def test_heading_moments_match_gauss_hermite_quadrature(phi0, var):
    m = HeadingMoments(phi0, var)
    got = np.array([m.e_cos, m.e_sin, m.e_cos_sq, m.e_sin_sq, m.e_sin_cos], dtype=float)
    assert_allclose(got, _gauss_hermite_heading_moments(phi0, var), rtol=0.0, atol=1e-14)
    assert m.attenuation == pytest.approx(math.exp(-0.5 * var), rel=1e-15)


def test_heading_moments_of_an_array_are_the_elementwise_moments():
    # the batched fusion's call: headings (R, 1) against the axes (2,)
    phi = np.array([[0.3], [-2.0], [5.5]])
    m = HeadingMoments(phi, 0.04)
    squares = m.e_square(np.arange(2))
    for row, phi0 in enumerate(phi[:, 0]):
        scalar = HeadingMoments(float(phi0), 0.04)
        assert squares[row, 0] == scalar.e_cos_sq and squares[row, 1] == scalar.e_sin_sq
        assert m.e_cos[row, 0] == scalar.e_cos and m.e_sin_cos[row, 0] == scalar.e_sin_cos


@pytest.mark.parametrize("k", [1, 2, 30, 300])
def test_trig_moments_are_the_heading_moments_of_the_walk(k):
    # phi_k ~ N(phi0, (k - 1) s4): the bound reads the shared moments; its
    # second harmonic is spelled exp(-var / 2)^4, within rounding of exp(-2 var)
    tm = trig_moments(0.4, 1.1, 1e-4, 2.5e-3, k)
    walk = HeadingMoments(1.1, (k - 1) * 2.5e-3)
    assert tm.e_cos == walk.e_cos and tm.e_sin == walk.e_sin
    for name in ("e_cos_sq", "e_sin_sq", "e_sin_cos"):
        assert getattr(tm, name) == pytest.approx(getattr(walk, name), rel=1e-14, abs=0.0)


@given(
    v=st.floats(0.0, 2.0),
    phi=st.floats(-math.pi, math.pi),
    sigma_v=st.floats(0.0, 0.5),
    sigma_phi=st.floats(0.0, 1.5),
)
def test_per_axis_variance_nonnegative(v, phi, sigma_v, sigma_phi):
    for axis in (0, 1):
        first = dr_first_moment(v, phi, sigma_phi, axis)
        assert dr_second_moment(v, sigma_v, phi, sigma_phi, axis) - first**2 >= -1e-12


@given(phi=st.floats(-math.pi, math.pi))
def test_axes_are_quarter_turn_apart(phi):
    # the sine-axis moments are the cosine-axis moments at phi - pi/2
    v, sigma_v, sigma_phi = 0.7, 0.1, 0.4
    assert dr_first_moment(v, phi, sigma_phi, axis=1) == pytest.approx(
        dr_first_moment(v, phi - math.pi / 2.0, sigma_phi, axis=0), abs=1e-12
    )
    assert dr_second_moment(v, sigma_v, phi, sigma_phi, axis=1) == pytest.approx(
        dr_second_moment(v, sigma_v, phi - math.pi / 2.0, sigma_phi, axis=0), abs=1e-12
    )


def test_second_moments_sum_to_speed_power():
    # cos^2 + sin^2 = 1 must survive the expectation
    v, sigma_v, phi, sigma_phi = 0.8, 0.1, 1.2, 0.5
    second_cos = dr_second_moment(v, sigma_v, phi, sigma_phi, axis=0)
    second_sin = dr_second_moment(v, sigma_v, phi, sigma_phi, axis=1)
    assert second_cos + second_sin == pytest.approx(v**2 + sigma_v**2, rel=1e-12)


def test_dr_predict_displacement():
    terms = MeasurementFrame.of(Scene(T=0.5), np.zeros((1, 1, 4)), [[2.0]], [[math.pi / 2.0]])
    (frame,) = measurement_frames(terms)
    out = dr_predict([1.0, 1.0], frame)[0]
    assert_allclose(out, [1.0, 2.0], atol=1e-12)


def _per_step_input_terms(speed, heading, T, sensor_model):
    """Displacement and input covariance of one step's rows (R,), with
    the arithmetic the filters' predict step used at every step before
    frames carried them (the oracle of `input_terms`)."""
    c, s = np.cos(heading), np.sin(heading)
    displacement = (T * speed)[..., None] * np.stack([c, s], axis=-1)
    b = np.empty(speed.shape + (2, 2))
    b[..., 0, 0] = T * c
    b[..., 0, 1] = -T * speed * s
    b[..., 1, 0] = T * s
    b[..., 1, 1] = T * speed * c
    noise = np.array([sensor_model.sigma_v**2, sensor_model.sigma_phi**2])
    return displacement, (b * noise) @ b.swapaxes(-1, -2)


def _measurements(rows, steps=23, anchors=8, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.0, 5.0, (steps, rows, anchors)),
        rng.uniform(0.0, 1.0, (steps, rows)),
        rng.uniform(-math.pi, math.pi, (steps, rows)),
    )


@pytest.mark.parametrize("rows", [1, 7])
def test_frames_carry_the_per_step_displacement_and_input_covariance(rows):
    ranges, speed, heading = _measurements(rows)
    scene = Scene(T=0.3, sensor_model=SensorNoiseModel(sigma_v=0.07, sigma_phi=0.4))
    frames = list(measurement_frames(MeasurementFrame.of(scene, ranges, speed, heading)))
    assert [frame.k for frame in frames] == list(range(len(speed)))
    for k, frame in enumerate(frames):
        displacement, q = _per_step_input_terms(speed[k], heading[k], scene.T, scene.sensor_model)
        np.testing.assert_array_equal(frame.displacement, displacement)
        np.testing.assert_array_equal(frame.input_cov, q)
        np.testing.assert_array_equal(frame.ranges, ranges[k])
        np.testing.assert_array_equal(frame.speed, speed[k])
        np.testing.assert_array_equal(frame.heading, heading[k])
        assert np.shares_memory(frame.ranges, ranges) and np.shares_memory(frame.speed, speed)
    # every frame holds a view of one displacement and one covariance array
    assert len({id(frame.displacement.base) for frame in frames}) == 1
    assert len({id(frame.input_cov.base) for frame in frames}) == 1


def test_frames_of_several_steps_stack_their_rows_step_major():
    ranges, speed, heading = _measurements(rows=3)
    scene = Scene()
    terms = MeasurementFrame.of(scene, ranges, speed, heading)
    whole = list(measurement_frames(terms))
    blocks = list(measurement_frames(terms, per_frame=5))
    assert [frame.k for frame in blocks] == [0, 5, 10, 15, 20]
    assert len(blocks[-1].speed) == 3 * 3
    for frame in blocks:
        steps = whole[frame.k : frame.k + 5]
        for field in ("ranges", "speed", "heading", "displacement", "input_cov"):
            np.testing.assert_array_equal(
                getattr(frame, field), np.concatenate([getattr(s, field) for s in steps])
            )


@pytest.mark.parametrize("per_frame", [1, 5])
def test_a_stack_of_blocks_forms_its_frame_terms_once_with_the_tiled_bits(per_frame):
    # three blocks of four runs: the frames repeat each step's four rows
    # block-major, with the bits of frames built on the rows tiled beforehand
    ranges, speed, heading = _measurements(rows=4)
    scene = Scene(T=0.3, sensor_model=SensorNoiseModel(sigma_v=0.07, sigma_phi=0.4))
    tiled = [np.concatenate((x,) * 3, axis=1) for x in (ranges, speed, heading)]
    terms = MeasurementFrame.of(scene, ranges, speed, heading)
    frames = measurement_frames(terms, per_frame, blocks=3)
    expected = measurement_frames(MeasurementFrame.of(scene, *tiled), per_frame)
    for frame, want in zip(frames, expected, strict=True):
        assert frame.k == want.k and len(frame.speed) == len(want.speed)
        for field in ("ranges", "speed", "heading", "displacement", "input_cov"):
            np.testing.assert_array_equal(getattr(frame, field), getattr(want, field))
