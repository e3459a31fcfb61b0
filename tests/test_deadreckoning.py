"""Dead-reckoning displacement moments against numerical integration."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate

from paretoloc.deadreckoning import (
    dr_first_moment,
    dr_predict,
    dr_second_moment,
)
from paretoloc.models import MeasurementFrame


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
    # the variant keeps only sigma_v^2 in the prefactor, so it undershoots
    # by exactly v^2 * (angular factor) -- measurably wrong off v = 0
    v, sigma_v, phi, sigma_phi = 0.5, 0.05, 0.7, math.pi / 8.0
    full = dr_second_moment(v, sigma_v, phi, sigma_phi, axis=0)
    variant = dr_second_moment(v, sigma_v, phi, sigma_phi, axis=0, speed_power_form=True)
    angular = full / (v**2 + sigma_v**2)
    assert full - variant == pytest.approx(v**2 * angular, rel=1e-12)
    assert abs(full - _quad_second(v, sigma_v, phi, sigma_phi, math.cos)) < 1e-10
    assert abs(variant - _quad_second(v, sigma_v, phi, sigma_phi, math.cos)) > 0.05
    # at v = 0 the two coincide
    assert dr_second_moment(0.0, sigma_v, phi, sigma_phi) == pytest.approx(
        dr_second_moment(0.0, sigma_v, phi, sigma_phi, speed_power_form=True)
    )


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
    frame = MeasurementFrame(
        ranges=np.zeros(4), speed=2.0, heading=math.pi / 2.0, k=3
    )
    out = dr_predict([1.0, 1.0], frame, T=0.5)
    assert_allclose(out, [1.0, 2.0], atol=1e-12)
