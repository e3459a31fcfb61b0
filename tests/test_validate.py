"""Shape and plumbing of the closed-form-vs-Monte-Carlo check suite.

The statistical checks themselves are exercised at full sample budget by
the acceptance tests; here we only pin the suite's structure and the two
checks that are deterministic given their seed.
"""
import numpy as np
import pytest

from paretoloc import validate
from paretoloc.validate import (
    ALL_CHECKS,
    CheckResult,
    check_noise_cov_inverse,
    check_optimal_beta,
    check_ranging_bias,
    check_ranging_second_moment,
    check_recursion_identities,
    check_trig_moments,
    run_all_checks,
)

EXPECTED_NAMES = [
    "noise-cov-inverse",
    "ranging-bias",
    "ranging-second-moment",
    "dr-moments",
    "optimal-beta",
    "trig-moments",
    "fisher-blocks",
    "ratio-bounds",
    "gershgorin-ordering",
    "recursion-identities",
]


def test_suite_runs_and_reports_each_check():
    results = run_all_checks(scale=0.02, verbose=False)
    assert [r.name for r in results] == EXPECTED_NAMES
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.detail
        assert isinstance(r.data, dict) and r.data
    assert len(ALL_CHECKS) == len(EXPECTED_NAMES)


def test_verbose_mode_prints_one_line_per_check(capsys):
    run_all_checks(scale=0.02, verbose=True)
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    # one line per check plus the pass-count summary
    assert len(lines) == len(EXPECTED_NAMES) + 1
    for name, line in zip(EXPECTED_NAMES, lines):
        assert name in line
        assert line.startswith(("[PASS]", "[FAIL]"))
    assert "checks passed" in lines[-1]


def test_algebraic_checks_pass_at_any_scale():
    # these two compare closed forms against brute-force/grid evaluation
    # of the same deterministic objective; no sampling tolerance involved
    assert check_optimal_beta(scale=0.02).passed
    assert check_recursion_identities(scale=0.02).passed


def test_check_result_fields():
    r = check_recursion_identities()
    assert r.name == "recursion-identities"
    assert r.passed is True
    assert "fixed point" in r.detail
    assert r.data["riccati_gap"] <= 1e-9


def _perturb_ranging_layer(monkeypatch, bias_shift=0.0, corr_scale=1.0, corr_shift=0.0):
    runtime = validate.ranging_layer

    def perturbed(*args):
        fix, bias, corr = runtime(*args)
        return fix, bias + bias_shift, corr * corr_scale + corr_shift

    monkeypatch.setattr(validate, "ranging_layer", perturbed)


def test_ranging_bias_check_reads_the_runtime_moment_path(monkeypatch):
    # 1e-2 m on each axis is about 1.6 of the check's 3-SE gate at its
    # default budget (1e5 samples)
    assert check_ranging_bias().passed
    _perturb_ranging_layer(monkeypatch, bias_shift=1e-2)
    assert not check_ranging_bias().passed


def test_ranging_second_moment_check_reads_the_runtime_moment_path(monkeypatch):
    # the gate is 3 SE per entry of the sample mean of e e^T; a 10 % error
    # in the correlation fails it, and so does 1e-2 m^2 on every entry
    # (about 2 % of its norm here, 2.7 of the gate at the default 1e5
    # samples)
    assert check_ranging_second_moment().passed
    for perturbation in ({"corr_scale": 1.1}, {"corr_shift": 1e-2}):
        with monkeypatch.context() as patch:
            _perturb_ranging_layer(patch, **perturbation)
            assert not check_ranging_second_moment().passed, perturbation


def test_squared_range_noise_draws_the_stream_of_the_scaled_normal():
    aset, position = validate._random_geometry(np.random.default_rng(5))
    rng, old_rng = np.random.default_rng(9), np.random.default_rng(9)
    r, var, b = validate._squared_range_noise(rng, 5000, aset, position)
    w = old_rng.normal(0.0, np.sqrt(var), size=(5000, aset.m))
    old = (w[:, -1] ** 2 + 2.0 * r[-1] * w[:, -1])[:, None] - (
        w[:, :-1] ** 2 + 2.0 * r[:-1] * w[:, :-1]
    )
    assert np.array_equal(b, old)
    assert rng.bit_generator.state == old_rng.bit_generator.state
    assert np.array_equal(rng.standard_normal(4), old_rng.standard_normal(4))


def test_noise_cov_groups_stream_the_one_draw(monkeypatch):
    # the groups are drawn and reduced one at a time; concatenated, they
    # must be the one (n, M) draw, and their covariances those of its split
    aset, position = validate._random_geometry(np.random.default_rng(5))
    draw, blocks = validate._squared_range_noise, []

    def recorded(*args):
        blocks.append(draw(*args))
        return blocks[-1]

    monkeypatch.setattr(validate, "_squared_range_noise", recorded)
    rng, one_rng = np.random.default_rng(9), np.random.default_rng(9)
    _, _, cov, group_covs = validate._streamed_covariances(rng, 20000, 50, aset, position)
    _, _, b = draw(one_rng, 20000, aset, position)
    assert len(blocks) == 50
    assert np.array_equal(np.concatenate([block for _, _, block in blocks]), b)
    assert rng.bit_generator.state == one_rng.bit_generator.state
    split = np.stack([np.cov(chunk, rowvar=False) for chunk in np.split(b, 50)])
    assert np.array_equal(group_covs, split)
    np.testing.assert_allclose(cov, np.cov(b, rowvar=False), rtol=1e-12, atol=0.0)


def _full_draw_noise_cov_ratio(scale: float, seed: int = 7) -> float:
    """The noise-cov-inverse worst ratio from one (n, M) draw per geometry,
    with `np.cov` over the whole draw and over `np.split` of it."""
    rng = np.random.default_rng(seed)
    groups = 50
    n = max(int(1e6 * scale) // groups * groups, 1000)
    worst = 0.0
    for _ in range(5):
        aset, position = validate._random_geometry(rng)
        r, var, b = validate._squared_range_noise(rng, n, aset, position)
        group_covs = np.stack([np.cov(chunk, rowvar=False) for chunk in np.split(b, groups)])
        se = group_covs.std(axis=0, ddof=1) / np.sqrt(groups)
        w = validate.noise_cov_inverse(r, var)
        resid = np.abs(w @ np.cov(b, rowvar=False) - np.eye(aset.m - 1))
        worst = max(worst, float(np.max(resid / np.maximum(3.0 * np.abs(w) @ se, 1e-300))))
    return worst


@pytest.mark.parametrize("scale", [1.0, 0.02])
def test_noise_cov_inverse_ratio_is_the_full_draw_ratio(scale):
    # the pooled covariance is the full-draw one up to rounding: measured
    # 2e-13 relative at scale 1.0 and 8e-15 at 0.02
    ratio = check_noise_cov_inverse(scale).data["worst_ratio"]
    assert ratio == pytest.approx(_full_draw_noise_cov_ratio(scale), rel=1e-9, abs=0.0)


def test_noise_cov_inverse_check_rejects_a_one_percent_inverse(monkeypatch):
    # the inverse x 1.01 reads 1.78 of the 3-SE gate at the default budget
    runtime = validate.noise_cov_inverse
    monkeypatch.setattr(validate, "noise_cov_inverse", lambda r, var: 1.01 * runtime(r, var))
    assert not check_noise_cov_inverse().passed


def test_trig_moments_check_rejects_a_two_percent_heading_variance(monkeypatch):
    # sigma4^2 x 1.02 reads 1.87 of the 3-SE gate at the default budget
    runtime = validate.trig_moments

    def perturbed(v0, phi0, sigma3_sq, sigma4_sq, k):
        return runtime(v0, phi0, sigma3_sq, 1.02 * sigma4_sq, k)

    monkeypatch.setattr(validate, "trig_moments", perturbed)
    assert not check_trig_moments().passed
