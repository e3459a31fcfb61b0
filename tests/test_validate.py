"""Shape and plumbing of the closed-form-vs-Monte-Carlo check suite.

The statistical checks themselves are exercised at full sample budget by
the acceptance tests; here we only pin the suite's structure and the two
checks that are deterministic given their seed.
"""
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretoloc import validate
from paretoloc.ratios import _mean_se
from paretoloc.validate import (
    ALL_CHECKS,
    CheckResult,
    check_dr_moments,
    check_gershgorin,
    check_noise_cov_inverse,
    check_optimal_beta,
    check_ranging_bias,
    check_ranging_second_moment,
    check_ratio_bounds,
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


def _perturb_ranging_layer(monkeypatch, bias_shift=0.0, cov_scale=1.0, cov_shift=0.0):
    runtime = validate.ranging_layer

    def perturbed(*args):
        fix, bias, cov = runtime(*args)
        return fix, bias + bias_shift, cov * cov_scale + cov_shift

    monkeypatch.setattr(validate, "ranging_layer", perturbed)


def test_ranging_bias_check_reads_the_runtime_moment_path(monkeypatch):
    # 1e-2 m on each axis is about 1.6 of the check's 3-SE gate at its
    # default budget (1e5 samples)
    assert check_ranging_bias().passed
    _perturb_ranging_layer(monkeypatch, bias_shift=1e-2)
    assert not check_ranging_bias().passed


def test_ranging_second_moment_check_reads_the_runtime_moment_path(monkeypatch):
    # the gate is 3 SE per entry of the sample mean of e e^T, which the
    # check forms as G^-1 + bias bias^T from the covariance G^-1; a 10 %
    # error in that covariance fails it (7.7 of the gate at the default
    # 1e5 samples), and so does 1e-2 m^2 on every entry (2.7 of the gate)
    assert check_ranging_second_moment().passed
    for perturbation in ({"cov_scale": 1.1}, {"cov_shift": 1e-2}):
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
    # the groups are drawn ahead and reduced one at a time; concatenated,
    # they must be the one (n, M) draw, and their covariances those of its
    # split
    aset, position = validate._random_geometry(np.random.default_rng(5))
    rng, one_rng = np.random.default_rng(9), np.random.default_rng(9)
    _, _, b = validate._squared_range_noise(one_rng, 20000, aset, position)
    form, blocks = validate._squared_noise, []

    def recorded(w, r):
        block = form(w, r)
        blocks.append(block.copy())  # the reduction centres it in place
        return block

    monkeypatch.setattr(validate, "_squared_noise", recorded)
    _, _, cov, group_covs = validate._streamed_covariances(rng, 20000, 50, aset, position)
    assert len(blocks) == 50
    assert np.array_equal(np.concatenate(blocks), b)
    assert rng.bit_generator.state == one_rng.bit_generator.state
    # a centred Gram product where `np.cov` copies and centres again: the
    # two round apart, by 2.2e-16 relative at most here
    split = np.stack([np.cov(chunk, rowvar=False) for chunk in np.split(b, 50)])
    assert_allclose(group_covs, split, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(cov, np.cov(b, rowvar=False), rtol=1e-12, atol=0.0)


def test_dr_moments_draw_the_stream_of_the_scaled_normals(monkeypatch):
    # at each grid point the check draws speed and heading as
    # rng.normal(v, sigma_v, n) and rng.normal(phi, sigma_phi, n), and
    # reduces v cos(phi), v sin(phi) and their squares (n = 1000 here)
    samples, made = [], []
    mean_se, default_rng = validate._mean_se, np.random.default_rng
    monkeypatch.setattr(validate, "_mean_se", lambda x: samples.append(x) or mean_se(x))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: made.append(default_rng(seed)) or made[-1])
    validate.check_dr_moments(scale=0.005)
    rng, want = default_rng(17), []
    for v in (0.0, 0.1, 0.5, 1.0):
        for sigma_phi in (0.1, math.pi / 8.0, math.pi / 4.0, 1.0):
            for phi in (0.0, 0.7, 2.5):
                speed = rng.normal(v, 0.05, size=1000)
                heading = rng.normal(phi, sigma_phi, size=1000)
                for trig in (np.cos, np.sin):
                    first = speed * trig(heading)
                    want += [first, first**2]
    assert len(samples) == len(want) == 192
    assert all(np.array_equal(got, expected) for got, expected in zip(samples, want))
    assert len(made) == 1 and made[0].bit_generator.state == rng.bit_generator.state


def _serial_draws(rng, units):
    """`_drawn_ahead` as a plain in-thread iterator: each unit's samples
    drawn with `rng.normal` when the caller asks for them."""
    for draws in units:
        yield tuple(rng.normal(loc, scale, size=shape) for loc, scale, shape in draws)


@pytest.mark.parametrize("scale", [1.0, 0.25])
@pytest.mark.parametrize(
    "check", [check_noise_cov_inverse, check_dr_moments, check_trig_moments, check_ratio_bounds],
    ids=["noise-cov-inverse", "dr-moments", "trig-moments", "ratio-bounds"],
)
def test_a_check_drawn_ahead_is_the_check_drawn_in_order(check, scale, monkeypatch):
    # the worker thread changes no bit: name, verdict, detail and data are
    # those of the same check drawing each unit in turn on one thread
    ahead = check(scale=scale)
    monkeypatch.setattr(validate, "_drawn_ahead", _serial_draws)
    assert ahead == check(scale=scale)


def test_streams_drawn_ahead_on_many_threads_are_their_serial_streams():
    # four callers, each with its own generator and worker, on two cores
    # and with a thread switch every microsecond: every stream keeps the
    # bits and the final state of its serial draw
    units = [
        ((0.5, 2.0, 1000), (-1.0, 0.1, (20, 3))),
        ((0.0, np.array([1.0, 2.0, 3.0]), (50, 3)),),
    ] * 20
    rngs = [np.random.default_rng(seed) for seed in range(4)]
    got = {}

    def consume(k):
        got[k] = list(validate._drawn_ahead(rngs[k], units))

    callers = [threading.Thread(target=consume, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    for k, rng in enumerate(rngs):
        serial = np.random.default_rng(k)
        want = list(_serial_draws(serial, units))
        assert [len(samples) for samples in got[k]] == [2, 1] * 20
        for samples, expected in zip(got[k], want):
            assert all(np.array_equal(a, b) for a, b in zip(samples, expected))
        assert rng.bit_generator.state == serial.bit_generator.state
    assert list(validate._drawn_ahead(rngs[0], [])) == []


def test_a_stream_left_early_or_failing_leaves_no_worker_running():
    # a worker never waits on the caller, and closing the stream joins the
    # one in flight: nothing is left to hold the interpreter at exit
    baseline = threading.active_count()
    units = [((0.0, 1.0, 200_000),)] * 4
    stream = validate._drawn_ahead(np.random.default_rng(3), units)
    next(stream)
    stream.close()
    assert threading.active_count() == baseline
    with pytest.raises(ZeroDivisionError):
        for _ in validate._drawn_ahead(np.random.default_rng(3), units):
            1 / 0
    assert threading.active_count() == baseline
    # an error on the worker reaches the caller
    bad = [((0.0, 1.0, 10),), ((0.0, np.ones(3), (10, 2)),), ((0.0, 1.0, 10),)]
    with pytest.raises(ValueError):
        list(validate._drawn_ahead(np.random.default_rng(3), bad))
    assert threading.active_count() == baseline


def test_a_trig_walk_closed_mid_jump_leaves_no_worker_running():
    # at each yielded step the next jump's first leaf is in flight; closing
    # the walk there, or failing in the middle of a jump, joins it
    baseline = threading.active_count()
    walk = validate._trig_moment_sums(np.random.default_rng(3), 300_001, 0.5, 0.3, 1e-4, 2.5e-3, (1, 2, 5))
    next(walk)
    walk.close()
    assert threading.active_count() == baseline
    rows, calls = validate._heading_rows, []

    def failing(phi):
        calls.append(phi.size)
        if len(calls) == 11:  # 8 leaves: step 2, the heading rows of its third
            raise FloatingPointError
        return rows(phi)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(validate, "_heading_rows", failing)
        with pytest.raises(FloatingPointError):
            list(validate._trig_moment_sums(np.random.default_rng(3), 300_001, 0.5, 0.3, 1e-4, 2.5e-3, (1, 2, 5)))
    assert threading.active_count() == baseline


def test_the_suite_peaks_no_higher_than_its_trig_moments_check():
    # the suite's largest working set is the random walk of trig-moments
    # (18.1 MB); the checks drawn ahead hold two or three units at a
    # time, and ratio-bounds' two (q, z) pairs with the series peak at
    # 15.3 MB
    peaks = []
    for run in (check_trig_moments, lambda scale: run_all_checks(scale, verbose=False)):
        tracemalloc.start()
        try:
            run(scale=1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]


def test_importing_the_suite_loads_no_thread_pool_or_logging():
    # the benchmark imports the suite in every set-up interpreter, where an
    # eager `concurrent.futures` (and with it `logging`) cost 2.8 ms
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    script = (
        "import sys, paretoloc.validate\n"
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["[]"]


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


def _whole_array_trig_ratio(seed: int, scale: float = 1.0) -> float:
    """The trig-moments worst ratio with each jump drawn as one array of n
    and each moment sample formed over the whole walk, its mean and SE from
    `_mean_se`."""
    rng = np.random.default_rng(seed)
    n = max(int(1e6 * scale), 10000)
    v0, phi0 = 0.5, math.pi / 6.0
    s3, s4 = 1e-4, 2.5e-3
    v, phi = np.full(n, v0), np.full(n, phi0)
    worst, k_prev = 0.0, 1
    for k in (1, 2, 5, 10, 20):
        if k > k_prev:
            v += rng.normal(0.0, math.sqrt((k - k_prev) * s3), size=n)
            phi += rng.normal(0.0, math.sqrt((k - k_prev) * s4), size=n)
            k_prev = k
        tm = validate.trig_moments(v0, phi0, s3, s4, k)
        cos, sin = np.cos(phi), np.sin(phi)
        for draw, closed in (
            (v, tm.e_v), (v**2, tm.e_v_sq), (cos, tm.e_cos), (sin, tm.e_sin),
            (sin * cos, tm.e_sin_cos), (cos**2, tm.e_cos_sq),
        ):
            mean, se = _mean_se(draw)
            worst = max(worst, abs(mean - closed) / (3.0 * se + 1e-12))
    return float(worst)


def _end_scaled(end, factor):
    """A mutation of `pi_bracket`'s stack: end 1 (L) or 2 (U) times `factor`."""

    def scaled(pis):
        pis[end] *= factor
        return pis

    return scaled


@pytest.mark.parametrize(
    "mutate",
    [lambda pis: pis[[0, 2, 1]], _end_scaled(2, 1.0 - 1e-3), _end_scaled(1, 1.0 + 1e-3)],
    ids=["extremes-swapped", "upper-shrunk", "lower-grown"],
)
def test_gershgorin_ordering_check_rejects_a_broken_bracket(mutate, monkeypatch):
    # swapping the ends puts U at w_min and L at w_max, which breaks both
    # orders on every ensemble whose weights spread; either end scaled by
    # 1e-3 breaks an order, and the tie, on each one-point ensemble.  The
    # recursion half runs `crlb`'s own bracket, so its 200/200 stays.
    unmutated = check_gershgorin()
    assert unmutated.passed, unmutated.detail
    bracket = validate.pi_bracket
    monkeypatch.setattr(validate, "pi_bracket", lambda scene, pos: mutate(bracket(scene, pos)))
    check = check_gershgorin()
    assert not check.passed and check.data["min_eig"] < -1e-9, check.detail
    assert check.data["sandwich_steps"] == unmutated.data["sandwich_steps"]


@pytest.mark.parametrize("seed", [23, *range(100, 110)])
def test_trig_moments_ratio_is_the_whole_array_ratio(seed):
    # the streamed means have the bits of the whole-array ones, so only the
    # pooled SE differs: measured 2.2e-16 relative at most
    ratio = check_trig_moments(seed=seed).data["worst_ratio"]
    assert ratio == pytest.approx(_whole_array_trig_ratio(seed), rel=1e-12, abs=0.0)


def test_trig_walk_is_one_draw_per_jump(monkeypatch):
    # the leaves each step reduces are the walk of one draw of n per jump,
    # and its sums are those of the whole walk
    n = 3 * validate._TRIG_BLOCK + 5
    seen = []
    for name in ("_speed_rows", "_heading_rows"):
        rows = getattr(validate, name)
        monkeypatch.setattr(validate, name, lambda x, rows=rows: seen.append(x.copy()) or rows(x))
    leaves = len(validate._trig_leaves(0, n))
    rng, one_rng = np.random.default_rng(9), np.random.default_rng(9)
    v, phi = np.full(n, 0.5), np.full(n, 0.3)
    k_prev = 1
    steps = []
    for k, total, scatter in validate._trig_moment_sums(rng, n, 0.5, 0.3, 1e-4, 2.5e-3, (1, 2, 5)):
        if k > k_prev:
            v += one_rng.normal(0.0, math.sqrt((k - k_prev) * 1e-4), size=n)
            phi += one_rng.normal(0.0, math.sqrt((k - k_prev) * 2.5e-3), size=n)
            k_prev = k
        walk_v, walk_phi = np.concatenate(seen[:leaves]), np.concatenate(seen[leaves:])
        del seen[:]
        assert np.array_equal(walk_v, v) and np.array_equal(walk_phi, phi)
        cos, sin = np.cos(phi), np.sin(phi)
        samples = [v, v**2, cos, sin, sin * cos, cos**2]
        assert np.array_equal(total, [np.sum(x) for x in samples])
        steps.append(k)
    assert steps == [1, 2, 5]
    assert rng.bit_generator.state == one_rng.bit_generator.state


@pytest.mark.parametrize("n", [1000, 2**16, 3 * 2**16 + 5, 300_001])
def test_moment_sums_are_the_whole_array_sums(n):
    rng = np.random.default_rng(n)
    v, phi = rng.normal(0.5, 0.01, n), rng.normal(0.5, 0.2, n)
    cos, sin = np.cos(phi), np.sin(phi)
    samples = [v, v**2, cos, sin, sin * cos, cos**2]
    assert np.array_equal(np.concatenate([validate._speed_rows(v), validate._heading_rows(phi)]), samples)
    leaves = validate._trig_leaves(0, n)
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    assert max(stop - start for start, stop in leaves) <= validate._TRIG_BLOCK
    per_leaf = (
        validate._leaf_sums(np.concatenate([validate._speed_rows(v[a:b]), validate._heading_rows(phi[a:b])]))
        for a, b in leaves
    )
    total, scatter = validate._pooled(n, per_leaf)
    # `np.mean` divides this sum by n
    assert np.array_equal(total, [np.sum(x) for x in samples])
    assert_allclose(scatter, [np.sum((x - x.mean()) ** 2) for x in samples], rtol=1e-12, atol=0.0)


def test_trig_moments_check_holds_no_temporary_as_long_as_the_walk():
    # v and phi take 15.3 MiB at scale 1.0; the whole-array check peaked at
    # 43.7 MiB, the streamed one at 17.3 MiB, the one drawn ahead leaf by
    # leaf at 17.7 MiB (a leaf's four heading rows and two leaf steps)
    tracemalloc.start()
    try:
        check_trig_moments(scale=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 19 * 2**20
