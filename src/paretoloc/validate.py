"""Closed-form-versus-Monte-Carlo oracle suite.

Every closed-form moment, bound, and optimiser in the package is checked
here against an independent brute-force or sampling oracle.  The checks
return structured results so the CLI can print a report and the test
suite can assert on the same code path.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .crlb import d11, d12, pcrlb_bounds, pcrlb_recursion, pi_bracket, trig_moments
from .deadreckoning import dr_first_moment, dr_second_moment
from .fusion import ParetoConfig, axis_moments, optimal_beta
from .models import (
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    cv_transition_jacobian,
    range_variance,
    true_ranges,
)
from .ranging import RangingScratch, build_geometry, noise_cov_inverse, ranging_layer
from .ratios import (
    SeriesDivergenceError,
    _fill_normal,
    _mean_se,
    diag_bounds,
    diag_expectation_mc,
    diag_expectation_series,
)
from .simulate import Scene


@dataclass(slots=True)
class CheckResult:
    """Outcome of one oracle check.

    Attributes
    ----------
    name : str
        Stable identifier of the check.
    passed : bool
    detail : str
        One-line summary of the observed-versus-tolerated discrepancy.
    data : dict
        Machine-readable extras (counts, worst ratios) for assertions.
    """

    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)


def _random_geometry(rng: np.random.Generator) -> tuple:
    """Random non-degenerate anchor set and node position."""
    while True:
        m = int(rng.integers(4, 7))
        anchors = rng.uniform(0.0, 20.0, size=(m, 2))
        try:
            aset = AnchorSet(positions=anchors)
        except ValueError:
            continue
        position = rng.uniform(2.0, 18.0, size=2)
        return aset, position


def _drawn_ahead(rng: np.random.Generator, units: Iterable) -> Iterator[tuple]:
    """The samples of each unit of `units`, drawn on a worker thread one unit
    ahead of the caller.

    A unit is a tuple of (loc, scale, shape) normal draws, and its samples
    are the tuple of their arrays, each the stream and bits of
    `rng.normal(loc, scale, shape)`, drawn in turn.  While the caller
    reads one unit, a worker thread fills the next: numpy's fills and
    in-place ufuncs release the GIL, so the two overlap.  Only the worker
    calls `rng` while the stream is open, one unit at a time and in order,
    so every bit is that of the serial draw.  The calling thread allocates
    every buffer and the worker only fills them, so no sample lives in a
    second malloc arena.  Closing the stream, also by an error in the
    caller, waits for the unit in flight; a worker never waits on the
    caller.  The caller drops a unit before it asks for the next, or three
    units are live at once.
    """

    def fill(draws: tuple, out: tuple, failed: list) -> None:
        try:
            for (loc, scale, _), buffer in zip(draws, out):
                _fill_normal(rng, buffer, loc, scale)
        except Exception as exc:  # re-raised on the calling thread
            failed.append(exc)

    def start(draws: tuple) -> tuple:
        out, failed = tuple(np.empty(shape) for _, _, shape in draws), []
        worker = threading.Thread(target=fill, args=(draws, out, failed))
        worker.start()
        return worker, out, failed

    def finish(worker: threading.Thread, out: tuple, failed: list) -> tuple:
        worker.join()
        if failed:
            raise failed[0]
        return out

    ahead, ready = None, []
    try:
        for draws in (*units, None):
            if ahead is not None:
                ready.append(finish(*ahead))
            ahead = None if draws is None else start(draws)
            if ready:
                # handed over from the stack: the stream keeps no reference
                # to a unit once the caller has it
                yield ready.pop()
    finally:
        if ahead is not None:
            ahead[0].join()


def _range_noise(aset: AnchorSet, position) -> tuple:
    """True ranges r from `position` to the anchors and their noise
    variances."""
    r = true_ranges(position, aset)
    return r, range_variance(r, RangeNoiseModel())


def _squared_noise(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Draws (n, M-1) of the differenced squared-range noise
    w_M^2 + 2 r_M w_M - w_l^2 - 2 r_l w_l from range-noise draws w (n, M),
    which it overwrites."""
    squared = w**2
    w *= 2.0 * r
    squared += w  # w^2 + 2 r w
    return squared[:, -1:] - squared[:, :-1]


def _squared_range_noise(rng: np.random.Generator, n: int, aset: AnchorSet, position) -> tuple:
    """True ranges r, their noise variances, and n draws (n, M-1) of the
    differenced squared-range noise."""
    r, var = _range_noise(aset, position)
    # the stream and bits of rng.normal(0.0, sqrt(var), size=(n, M))
    w = rng.standard_normal((n, aset.m))
    w *= np.sqrt(var)
    return r, var, _squared_noise(w, r)


def _streamed_covariances(
    rng: np.random.Generator, n: int, groups: int, aset: AnchorSet, position
) -> tuple:
    """r, var, the sample covariance of n draws of the squared-range noise,
    and the covariances of its `groups` consecutive blocks of n/groups rows.

    Each block is drawn ahead (`_drawn_ahead`), then centred in place on its
    mean and reduced to its Gram product, so three blocks at most are held
    at a time and none is copied; concatenated, the blocks are the stream
    and bits of one (n, M) draw.  The full covariance is the pooled identity
    (n-1) C = sum (n_g-1) C_g + sum n_g (m_g-m)(m_g-m)^T.
    """
    size = n // groups
    r, var = _range_noise(aset, position)
    unit = ((0.0, np.sqrt(var), (size, aset.m)),)
    means, covs = [], []
    for (w,) in _drawn_ahead(rng, [unit] * groups):
        block = _squared_noise(w, r)
        mean = block.mean(axis=0)
        means.append(mean)
        block -= mean
        covs.append(block.T @ block / (size - 1))
    group_covs = np.stack(covs)
    spread = np.array(means) - np.mean(means, axis=0)
    cov = ((size - 1) * group_covs.sum(axis=0) + size * spread.T @ spread) / (n - 1)
    return r, var, cov, group_covs


def check_noise_cov_inverse(scale: float = 1.0, seed: int = 7) -> CheckResult:
    """Closed-form inverse of the squared-range noise covariance vs MC.

    Five random geometries; the product of the closed-form inverse with
    the sampled covariance must be the identity within 3 propagated
    standard errors entry-wise.
    """
    rng = np.random.default_rng(seed)
    groups = 50
    n = max(int(1e6 * scale) // groups * groups, 1000)
    worst = 0.0
    for _ in range(5):
        aset, position = _random_geometry(rng)
        r, var, cov_mc, group_covs = _streamed_covariances(rng, n, groups, aset, position)
        # empirical entry-wise SE from group covariances (no Gaussian
        # fourth-moment shortcut; the noise is quadratic in Gaussians)
        se = group_covs.std(axis=0, ddof=1) / math.sqrt(groups)
        w = noise_cov_inverse(r, var)
        resid = np.abs(w @ cov_mc - np.eye(aset.m - 1))
        limit = 3.0 * np.abs(w) @ se
        ratio = float(np.max(resid / np.maximum(limit, 1e-300)))
        worst = max(worst, ratio)
    return CheckResult(
        name="noise-cov-inverse",
        passed=worst <= 1.0,
        detail=f"max residual / (3 SE) = {worst:.3f} over 5 geometries",
        data={"worst_ratio": worst},
    )


def _wls_moment_check(name: str, scale: float, seed: int, second: bool) -> CheckResult:
    """MC WLS errors against the moment `ranging_layer`, the estimators'
    moment path, gives at the same operating point: the bias (the mean
    error) or the correlation G^{-1} + bias bias^T (the mean of e e^T),
    3 SE per entry."""
    rng = np.random.default_rng(seed)
    n = max(int(1e5 * scale), 1000)
    aset, position = _random_geometry(rng)
    geometry = build_geometry(aset)
    r, var, b = _squared_range_noise(rng, n, aset, position)
    a_mat = geometry.design_matrix
    atw = a_mat.T @ noise_cov_inverse(r, var)
    errors = b @ np.linalg.solve(atw @ a_mat, atw).T  # (n, 2)
    _, bias, cov = ranging_layer(geometry, r, var, r, RangingScratch.of(geometry, ()))
    correlation = cov + bias[:, None] * bias[None, :]
    samples = errors[:, :, None] * errors[:, None, :] if second else errors  # (n, 2, 2) or (n, 2)
    mean, se = _mean_se(samples, axis=0)
    ratio = float(np.max(np.abs(mean - (correlation if second else bias)) / (3.0 * se)))
    return CheckResult(
        name=name,
        passed=ratio <= 1.0,
        detail=f"max |MC - closed| / (3 SE) = {ratio:.3f}",
        data={"worst_ratio": ratio},
    )


def check_ranging_bias(scale: float = 1.0, seed: int = 11) -> CheckResult:
    """Closed-form WLS bias vs the MC mean error, 3 SE per axis."""
    return _wls_moment_check("ranging-bias", scale, seed, second=False)


def check_ranging_second_moment(scale: float = 1.0, seed: int = 13) -> CheckResult:
    """Closed-form WLS error correlation vs the MC mean of e e^T, 3 SE per
    entry."""
    return _wls_moment_check("ranging-second-moment", scale, seed, second=True)


def check_dr_moments(scale: float = 1.0, seed: int = 17) -> CheckResult:
    """Displacement moments vs MC over a (speed, heading-noise) grid.

    The full-prefactor second moment must pass everywhere at 3 SE; the
    second moment at zero speed, which drops the deterministic speed power,
    must fail wherever the speed is away from zero (in the detail line).
    """
    rng = np.random.default_rng(seed)
    n = max(int(2e5 * scale), 1000)
    sigma_v = 0.05
    grid = [
        (v, sigma_phi, phi)
        for v in (0.0, 0.1, 0.5, 1.0)
        for sigma_phi in (0.1, math.pi / 8.0, math.pi / 4.0, 1.0)
        for phi in (0.0, 0.7, 2.5)
    ]
    stream = _drawn_ahead(rng, (((v, sigma_v, n), (phi, sigma_phi, n)) for v, sigma_phi, phi in grid))
    worst = 0.0
    variant_rejected = 0
    for v, sigma_phi, phi in grid:
        vm, pm = next(stream)
        for axis, trig in ((0, np.cos), (1, np.sin)):
            first = vm * trig(pm)
            mean1, se1 = _mean_se(first)
            mean2, se2 = _mean_se(first**2)
            gap1 = abs(mean1 - dr_first_moment(v, phi, sigma_phi, axis))
            gap2 = abs(mean2 - dr_second_moment(v, sigma_v, phi, sigma_phi, axis))
            worst = max(worst, gap1 / (3.0 * se1), gap2 / (3.0 * se2))
            variant = dr_second_moment(0.0, sigma_v, phi, sigma_phi, axis)
            if abs(mean2 - variant) > 3.0 * se2:
                variant_rejected += 1
    points = len(grid)
    return CheckResult(
        name="dr-moments",
        passed=worst <= 1.0,
        detail=(
            f"max gap / (3 SE) = {worst:.3f} over {points} grid points; "
            f"speed-power variant rejected at {variant_rejected}/{points * 2} "
            "axis-points (expected: all with nonzero speed)"
        ),
        data={"worst_ratio": worst, "variant_rejected": variant_rejected, "axis_points": points * 2},
    )


def _random_axis_inputs(rng: np.random.Generator) -> dict:
    """`axis_moments` arguments of a random operating point."""
    m_r = rng.normal(0.0, 0.1)
    sigma_vr_sq = rng.uniform(1e-4, 0.25)
    svv = rng.uniform(1e-8, 0.01)
    t_step = 0.1
    atten = rng.uniform(0.6, 1.0)
    dr_true_first = rng.uniform(-1.0, 1.0)
    dr_first = dr_true_first * atten
    return dict(
        ranging_mean=m_r,
        ranging_variance=sigma_vr_sq,
        prev_bias=rng.normal(0.0, 0.1),
        prev_variance=rng.uniform(1e-6, 0.04),
        dr_true_first=dr_true_first,
        heading_attenuation=atten,
        dr_second=dr_first**2 + svv / t_step**2,
        T=t_step,
    )


def _second_moment_terms(**inputs) -> tuple:
    """Paper-form quadratic coefficients (a_k, b_k) of the fused error
    second moment, from the `axis_moments` arguments `inputs`.

    E{w_{k+1}^2} = beta^2 a_k + 2 beta b_k + E{w_r^2}, with

    a_k = E{w_r^2} + E{w_k^2} + T^2 E{V~^2 trig^2}
          + T^2 V^2 trig^2 (1 - 2 exp(-sigma_phi^2/2))
          - 2 E{w_k} E{w_r} - 2 E{w_r} c + 2 E{w_k} c,
    b_k = -E{w_r^2} + E{w_k} E{w_r} + E{w_r} c,

    where c is the dead-reckoning drift term.  Algebraically
    a_k = gamma^2 + eta >= 0 and b_k = E{w_r} gamma - sigma_vr^2.
    """
    p = SimpleNamespace(**inputs)
    ranging_second = p.ranging_variance + p.ranging_mean**2
    prev_second = p.prev_bias**2 + p.prev_variance
    c = axis_moments(**inputs).drift
    a_k = (
        ranging_second
        + prev_second
        + p.T**2 * p.dr_second
        + p.T**2 * p.dr_true_first**2 * (1.0 - 2.0 * p.heading_attenuation)
        - 2.0 * p.prev_bias * p.ranging_mean
        - 2.0 * p.ranging_mean * c
        + 2.0 * p.prev_bias * c
    )
    b_k = -ranging_second + p.prev_bias * p.ranging_mean + p.ranging_mean * c
    return a_k, b_k


def _mse_beta(a_k: float, b_k: float, config: ParetoConfig) -> float:
    """Paper-form MSE minimiser: -b_k / a_k, clipped to |beta| <= beta_clip."""
    return min(max(-b_k / a_k, -config.beta_clip), config.beta_clip)


def check_optimal_beta(scale: float = 1.0, seed: int = 19) -> CheckResult:
    """Closed-form beta vs a brute-force grid minimiser, plus the MSE link.

    100 random operating points; the stationary-point formula must land
    within 2e-4 of the 1e-4-step grid argmin of the exact objective, and
    the paper-form MSE minimiser -b_k / a_k must equal the rho = 1/2
    case to 1e-9.
    """
    rng = np.random.default_rng(seed)
    config = ParetoConfig(beta_clip=1.0)
    beta_grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
    worst_grid = 0.0
    worst_mse = 0.0
    for _ in range(100):
        inputs = _random_axis_inputs(rng)
        m = axis_moments(**inputs)
        rho = float(rng.uniform(0.0, 1.0))
        mu = (1.0 - beta_grid) * m.ranging_mean + beta_grid * m.prev_bias + beta_grid * m.drift
        var = (
            (1.0 - beta_grid) ** 2 * m.sigma_vr_sq
            + beta_grid**2 * m.prev_variance
            + beta_grid**2 * m.sigma_vv_sq
        )
        objective = rho * mu**2 + (1.0 - rho) * var
        brute = float(beta_grid[int(np.argmin(objective))])
        closed = optimal_beta(rho, m, config)
        worst_grid = max(worst_grid, abs(closed - brute))
        a_k, b_k = _second_moment_terms(**inputs)
        worst_mse = max(worst_mse, abs(_mse_beta(a_k, b_k, config) - optimal_beta(0.5, m, config)))
    passed = worst_grid <= 2e-4 and worst_mse <= 1e-9
    return CheckResult(
        name="optimal-beta",
        passed=passed,
        detail=(
            f"max |closed - grid argmin| = {worst_grid:.2e} (tol 2e-4); "
            f"max |mse - rho=0.5| = {worst_mse:.2e} (tol 1e-9)"
        ),
        data={"worst_grid_gap": worst_grid, "worst_mse_gap": worst_mse},
    )


# the longest stretch of the walk that `check_trig_moments` draws or reduces
# at once, so that no temporary is as long as the walk
_TRIG_BLOCK = 2**16


def _trig_leaves(start: int, n: int) -> list:
    """(start, stop) of the stretches of n walk states from `start` that
    numpy's pairwise summation splits them into (in halves, the first
    rounded down to a multiple of 8) down to at most `_TRIG_BLOCK` each."""
    if n <= _TRIG_BLOCK:
        return [(start, start + n)]
    half = n // 2 - n // 2 % 8
    return _trig_leaves(start, half) + _trig_leaves(start + half, n - half)


def _speed_rows(v: np.ndarray) -> np.ndarray:
    """The speed moment samples V and V^2 at each walk state, (2, len(v))."""
    out = np.empty((2, len(v)))
    out[0] = v
    np.square(v, out=out[1])
    return out


def _heading_rows(phi: np.ndarray) -> np.ndarray:
    """The heading moment samples cos, sin, sin cos and cos^2 at each walk
    state, (4, len(phi))."""
    out = np.empty((4, len(phi)))
    np.cos(phi, out=out[0])
    np.sin(phi, out=out[1])
    np.multiply(out[1], out[0], out=out[2])
    np.square(out[0], out=out[3])
    return out


def _leaf_sums(rows: np.ndarray) -> tuple:
    """Sums and scatters (sums of squared deviations from the mean) of the
    rows of `rows`, which it overwrites."""
    total = rows.sum(axis=1)
    rows -= (total / rows.shape[1])[:, None]
    rows *= rows
    return total, rows.sum(axis=1)


def _pooled(n: int, leaves: Iterator[tuple]) -> tuple:
    """Sum and scatter over n walk states from the (sum, scatter) of each of
    its `_trig_leaves`, in order.  Two halves add their sums, as numpy's
    pairwise summation adds them, which gives the bits of `np.sum` over
    the whole sample, and pool their scatters:
    S = S_a + S_b + n_a n_b / n (m_a - m_b)^2."""
    if n <= _TRIG_BLOCK:
        return next(leaves)
    half = n // 2 - n // 2 % 8
    sum_a, scatter_a = _pooled(half, leaves)
    sum_b, scatter_b = _pooled(n - half, leaves)
    gap = sum_a / half - sum_b / (n - half)
    return sum_a + sum_b, scatter_a + scatter_b + half * (n - half) / n * gap**2


def _trig_moment_sums(
    rng: np.random.Generator, n: int, v0: float, phi0: float, s3: float, s4: float, steps
) -> Iterator[tuple]:
    """(k, sums, scatters) at each of the 1-based `steps`, increasing from 1,
    of n speed/heading random walks from (v0, phi0) with step variances s3
    and s4: the sums and scatters, each (6,), of the six moment samples V,
    V^2, cos, sin, sin cos and cos^2 over the walk states.

    The walk is drawn only at those steps: from one to the next it adds one
    normal of the summed variance (k - k_prev) sigma^2, which gives its
    joint law there.  Walk and reduction go leaf by leaf (`_trig_leaves`):
    a leaf's speed rows are summed just before its speed step is added,
    and its heading rows just before its heading step, while the next
    leaf's step is drawn ahead (`_drawn_ahead`).  A jump's units are its
    speed leaves, then its heading leaves: the stream and bits of one draw
    of n each.  The walk is the only array as long as the walk.
    """
    leaves = _trig_leaves(0, n)
    units = (
        ((0.0, math.sqrt((k - k_prev) * var), stop - start),)
        for k_prev, k in zip(steps, steps[1:])
        for var in (s3, s4)
        for start, stop in leaves
    )
    v, phi = np.full(n, v0), np.full(n, phi0)
    stream = _drawn_ahead(rng, units)
    try:
        for i, k in enumerate(steps):
            moves = i + 1 < len(steps)
            pooled = []
            for state, rows in ((v, _speed_rows), (phi, _heading_rows)):
                sums = []
                for start, stop in leaves:
                    leaf = state[start:stop]
                    sums.append(_leaf_sums(rows(leaf)))
                    if moves:
                        leaf += next(stream)[0]
                pooled.append(_pooled(n, iter(sums)))
            totals, scatters = zip(*pooled)
            yield k, np.concatenate(totals), np.concatenate(scatters)
    finally:
        stream.close()


def check_trig_moments(scale: float = 1.0, seed: int = 23) -> CheckResult:
    """Speed/heading random-walk moments vs a rollout MC at k in {1,2,5,10,20}."""
    rng = np.random.default_rng(seed)
    n = max(int(1e6 * scale), 10000)
    v0, phi0 = 0.5, math.pi / 6.0
    s3, s4 = 1e-4, 2.5e-3
    worst = 0.0
    for k, total, scatter in _trig_moment_sums(rng, n, v0, phi0, s3, s4, (1, 2, 5, 10, 20)):
        tm = trig_moments(v0, phi0, s3, s4, k)
        closed = np.array([tm.e_v, tm.e_v_sq, tm.e_cos, tm.e_sin, tm.e_sin_cos, tm.e_cos_sq])
        se = np.sqrt(scatter / (n - 1)) / math.sqrt(n)
        # absolute floor so the deterministic k = 1 entries (sample SE
        # at rounding level) are judged against float tolerance, not a
        # vanishing denominator
        worst = max(worst, float(np.max(np.abs(total / n - closed) / (3.0 * se + 1e-12))))
    return CheckResult(
        name="trig-moments",
        passed=worst <= 1.0,
        detail=f"max gap / (3 SE) = {worst:.3f} over six moments, k in {{1,2,5,10,20}}",
        data={"worst_ratio": worst},
    )


def _corrected_d11(scene: Scene, tm) -> np.ndarray:
    """`d11` with the full speed power E{V^2} = (k-1) sigma3_sq + V0^2 in
    its (4, 4) entry: the true second moment, which Monte Carlo accepts
    where the reference form's diffusion-only power falls short."""
    cv = scene.cv
    i1, i2, i4 = 1.0 / cv.sigma1_sq, 1.0 / cv.sigma2_sq, 1.0 / cv.sigma4_sq
    out = d11(scene, tm)
    out[3, 3] = scene.T**2 * tm.e_v_sq * (tm.e_sin_sq * i1 + tm.e_cos_sq * i2) + i4
    return out


def check_fisher_blocks(scale: float = 1.0, seed: int = 27) -> CheckResult:
    """Closed-form transition information blocks vs rollout MC at k = 6.

    The reference (4, 4) entry deliberately carries the diffusion-only
    speed power; the MC comparison verifies (a) every other entry at
    3 SE, (b) the (4, 4) gap equals the missing V0^2 term, and (c) the
    corrected form `_corrected_d11` closes that gap.
    """
    rng = np.random.default_rng(seed)
    m = max(int(2e4 * scale), 5000)
    cv = CvProcessModel(sigma1_sq=1e-4, sigma2_sq=4e-4, sigma3_sq=1e-4, sigma4_sq=2.5e-3)
    scene = Scene(T=0.1, cv=cv)
    v0, phi0, k = 0.5, math.pi / 6.0, 6
    v = v0 + rng.normal(0.0, math.sqrt((k - 1) * cv.sigma3_sq), size=m)
    phi = phi0 + rng.normal(0.0, math.sqrt((k - 1) * cv.sigma4_sq), size=m)
    q_inv = np.linalg.inv(scene.cv_noise)
    states = np.zeros((m, 4))
    states[:, 2], states[:, 3] = v, phi
    f_jac = cv_transition_jacobian(states, scene.T)
    mc11 = (f_jac.mT @ q_inv @ f_jac).mean(axis=0)
    mc12 = -f_jac.mean(axis=0).T @ q_inv
    tm = trig_moments(v0, phi0, cv.sigma3_sq, cv.sigma4_sq, k)
    ref = d11(scene, tm)
    fixed = _corrected_d11(scene, tm)
    off_mask = np.ones((4, 4), dtype=bool)
    off_mask[3, 3] = False
    # entry scales vary over orders of magnitude; compare relative
    rel = np.abs(mc11 - ref) / np.maximum(np.abs(mc11), 1.0)
    rel44_ref = abs(mc11[3, 3] - ref[3, 3]) / abs(mc11[3, 3])
    rel44_fix = abs(mc11[3, 3] - fixed[3, 3]) / abs(mc11[3, 3])
    bracket = scene.T**2 * (tm.e_sin_sq / cv.sigma1_sq + tm.e_cos_sq / cv.sigma2_sq)
    predicted_gap = v0**2 * bracket
    gap_match = abs((fixed[3, 3] - ref[3, 3]) - predicted_gap) <= 1e-9 * predicted_gap
    rel12 = float(np.max(np.abs(mc12 - d12(scene, tm)) / np.maximum(np.abs(mc12), 1.0)))
    passed = (
        float(np.max(rel[off_mask])) <= 0.02
        and rel44_fix <= 0.02
        and rel44_ref > 5.0 * rel44_fix
        and gap_match
        and rel12 <= 0.02
    )
    return CheckResult(
        name="fisher-blocks",
        passed=passed,
        detail=(
            f"max rel gap (entries except (4,4)) = {float(np.max(rel[off_mask])):.4f}; "
            f"(4,4) rel gap reference form = {rel44_ref:.4f}, corrected = {rel44_fix:.4f}; "
            f"reference (4,4) deficit equals V0^2 bracket: {gap_match}"
        ),
        data={
            "rel44_reference": rel44_ref,
            "rel44_corrected": rel44_fix,
            "gap_is_v0sq_bracket": gap_match,
        },
    )


def check_ratio_bounds(scale: float = 1.0, seed: int = 29) -> CheckResult:
    """Diagonal-ratio bracket and series vs MC on a 5x5 mean grid.

    The Jensen bracket must contain the MC value everywhere; the
    asymptotic series, where it yields decreasing terms at all, must land
    within its own error estimate plus 3 MC standard errors.
    """
    rng = np.random.default_rng(seed)
    n = max(int(4e5 * scale), 10000)
    grid = (0.5, 1.0, 2.0, 3.0, 5.0)
    points = [(mu_q, mu_z) for mu_q in grid for mu_z in grid]
    stream = _drawn_ahead(rng, (((mu_q, 1.0, n), (mu_z, 1.0, n)) for mu_q, mu_z in points))
    bracket_fail = 0
    series_fail = 0
    divergent = 0
    converged = 0
    for mu_q, mu_z in points:
        q, z = next(stream)
        mc, se = diag_expectation_mc(q, z)
        del q, z  # the pair's last reference: two pairs are live at most
        lb, ub = diag_bounds(mu_q, 1.0, mu_z, 1.0)
        if not (lb <= mc + 3.0 * se and mc - 3.0 * se <= ub):
            bracket_fail += 1
        try:
            series = diag_expectation_series(
                mu_q, 1.0, mu_z, 1.0, rng=np.random.default_rng((seed, 1))
            )
        except SeriesDivergenceError:
            divergent += 1
            continue
        converged += 1
        if abs(series.value - mc) > series.error + 3.0 * se:
            series_fail += 1
    passed = bracket_fail == 0 and series_fail == 0
    return CheckResult(
        name="ratio-bounds",
        passed=passed,
        detail=(
            f"bracket violations {bracket_fail}/25; series converged at "
            f"{converged}/25 points with {series_fail} misses "
            f"({divergent} divergent, MC fallback)"
        ),
        data={
            "bracket_fail": bracket_fail,
            "series_fail": series_fail,
            "converged": converged,
            "divergent": divergent,
        },
    )


def check_gershgorin(scale: float = 1.0, seed: int = 31) -> CheckResult:
    """PSD ordering of the posterior bracket: of `pi_bracket` and of the
    recursions on its two ends.

    On 100 random anchor sets and position ensembles, every tenth a single
    point, `pi_bracket` must give 0 <= L <= Pi_MC <= U, with eigenvalue
    slack 1e-9 max|U|, and the three matrices must be the same bits on
    each one-point ensemble.  Every step of a 200-step posterior-bound
    recursion must give j_lb <= j <= j_ub, with eigenvalue slack 1e-9.
    The name stays that of the paper's Gershgorin repair, because
    `perfbench/` reads it.
    """
    rng = np.random.default_rng(seed)
    gaps, ties = [], 0
    for i in range(100):
        aset, position = _random_geometry(rng)
        n = 1 if i % 10 == 0 else int(rng.integers(2, 301))
        positions = rng.normal(position, rng.uniform(0.01, 5.0), size=(n, 2))
        mc, lower, upper = pi_bracket(Scene(anchors=aset), positions)
        gaps += [gap / np.abs(upper).max() for gap in (lower, mc - lower, upper - mc)]
        if n == 1:
            ties += np.array_equal(lower, mc) and np.array_equal(upper, mc)
    bracket_worst = float(np.linalg.eigvalsh(np.stack(gaps)).min())
    scene = Scene(
        anchors=AnchorSet(np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0], [20.0, 20.0]])),
        T=0.1,
        cv=CvProcessModel(sigma1_sq=1e-6, sigma2_sq=1e-6, sigma3_sq=1e-4, sigma4_sq=2.5e-3),
    )
    result = pcrlb_bounds(
        scene, np.array([2.0, 10.0]), 0.5, 0.0, steps=200,
        n_ensemble=max(int(100 * scale), 20), rng=rng,
    )
    held, steps = int(result.sandwich_ok.sum()), len(result.sandwich_ok)
    return CheckResult(
        name="gershgorin-ordering",
        passed=bracket_worst >= -1e-9 and ties == 10 and held == steps,
        detail=(
            "min eigenvalue of L, Pi_MC - L and U - Pi_MC over 100 ensembles = "
            f"{bracket_worst:.2e} max|U|; one-point ensembles tied at {ties}/10; "
            f"j_lb <= j <= j_ub at {held}/{steps} posterior steps (slack 1e-9)"
        ),
        data={"min_eig": bracket_worst, "one_point_ties": ties, "sandwich_steps": held},
    )


def check_recursion_identities(scale: float = 1.0, seed: int = 37) -> CheckResult:
    """Structural identities of the posterior-information recursion.

    With zero transition coupling the next information equals the
    measurement block exactly; and on a scalar linear-Gaussian model the
    recursion must hit the closed-form Riccati fixed point to 1e-9.
    """
    rng = np.random.default_rng(seed)
    a_mat = rng.normal(0.0, 1.0, size=(4, 4))
    d11_m = a_mat @ a_mat.T + np.eye(4)
    b_mat = rng.normal(0.0, 1.0, size=(4, 4))
    d22_m = b_mat @ b_mat.T + np.eye(4)
    j_prev = np.eye(4)
    decoupled = pcrlb_recursion(j_prev, d11_m, np.zeros((4, 4)), d22_m)
    exact = bool(np.array_equal(decoupled, d22_m))

    a, q, h, r = 0.95, 0.01, 1.0, 0.04
    d11_s = np.array([[a**2 / q]])
    d12_s = np.array([[-a / q]])
    j = np.array([[1.0]])
    for _ in range(500):
        d22_s = np.array([[1.0 / q + h**2 / r]])
        j = pcrlb_recursion(j, d11_s, d12_s, d22_s)
    b_coef = a**2 - 1.0 - h**2 * q / r
    fixed_point = (-b_coef + math.sqrt(b_coef**2 + 4.0 * q * a**2 * h**2 / r)) / (2.0 * q)
    gap = abs(float(j[0, 0]) - fixed_point)
    passed = exact and gap <= 1e-9
    return CheckResult(
        name="recursion-identities",
        passed=passed,
        detail=(
            f"zero-coupling step returns measurement block exactly: {exact}; "
            f"|J - Riccati fixed point| = {gap:.2e} (tol 1e-9)"
        ),
        data={"decoupled_exact": exact, "riccati_gap": gap},
    )


ALL_CHECKS = (
    check_noise_cov_inverse,
    check_ranging_bias,
    check_ranging_second_moment,
    check_dr_moments,
    check_optimal_beta,
    check_trig_moments,
    check_fisher_blocks,
    check_ratio_bounds,
    check_gershgorin,
    check_recursion_identities,
)


def run_all_checks(scale: float = 1.0, verbose: bool = True) -> list:
    """Run the whole oracle suite; print one line per check if verbose."""
    results = []
    for check in ALL_CHECKS:
        result = check(scale=scale)
        results.append(result)
        if verbose:
            mark = "PASS" if result.passed else "FAIL"
            print(f"[{mark}] {result.name}: {result.detail}")
    if verbose:
        n_pass = sum(r.passed for r in results)
        print(f"{n_pass}/{len(results)} checks passed")
    return results
