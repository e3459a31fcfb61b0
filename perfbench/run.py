#!/usr/bin/env python3
"""paretoloc benchmark: end-to-end timings, a traced per-module pass, and
a correctness gate, for one workload or all of them.

    python3 perfbench/run.py --workload mc-shootout-B --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run it from the repository root; it imports `paretoloc` from `src/` of
the tree it sits in.  With `--trace 0` it times set-up in fresh
interpreters and repeats untraced passes of the workload for about
`--seconds` seconds, and reports both times as measured and rescaled to a
reference machine speed (speed.py); with `--trace 1` it makes one traced
pass between two untraced ones and reports per-module calls and self
times.  Every pass is checked (see workloads.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the exit code is 1 when an operation failed and 2 when the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import LabelStats, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOAD_NAMES = ("mc-shootout-B", "track-A", "bounds-oracles")
# One BLAS thread: the workloads use 2x2 to 8x8 matrices, and a fixed
# thread count keeps the summation order, and so the outputs, the same
# from run to run.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
SETUP_KERNEL_SAMPLES = 40
MODULES = ("simulate", "models", "ranging", "deadreckoning", "fusion", "filters", "crlb", "validate")
NO_MACHINE_SETTINGS = (
    "No machine setting (CPU frequency, huge pages, page-cache dropping, cgroups) "
    "was or may be changed to steady these numbers."
)

# Tracer labels that differ from <module>.<function>.
ALIASES = {
    ("fusion", "fusion_step"): "step",
    ("models", "synthesize_measurements"): "synthesize",
    ("ranging", "ranging_bias"): "bias",
    ("ranging", "ranging_second_moment"): "second_moment",
}
# Labels reported as calls and mean self time per call (`self_us`) ...
PER_CALL = (
    "filters.ekf_step", "filters.ukf_step", "filters.lckf_step", "filters.ekf_cv_step",
    "filters.unscented_update", "filters.numerical_jacobian",
    "fusion.step", "fusion.select_rho",
    "ranging.noise_cov_inverse", "ranging.wls_estimate", "ranging.bias",
    "ranging.second_moment",
    "models.synthesize", "models.range_variance",
    "crlb.pi_expectation_mc", "crlb.gershgorin_sandwich",
)
# ... as calls and total self time in the pass (`self_s`) ...
TOTALS = ("simulate.gen_trajectory", "crlb.diag_expectation_series")
# ... and as total self time only.
TOTALS_NO_CALLS = ("crlb.parcrlb_trace", "crlb.pcrlb_bounds")


def per_layer_spec() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from workloads import CHECK_NAMES

    spec = []
    for label in PER_CALL:
        spec += [(f"{label}.calls", "count"), (f"{label}.self_us", "us")]
    spec += [("fusion.rho_grid_evals", "count"),
             ("deadreckoning.calls", "count"), ("deadreckoning.self_s", "s")]
    for label in TOTALS:
        spec += [(f"{label}.calls", "count"), (f"{label}.self_s", "s")]
    spec += [(f"{label}.self_s", "s") for label in TOTALS_NO_CALLS]
    spec += [
        ("simulate.self_s", "s"),
        ("simulate.runs_included_ratio", "ratio"),
        ("crlb.bracket_valid_frac", "ratio"),
        ("crlb.sandwich_ok_frac", "ratio"),
        ("validate.checks_passed", "count"),
    ]
    spec += [(f"validate.{name}.s", "s") for name in CHECK_NAMES]
    spec += [(f"{module}.share", "ratio") for module in MODULES]
    spec += [("unattributed.share", "ratio"), ("trace_overhead_frac", "ratio")]
    return spec


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "loadavg_start": os.getloadavg(),
        "machine_settings": NO_MACHINE_SETTINGS,
    }


def time_setup(name: str, seed: int) -> list:
    """(seconds, seconds at the reference speed) from spawn to exit of
    fresh interpreters that import the package and build the workload's
    inputs.  The kernel needs numpy, which is part of what set-up imports,
    so each interpreter samples it just after the build (speed.py) and
    prints the time that took and its speed factor."""
    code = (
        f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]\n"
        f"import workloads; workloads.WORKLOADS[{name!r}].build({seed})\n"
        f"import speed; sampler = speed.SpeedSampler()\n"
        f"for _ in range({SETUP_KERNEL_SAMPLES}): sampler.sample()\n"
        f"print(sampler.spent(), sampler.factor())\n"
    )
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        spent, factor = map(float, proc.stdout.split())
        times.append((wall - spent, (wall - spent) * factor))
    return times


def timed_pass(workload, config) -> tuple:
    """(seconds, output) of one pass without the speed sampler."""
    gc.collect()
    start = time.perf_counter()
    output = workload.body(config)
    return time.perf_counter() - start, output


def timed_passes(workload, config, seconds: float) -> tuple:
    """Repeat passes under the speed sampler while the next one is expected
    to end within `seconds`.  Returns the passes' seconds, their seconds
    at the reference speed, and their outputs."""
    import speed

    walls, refs, outputs = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        output, wall, ref = speed.timed(workload.body, config)
        walls.append(wall)
        refs.append(ref)
        outputs.append(output)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(walls) > seconds:
            return walls, refs, outputs


def layer_metrics(workload, config, output, tracer, traced_wall: float, untraced_wall: float) -> dict:
    stats = tracer.summary()
    metrics = {name: (0, unit) for name, unit in per_layer_spec()}

    def entry(label):
        return stats.get(label) or LabelStats()

    for label in PER_CALL:
        e = entry(label)
        metrics[f"{label}.calls"] = (e.calls, "count")
        metrics[f"{label}.self_us"] = (1e6 * e.self_s / e.calls if e.calls else 0.0, "us")
    for label in TOTALS:
        e = entry(label)
        metrics[f"{label}.calls"] = (e.calls, "count")
        metrics[f"{label}.self_s"] = (e.self_s, "s")
    for label in TOTALS_NO_CALLS:
        metrics[f"{label}.self_s"] = (entry(label).self_s, "s")
    # select_rho scores every point of the grid for each beta it returns.
    scored = len(config.pareto.rho_grid) if entry("fusion.select_rho").calls else 0
    metrics["fusion.rho_grid_evals"] = (scored, "count")
    metrics["simulate.self_s"] = (entry("simulate.run_experiment").self_s, "s")

    module_self = {module: 0.0 for module in MODULES}
    dr_calls = 0
    for label, e in stats.items():
        module = label.split(".", 1)[0]
        module_self[module] += e.self_s
        if module == "deadreckoning":
            dr_calls += e.calls
    metrics["deadreckoning.calls"] = (dr_calls, "count")
    metrics["deadreckoning.self_s"] = (module_self["deadreckoning"], "s")
    for module, self_s in module_self.items():
        metrics[f"{module}.share"] = (self_s / traced_wall, "ratio")
    metrics["unattributed.share"] = (1.0 - sum(module_self.values()) / traced_wall, "ratio")
    metrics["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics.update(workload.layer_metrics(output, stats))

    for label in PER_CALL + TOTALS + TOTALS_NO_CALLS + ("simulate.run_experiment",):
        if label not in tracer.wrapped:
            tracer.warnings.append(f"public function for {label} not found; reporting 0 calls")
    return metrics


def load_reference(workload) -> dict | None:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh).get(workload.name)
    except FileNotFoundError:
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    env = environment()
    print("environment " + json.dumps(env))
    workload = workloads.WORKLOADS[name]
    tally = workloads.Tally()

    if trace:
        config = workload.build(seed)
        # Untraced passes on both sides of the traced one, so that a drift
        # in machine speed does not read as tracing overhead.
        before, plain = timed_pass(workload, config)
        tracer = Tracer(ALIASES)
        with tracer.installed("paretoloc", MODULES):
            traced_wall, output = timed_pass(workload, config)
        after, _ = timed_pass(workload, config)
        untraced_wall = 0.5 * (before + after)
        outputs = [plain, output]
        metrics = layer_metrics(workload, config, output, tracer, traced_wall, untraced_wall)
        for warning in tracer.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        samples = (
            f"untraced passes {before:.4f} and {after:.4f} s around one traced pass "
            f"{traced_wall:.4f} s"
        )
    else:
        setup = time_setup(name, seed)
        config = workload.build(seed)
        walls, refs, outputs = timed_passes(workload, config, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = statistics.median(walls)
        metrics = {
            "setup_s": (statistics.median(ref for _, ref in setup), "s"),
            "wall_ref_s": (statistics.median(refs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = (
            f"setup_s median of {len(setup)} interpreters, "
            f"{statistics.median(raw for raw, _ in setup):.4f} s as measured; "
            f"wall_ref_s median of {len(walls)} passes "
            f"({min(refs):.4f}-{max(refs):.4f} s), {wall:.4f} s as measured "
            f"({min(walls):.4f}-{max(walls):.4f} s)"
        )
        steps = workload.run_steps(config)
        if steps:
            samples += f"; steps_per_s {steps / wall:.1f} 1/s ({steps} run-steps per pass)"

    for output in outputs:
        workload.verify(config, output, tally)
    workload.probe(config, outputs[0], tally)
    if seed == workloads.DEFAULT_SEED:
        reference = load_reference(workload)
        if reference is None:
            tally.record(False, f"no reference for {name} in {REFERENCE}")
        else:
            workloads.compare_reference(reference, workload.digest(outputs[0]), tally)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  ({samples})")
    for line in workload.report(config, outputs[0]):
        print(f"  {line}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:>14.6g} {unit}")
    fail_frac = tally.failed / tally.attempted
    print(f"  {'fail_frac':40s} {fail_frac:>14.6g} ({tally.failed}/{tally.attempted} operations)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own interpreter, then one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 2
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record_reference() -> int:
    """Write the outputs at the default seed that later runs compare against."""
    import workloads

    reference = {}
    for name in WORKLOAD_NAMES:
        workload = workloads.WORKLOADS[name]
        output = workload.body(workload.build(workloads.DEFAULT_SEED))
        reference[name] = workload.digest(output)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"reference written to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="record the default-seed outputs to reference.json and exit")
    args = parser.parse_args(argv)

    os.environ.update(BLAS_ENV)
    if args.workload == "all" and not args.record_reference:
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path[:0] = [SRC, BENCH_DIR]
    try:
        import paretoloc
    except ImportError as exc:
        print(f"cannot import paretoloc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(paretoloc.__file__))) != SRC:
        print(f"paretoloc imported from {paretoloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
