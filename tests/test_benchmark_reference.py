"""The benchmark's correctness gate, run with the tests.

`perfbench/run.py` compares each workload's outputs at the default seed
with `perfbench/reference.json` to a relative `REFERENCE_RTOL`; this test
makes the same comparison from the same workload definitions, so a change
of the estimators' or the bounds' arithmetic fails here before the
benchmark runs.  It reads `perfbench/workloads.py` and the reference file
and writes neither.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


@pytest.mark.parametrize("name", ["mc-shootout-B", "track-A", "bounds-oracles"])
def test_default_seed_outputs_match_the_benchmark_reference(workloads, name):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    workload = workloads.WORKLOADS[name]
    output = workload.body(workload.build(workloads.DEFAULT_SEED))
    tally = workloads.Tally()
    workloads.compare_reference(reference, workload.digest(output), tally)
    assert tally.attempted == len(reference) > 0
    assert tally.failed == 0, tally.problems
