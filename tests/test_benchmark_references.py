"""The benchmark's correctness gate, run in the test suite.

Before it measures, perfbench runs a fixed-seed reference case of each
workload and refuses the run as outputs_incorrect when the outputs depart
from perfbench/references.json. These tests run the train and eval reference
cases through the benchmark's own workload classes and compare them with the
stored values by the workloads' own checks (train: the 6-step loss history
within 1e-4 relative; eval: both reports' scores within rtol 1e-4, atol
1e-3), so a numerics change the benchmark would refuse fails here first.
The references are only read. infer-full's reference (a 292 MB full-width
checkpoint) and gradcheck's (the op suite at seed 0, which
tests/test_gradcheck.py pins) are left to the benchmark.

A traced run wraps the package functions listed in spans.TARGETS and skips,
with no failure, a name the package no longer has; its metrics then read 0.
So these tests also check that every target still resolves, apart from the
ones already gone.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # workloads imports its sibling modules by name

import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())


@pytest.mark.parametrize("workload", [workloads.TrainWorkload, workloads.EvalWorkload],
                         ids=lambda w: w.name)
def test_reference_case_matches_the_stored_outputs(tmp_path, workload):
    bench = workload(workloads.REF_SEED, str(tmp_path), str(ROOT / "src"))
    bench.prepare()
    got = bench.reference(bench.setup())
    assert bench.check_reference(got, REFERENCES[bench.name]) == []


# Targets the package dropped when their ops were fused or folded away.
GONE_TARGETS = {"ops.batch_norm", "ops.activation", "ops.fully_connected", "ops.scale_channels",
                "ops.global_avg_pool", "ops._check_finite", "model.enhance_segment"}


def test_every_span_target_resolves_in_the_package():
    unresolved = {f"{module}.{attr}" for module, attr, _ in spans.TARGETS
                  if not callable(getattr(importlib.import_module(f"mffcn.{module}"), attr, None))}
    assert unresolved == GONE_TARGETS
