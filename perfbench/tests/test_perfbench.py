"""Tests of the benchmark itself: tracing must not change results or linger,
seeds must drive the inputs, and BENCHMARK.json must match what runs emit.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_package()

import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mffcn import model, tensor, train  # noqa: E402


def _train_losses():
    config = train.TrainConfig(steps=3, seed=0, batch_size=4, width_divisor=8)
    return train.train(config, train.synth_dataset(0, 8)).loss_history


@pytest.fixture(scope="module")
def full_width():
    params = model.init_params(workloads.FIXTURE_SEED, workloads.STRATEGY, width_divisor=1)
    y, v = workloads._segments(3, workloads.INFER_BATCH)
    return params, y, v


def _infer_outputs(full_width):
    params, y, v = full_width
    return [workloads._forward(params, y[0], v[0]), workloads._forward(params, y, v)]


def _bindings():
    """Every function-valued attribute of the package, by identity."""
    out = {}
    for mod in spans._package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[f"{mod.__name__}.{attr}"] = value
    out["Tape.backward"] = tensor.Tape.__dict__["backward"]
    return out


def test_tracing_leaves_results_bit_identical(full_width):
    never_traced = (_train_losses(), _infer_outputs(full_width))
    before = _bindings()

    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = (_train_losses(), _infer_outputs(full_width))
    after_removal = (_train_losses(), _infer_outputs(full_width))

    assert len(tracer), "the wrappers recorded nothing"
    assert _bindings() == before
    for got in (traced, after_removal):
        assert got[0] == never_traced[0]
        for a, b in zip(got[1], never_traced[1]):
            assert np.array_equal(a, b)


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            assert spans.leftover_wrappers()
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []
    assert _bindings() == before


def test_traced_run_counts_and_cleans_up(tmp_path):
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    w = workloads.TrainWorkload(1, str(tmp_path), str(run.SRC))
    before = _bindings()
    res = run.run_traced(w, refs, machine)
    assert res["correct"], res["failures"]
    assert spans.leftover_wrappers() == []
    assert _bindings() == before
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["tensor.records_per_step"] == 519
    assert m["ops.conv2d.calls"] > 0 and m["ops.conv2d.bwd_ms"] > 0
    assert m["model.load_model_s"] == 0 and m["metrics.stoi_ms"] == 0


def test_seed_drives_the_inputs(tmp_path):
    def inputs(seed):
        d = train.synth_dataset(seed, workloads.TRAIN_ITEMS)
        y, v = workloads._segments(seed, workloads.INFER_BATCH)
        p = model.init_params(seed, workloads.STRATEGY, workloads.TRAIN_WIDTH)
        g = workloads.GradcheckWorkload(seed, str(tmp_path), str(run.SRC))
        return (np.stack([it.noisy.values for it in d]), y, v, p.named[0][1].data,
                workloads._derived_seed(seed, 0), g.model_seed)

    one, again, two = inputs(1), inputs(1), inputs(2)
    for a, b, c in zip(one, again, two):
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_reference_checks_reject_wrong_values(tmp_path):
    refs = json.loads((BENCH_DIR / "references.json").read_text())
    w = workloads.TrainWorkload(0, str(tmp_path), str(run.SRC))
    losses = np.array(refs["train"]["loss_history"])
    assert w.check_reference({"loss_history": list(losses * (1 + 1e-7))}, refs["train"]) == []
    assert w.check_reference({"loss_history": list(losses * (1 + 1e-3))}, refs["train"])

    f = workloads.InferFullWorkload(0, str(tmp_path), str(run.SRC))
    b1 = np.array(refs["infer-full"]["b1"])
    assert f.check_reference({"b1": list(b1), "b8_row0": list(b1)}, refs["infer-full"]) == []
    assert f.check_reference({"b1": list(b1), "b8_row0": list(b1 + 1e-2)}, refs["infer-full"])


def test_benchmark_json_matches_what_runs_emit():
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.NAMES)
    assert list(workloads.WORKLOADS) == list(run.NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "peak_rss_mb", "latency_ms.p50", "latency_ms.tail", "throughput_per_s"]
    emitted = list(spans.aggregate(spans.Tracer(), None)) + [
        "bench.untraced_program_s", "bench.trace_overhead_pct"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"]), m["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
