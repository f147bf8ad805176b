"""Benchmark of the mffcn kit: one workload per run, from the repository root.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; nothing is installed in the
package except, on ``gradcheck``, a forward counter that paces the speed
probe. ``--trace 1`` runs the workload's fixed program in untraced/traced
pairs, with span wrappers installed for the traced half, and reports the
per-layer metrics plus the tracing overhead. ``--workload all`` runs every
workload in its own process, in an order rotated by the seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything else the
run learned (machine, spreads, sample counts, failures) goes to the lines
before it and to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("train", "infer-full", "eval", "gradcheck")


def _limit_threads() -> None:
    """BLAS threads: at most the cores this process may run on (set before numpy loads)."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        wanted = os.environ.get(var, "")
        os.environ[var] = str(min(cores, int(wanted))) if wanted.isdigit() and int(wanted) > 0 \
            else str(cores)
    os.environ["MFFCN_THREADS"] = "1"


def _import_package() -> None:
    if not (SRC / "mffcn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mffcn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mffcn

    if Path(mffcn.__file__).resolve().parent != (SRC / "mffcn").resolve():
        sys.exit(f"perfbench: imported mffcn from {mffcn.__file__}, not from {SRC}")


def unit_of(metric: str) -> str:
    """Unit of a metric, from the naming convention shared with BENCHMARK.json."""
    for suffixes, unit in ((("gflop_per_s",), "GFLOP/s"), (("_per_s",), "1/s"),
                           (("gflop",), "GFLOP"), (("_ms", "_ms.p50", "_ms.tail"), "ms"),
                           (("_s",), "s"), (("_mb", "mbytes"), "MB"), (("_pct",), "%")):
        if metric.endswith(suffixes):
            return unit
    return "count"


def _percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def _spread(values) -> float:
    """Within-run spread: interquartile range over the median."""
    med = _percentile(values, 50)
    return (_percentile(values, 75) - _percentile(values, 25)) / med if med else float("nan")


def _same_outputs(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(np.array_equal(np.asarray(x), np.asarray(y))
                                    for x, y in zip(a, b))


# The per-workload names these metrics go by in the project's plans.
ALIASES = {
    "train": {"train_step_ms.p50": "latency_ms.p50", "train_step_ms.tail": "latency_ms.tail",
              "train_items_per_s": "throughput_per_s"},
    "infer-full": {"infer_b1_ms.p50": "latency_ms.p50", "infer_b1_ms.tail": "latency_ms.tail",
                   "infer_b8_segments_per_s": "throughput_per_s"},
    "eval": {"eval_clip_ms.p50": "latency_ms.p50", "eval_clip_ms.tail": "latency_ms.tail",
             "eval_clips_per_s": "throughput_per_s"},
    "gradcheck": {"gradcheck_forward_ms.p50": "latency_ms.p50",
                  "gradcheck_forward_ms.tail": "latency_ms.tail",
                  "gradcheck_model_coords_per_s": "throughput_per_s"},
}


def run_untraced(w, seconds: float, refs: dict, machine) -> dict:
    w.prepare()
    probe = machine.OverlapProbe()
    started = time.perf_counter()
    setup, state = w.samples(), None
    for _ in range(w.setup_repeats):
        state = None
        gc.collect()
        state = w.timed(setup, w.setup)
    ref_failures = w.check_reference(w.reference(state), refs[w.name])
    measured = w.measure(state, seconds)
    wall = time.perf_counter() - started

    lat = measured.latency
    ms = 1000.0 / w.calls_per_sample
    metrics = {
        "setup_s": _percentile(setup.scaled, 50),
        "peak_rss_mb": machine.peak_rss_mb(),
        "latency_ms.p50": _percentile(lat.scaled, 50) * ms,
        "latency_ms.tail": _percentile(lat.scaled, w.tail_pct) * ms,
        "throughput_per_s": measured.throughput_per_s,
    }
    detail = {
        "tail_percentile": w.tail_pct,
        "latency_samples": len(lat),
        "latency_spread_iqr_over_median": _spread(lat.scaled),
        "raw_latency_ms.p50": _percentile(lat.raw, 50) * ms,
        "raw_latency_ms.tail": _percentile(lat.raw, w.tail_pct) * ms,
        "raw_latency_spread_iqr_over_median": _spread(lat.raw),
        "setup_samples": len(setup),
        "raw_setup_s": _percentile(setup.raw, 50),
        "probe_ms.p50": _percentile(w.probe.times, 50) * 1000.0,
        "probe_spread_iqr_over_median": _spread(w.probe.times),
        "aliases": {k: metrics[v] for k, v in ALIASES[w.name].items()},
        **measured.extra,
        "samples_ms": {k: [round(t * 1000.0, 4) for t in v.scaled]
                       for k, v in measured.samples.items()},
        "raw_samples_ms": {k: [round(t * 1000.0, 4) for t in v.raw]
                           for k, v in measured.samples.items()},
        "probe_samples_ms": [round(t * 1000.0, 4) for t in w.probe.times],
    }
    return _result(w, metrics, ref_failures, [measured], detail, probe.finish(wall), wall)


def run_traced(w, refs: dict, machine) -> dict:
    """The fixed program in untraced/traced pairs, each from a fresh set-up.

    The first traced program gives the per-layer metrics; the median over
    the pairs gives the tracing overhead.
    """
    import spans

    w.prepare()
    probe = machine.OverlapProbe()
    started = time.perf_counter()
    ref_failures = w.check_reference(w.reference(w.setup()), refs[w.name])
    tracers, overheads, untraced_s, programs = [], [], [], []
    for _ in range(w.trace_pairs):
        gc.collect()
        base = w.traced_program(w.setup())
        gc.collect()
        tracers.append(spans.Tracer())
        with spans.installed(tracers[-1]):
            traced = w.traced_program(w.setup())
        traced.outcome(_same_outputs(base.outputs, traced.outputs),
                       "traced program's outputs differ from the untraced program's")
        # program time: its calls' times at nominal machine speed
        base_s, traced_s = (sum(sum(v.scaled) for v in m.samples.values())
                            for m in (base, traced))
        untraced_s.append(base_s)
        overheads.append(traced_s / base_s - 1.0)
        programs += [base, traced]
    wall = time.perf_counter() - started

    leftovers = spans.leftover_wrappers()
    programs[-1].outcome(not leftovers, f"wrappers still installed: {leftovers}")
    metrics = spans.aggregate(tracers[0], programs[1].extra.get("coords"))
    metrics["bench.untraced_program_s"] = _percentile(untraced_s, 50)
    metrics["bench.trace_overhead_pct"] = _percentile(overheads, 50) * 100.0
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{w.name}-seed{w.seed}-spans.json"
    spans.write_spans(str(spans_path), tracers[0])
    detail = {"span_count": len(tracers[0]), "spans_file": str(spans_path.relative_to(ROOT)),
              "trace_pairs": w.trace_pairs, "overheads_pct": [o * 100.0 for o in overheads],
              "leftover_wrappers": leftovers, "missing_targets": tracers[0].missing}
    return _result(w, metrics, ref_failures, programs, detail, probe.finish(wall), wall)


def _result(w, metrics, ref_failures, measured, detail, overlap, wall) -> dict:
    """The run's record; ``measured`` lists every phase whose outcomes count."""
    failed = sum(m.failed for m in measured) + (1 if ref_failures else 0)
    return {
        "workload": w.name, "seed": w.seed,
        "correct": failed == 0,
        "attempted": sum(m.attempted for m in measured) + 1,
        "failed": failed,
        "failures": ref_failures + [f for m in measured for f in m.failures],
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
        "detail": detail,
        "run": {"wall_s": wall, **overlap},
    }


def run_one(args) -> int:
    _limit_threads()
    _import_package()
    sys.path.insert(0, str(HERE))
    import machine
    import workloads

    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[args.workload](args.seed, str(OUT / "cache"), str(SRC))
    res = (run_traced(w, refs, machine) if args.trace else
           run_untraced(w, args.seconds, refs, machine))
    res["machine"] = machine.record()

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{w.name}-seed{w.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")

    why = {x["name"]: x["why"] for x in bench["workloads"]}[w.name]
    print(f"perfbench {w.name} seed={w.seed} trace={args.trace}: {why}")
    m = res["machine"]
    print(f"machine: nproc={m['nproc']} blas={m['blas']['name']} {m['blas']['version']} "
          f"threads={m['blas']['threads']} numpy={m['numpy']} scipy={m['scipy']} "
          f"python={m['python']} caches={m['caches']}")
    print(f"run: {json.dumps(res['run'])}")
    for k, v in res["metrics"].items():
        print(f"  {k:36s} {v['value']:14.6g} {v['unit']}")
    for k, v in res["detail"].items():
        if k not in ("aliases", "samples_ms", "raw_samples_ms", "probe_samples_ms"):
            print(f"  [{k}] {v}")
    for k, v in res["detail"].get("aliases", {}).items():
        print(f"  {k:36s} {v:14.6g}  (alias)")
    print(f"  fail_ratio {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4g}")
    for f in res["failures"]:
        print(f"  FAILED: {f}")
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; the order rotates with the seed so that
    slow drift of the machine does not always land on the same workload."""
    k = args.seed % len(NAMES)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES[k:] + NAMES[:k]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
