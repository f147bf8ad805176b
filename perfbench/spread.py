"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload train --seeds 1-10 [--rounds 2]

Runs ``run.py`` once per seed and workload (workloads alternate inside each
seed, so drift reaches all of them alike), then prints, per metric, the
median and the interquartile range over the median of the values, from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. With ``--rounds 2`` the whole set runs twice and the second
median is compared with the first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _one(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: [{} for _ in range(args.rounds)] for w in args.workload}
    for r in range(args.rounds):
        for seed in _seeds(args.seeds):
            order = args.workload[seed % len(args.workload):] + args.workload[:seed % len(args.workload)]
            for w in order:
                for k, v in _one(w, seed, seconds).items():
                    values[w][r].setdefault(k, []).append(v)
                print(f"round {r + 1} seed {seed} done", file=sys.stderr, flush=True)

    ok = True
    for w in args.workload:
        print(f"{w}:")
        for name, m in spec.items():
            meds = []
            for r in range(args.rounds):
                vals = values[w][r][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                meds.append(med)
                spread = (q3 - q1) / med
                gate = name == "setup_s" or spread <= m["bound"] / 3
                ok &= name == "setup_s" or spread <= m["bound"]
                print(f"  round {r + 1} {name:18s} median {med:12.5g} {m['unit']:5s} "
                      f"spread {spread:6.3f} bound {m['bound']:.2f}"
                      f"{'' if gate else '  <-- above a third of the bound'}")
            if len(meds) > 1:
                worse = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
                ok &= worse <= m["bound"]
                print(f"  second median worse than first by {worse:+.3f} (bound {m['bound']:.2f})")
    print("within bounds" if ok else "OUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
