"""Recompute ``references.json`` from the program as it stands.

    python3 perfbench/update_references.py

Run it only when a change to the program is meant to alter the reference
outputs, and say so in the change: the benchmark's correctness checks
compare every run against this file.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run._limit_threads()
    run._import_package()
    import workloads

    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workloads.REF_SEED, str(run.OUT / "cache"), str(run.SRC))
        w.prepare()
        refs[name] = w.reference(w.setup())
        print(f"{name}: reference computed", flush=True)
    del refs["infer-full"]["b8_row0"]  # checked against the batch-1 output
    (run.HERE / "references.json").write_text(json.dumps(refs) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
