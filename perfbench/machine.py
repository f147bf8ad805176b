"""What a result was measured on, and whether anything else ran meanwhile."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import sys
from typing import Dict, Optional


def _read(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _blas() -> Dict[str, object]:
    """BLAS name and version numpy was built with, and its live thread count."""
    import numpy as np

    info: Dict[str, object] = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _caches() -> Dict[str, str]:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        if level and kind and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def record() -> Dict[str, object]:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "caches": _caches(),
    }


def _cpu_ticks() -> Optional[Dict[str, int]]:
    """Machine-wide busy and steal clock ticks from /proc/stat."""
    line = _read("/proc/stat")
    if line is None:
        return None
    fields = [int(v) for v in line.splitlines()[0].split()[1:]]
    idle = fields[3] + (fields[4] if len(fields) > 4 else 0)
    steal = fields[7] if len(fields) > 7 else 0
    return {"busy": sum(fields[:8]) - idle - steal, "steal": steal}


def _own_cpu_s() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


class OverlapProbe:
    """CPU time the rest of the machine used while this run measured.

    ``other_cores`` is that time divided by wall time; above 0.1 of a core the
    run counts as overlapped with other work.
    """

    def __init__(self):
        self.hz = os.sysconf("SC_CLK_TCK")
        self.ticks = _cpu_ticks()
        self.own = _own_cpu_s()

    def finish(self, wall_s: float) -> Dict[str, object]:
        end = _cpu_ticks()
        load = _read("/proc/loadavg")
        if self.ticks is None or end is None or wall_s <= 0:
            return {"overlapped": None, "loadavg": load}
        busy_s = (end["busy"] - self.ticks["busy"]) / self.hz
        other = max(0.0, busy_s - (_own_cpu_s() - self.own))
        steal_s = (end["steal"] - self.ticks["steal"]) / self.hz
        return {"overlapped": other / wall_s > 0.1,
                "other_cores": round(other / wall_s, 3),
                "steal_cores": round(steal_s / wall_s, 3),
                "loadavg": load}


def peak_rss_mb() -> float:
    raw = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return raw * (1 if sys.platform == "darwin" else 1024) / 1e6  # darwin reports bytes, Linux KiB


class SpeedProbe:
    """A fixed piece of numpy and Python work, timed between workload samples.

    On the shared 2-core reference box, speed drifts by up to 2x within
    seconds (other tenants share its cores), and a whole run can land in a
    slow or a fast stretch. Each
    sample is therefore scaled by NOMINAL_S over the mean of the probe times
    just before and just after it, which gives its time at a fixed nominal
    machine speed. The probe is a Python loop plus a small strided-window
    einsum: of the kernels tried, those two slowed in step with the
    workloads, while BLAS matmuls and streaming adds barely moved. It never
    calls mffcn, so no change to the program can move it.
    """

    NOMINAL_S = 0.0065  # about the probe's median on the idle 2-core reference box

    def __init__(self):
        import numpy as np

        rng = np.random.Generator(np.random.PCG64(0))
        self._x = rng.standard_normal((4, 16, 43, 13)).astype(np.float32)
        self._w = rng.standard_normal((16, 16, 4, 4)).astype(np.float32)
        self.times: list = []
        self._last = self._run()

    def _run(self) -> float:
        import time

        import numpy as np
        from numpy.lib.stride_tricks import sliding_window_view

        t0 = time.perf_counter()
        acc = 0.0
        for i in range(24000):
            acc += i * 0.5
        for _ in range(3):
            win = sliding_window_view(self._x, (4, 4), axis=(2, 3))
            np.einsum("dsuv,bshwuv->bdhw", self._w, win, optimize=True)
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Probe now; nominal over the mean of this and the previous probe."""
        before, self._last = self._last, self._run()
        return self.NOMINAL_S / (0.5 * (before + self._last))
