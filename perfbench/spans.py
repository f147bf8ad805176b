"""Spans around calls into the mffcn modules, recorded from outside the package.

A traced run installs wrappers over a fixed list of public functions (plus
``ops._check_finite`` and the closures handed to ``tensor.record``), runs the
workload, and removes every wrapper again. Each wrapped call opens a span
with a name, a start, an end and the index of the enclosing span. Spans stay
in memory until the run ends; ``aggregate`` then turns them into the
per-layer metrics and ``write_spans`` puts the raw list on disk.

Wrappers only time and count: they pass arguments and results through
untouched, so a traced run computes bit-identical values.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# The ops whose forward and backward time is reported one by one.
OPS = ("conv2d", "conv_transpose2d", "batch_norm", "maxpool2d", "activation",
       "fully_connected", "scale_channels", "concat_channels", "global_avg_pool",
       "lstm_forward")

# (module, attribute, span name). Every binding of the same function object in
# any loaded mffcn module is wrapped, so names imported with ``from .x import``
# are covered too.
TARGETS: Tuple[Tuple[str, str, str], ...] = tuple(
    ("ops", op, f"ops.{op}") for op in OPS) + (
    ("ops", "_check_finite", "ops.check_finite"),
    ("attention", "fusion_block", "attention.fusion_block"),
    ("model", "encoder_layer_audio", "model.encoder"),
    ("model", "encoder_layer_video", "model.encoder"),
    ("model", "bottleneck", "model.bottleneck"),
    ("model", "run_decoder", "model.decoder"),
    ("model", "mffcn_forward", "model.forward"),
    ("model", "load_model", "model.load_model"),
    ("model", "enhance_segment", "metrics.enhance"),
    ("formats", "load_checkpoint", "formats.load_checkpoint"),
    ("train", "adam_step", "train.adam"),
    ("train", "synth_dataset", "train.synth"),
    ("metrics", "mel_gain_proxy", "metrics.mel_gain_proxy"),
    ("metrics", "stoi", "metrics.stoi"),
    ("metrics", "si_sdr", "metrics.si_sdr"),
    ("dsp", "make_segment_pairs", "dsp.make_segment_pairs"),
    ("dsp", "mix_at_snr", "dsp.mix_at_snr"),
    ("gradcheck", "run_model_check", "gradcheck.run_model_check"),
)

MARKER = "__perfbench_wrapper__"


class Tracer:
    """In-memory spans plus the counters measured at the same boundaries.

    Spans are kept column-wise in flat arrays (name id, start, end, parent
    index), so half a million of them cost no garbage-collector work.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._open: List[int] = []
        self._ops: List[str] = []          # innermost listed op, for tagging records
        self.conv_flop: Counter = Counter()
        self.conv_bytes: Counter = Counter()
        self.records_replayed = 0
        self.backward_calls = 0
        self.checkpoint_bytes = 0
        self.missing: List[str] = []       # targets the package no longer has

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_counts(tracer: Tracer, op: str, args: tuple, kwargs: dict) -> None:
    """Computed forward FLOPs and bytes touched, from shapes alone."""
    x, w, b = (_arg(args, kwargs, i, n).data for i, n in enumerate(("x", "weights", "bias")))
    batch = x.shape[0] if x.ndim == 4 else 1
    kh, kw = w.shape[2], w.shape[3]
    if op == "conv2d":
        c_out, c_in = w.shape[0], w.shape[1]
        ho, wo = _arg(args, kwargs, 3, "spec").out_extents(x.shape[-2], x.shape[-1])
        flop = 2 * batch * c_out * ho * wo * c_in * kh * kw
    else:
        c_in, c_out = w.shape[0], w.shape[1]
        ho, wo = _arg(args, kwargs, 4, "out_hw")
        flop = 2 * batch * c_in * x.shape[-2] * x.shape[-1] * c_out * kh * kw
    out_elems = batch * c_out * ho * wo
    tracer.conv_flop[op] += flop
    tracer.conv_bytes[op] += x.itemsize * (x.size + w.size + b.size + out_elems)


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    op = name[4:] if name.startswith("ops.") and name[4:] in OPS else None
    name_id = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if op in ("conv2d", "conv_transpose2d"):
            _conv_counts(tracer, op, args, kwargs)
        elif name == "formats.load_checkpoint":
            tracer.checkpoint_bytes += os.path.getsize(args[0])
        idx = tracer.open(name_id)
        if op is not None:
            tracer._ops.append(op)
        try:
            return fn(*args, **kwargs)
        finally:
            if op is not None:
                tracer._ops.pop()
            tracer.close(idx)

    setattr(wrapper, MARKER, True)
    return wrapper


def _record_wrapper(tracer: Tracer, record: Callable) -> Callable:
    """Tag each taped closure with the op that recorded it and time its replay."""

    @functools.wraps(record)
    def wrapper(out, inputs, backward):
        span = tracer.intern(f"ops.{tracer._ops[-1]}.bwd" if tracer._ops else "tensor.bwd")

        def timed(g):
            idx = tracer.open(span)
            try:
                backward(g)
            finally:
                tracer.close(idx)

        return record(out, inputs, timed)

    setattr(wrapper, MARKER, True)
    return wrapper


def _backward_wrapper(tracer: Tracer, method: Callable) -> Callable:
    name_id = tracer.intern("tensor.backward")

    @functools.wraps(method)
    def wrapper(tape, loss):
        tracer.records_replayed += len(tape)
        tracer.backward_calls += 1
        idx = tracer.open(name_id)
        try:
            return method(tape, loss)
        finally:
            tracer.close(idx)

    setattr(wrapper, MARKER, True)
    return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mffcn" or name.startswith("mffcn."))]


class installed:
    """Context manager: wrap every target while the block runs, then restore.

    Restoration runs in ``finally``, so an exception inside the traced block
    still leaves the package exactly as it was imported.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _patch_everywhere(self, original: object, replacement: object) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def __enter__(self) -> Tracer:
        import mffcn.tensor
        pkg = {m.__name__.split(".")[-1]: m for m in _package_modules()}
        try:
            for mod_name, attr, span in TARGETS:
                original = getattr(pkg.get(mod_name), attr, None)
                if original is None:
                    # dropped or renamed by the program; its metrics read 0
                    self.tracer.missing.append(f"{mod_name}.{attr}")
                    continue
                self._patch_everywhere(original, _span_wrapper(self.tracer, span, original))
            record = mffcn.tensor.record
            self._patch_everywhere(record, _record_wrapper(self.tracer, record))
            tape_cls = mffcn.tensor.Tape
            self._saved.append((tape_cls, "backward", tape_cls.__dict__["backward"]))
            tape_cls.backward = _backward_wrapper(self.tracer, tape_cls.backward)
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def _restore(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False


def leftover_wrappers() -> List[str]:
    """Names of any tracing wrapper still reachable from the package."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARKER, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for meth_name, meth in vars(value).items():
                    if getattr(meth, MARKER, False):
                        found.append(f"{mod.__name__}.{attr}.{meth_name}")
    return sorted(set(found))


def aggregate(tracer: Tracer, coords_per_check: Optional[int]) -> Dict[str, float]:
    """Per-layer metrics over every span the run recorded (totals, in ms or s)."""
    import numpy as np

    ids = np.frombuffer(tracer.name_id, dtype=np.int64) if len(tracer) else np.zeros(0, int)
    parent = np.frombuffer(tracer.parent, dtype=np.int64) if len(tracer) else np.zeros(0, int)
    incl = np.asarray(tracer.end) - np.asarray(tracer.start)
    # self time: a span minus the spans directly inside it
    self_t = incl - np.bincount(parent[parent >= 0], weights=incl[parent >= 0],
                                minlength=len(incl))[:len(incl)]
    n = len(tracer.names)
    by_id = {name: i for i, name in enumerate(tracer.names)}
    sums = (np.bincount(ids, weights=incl, minlength=n), np.bincount(ids, weights=self_t, minlength=n),
            np.bincount(ids, minlength=n))

    def tot(name: str) -> float:
        return float(sums[0][by_id[name]]) if name in by_id else 0.0

    def own(name: str) -> float:
        return float(sums[1][by_id[name]]) if name in by_id else 0.0

    def calls(name: str) -> int:
        return int(sums[2][by_id[name]]) if name in by_id else 0

    # model forwards made inside the whole-model gradcheck
    gc_forwards, gc_forward_s = 0, 0.0
    check_id, forward_id = by_id.get("gradcheck.run_model_check"), by_id.get("model.forward")
    if check_id is not None and forward_id is not None:
        for i in np.flatnonzero(ids == forward_id):
            p = parent[i]
            while p >= 0 and ids[p] != check_id:
                p = parent[p]
            if p >= 0:
                gc_forwards += 1
                gc_forward_s += incl[i]

    ms = 1000.0
    m: Dict[str, float] = {
        "tensor.records_per_step": (tracer.records_replayed / tracer.backward_calls
                                    if tracer.backward_calls else 0.0),
        "tensor.backward_ms": tot("tensor.backward") * ms,
        "tensor.backward.self_ms": own("tensor.backward") * ms,
        "tensor.other_bwd_ms": tot("tensor.bwd") * ms,
    }
    for op in OPS:
        m[f"ops.{op}.calls"] = calls(f"ops.{op}")
        m[f"ops.{op}.fwd_ms"] = own(f"ops.{op}") * ms
        m[f"ops.{op}.bwd_ms"] = tot(f"ops.{op}.bwd") * ms
    for op in ("conv2d", "conv_transpose2d"):
        gflop = tracer.conv_flop[op] / 1e9
        m[f"ops.{op}.gflop"] = gflop
        m[f"ops.{op}.mbytes"] = tracer.conv_bytes[op] / 1e6
        fwd_s = own(f"ops.{op}")
        m[f"ops.{op}.gflop_per_s"] = gflop / fwd_s if fwd_s > 0 else 0.0
    m["ops.check_finite_ms"] = tot("ops.check_finite") * ms
    for span in ("attention.fusion_block", "model.encoder", "model.bottleneck",
                 "model.decoder", "model.forward"):
        m[f"{span}_ms"] = tot(span) * ms
        m[f"{span}.self_ms"] = own(span) * ms
    m["attention.fusion_block.calls"] = calls("attention.fusion_block")
    m["model.forward.calls"] = calls("model.forward")
    m["model.load_model_s"] = tot("model.load_model")
    m["formats.checkpoint_mb"] = tracer.checkpoint_bytes / 1e6
    m["formats.load_checkpoint_s"] = tot("formats.load_checkpoint")
    m["train.adam_ms"] = tot("train.adam") * ms
    m["train.synth_ms"] = tot("train.synth") * ms
    for name in ("enhance", "mel_gain_proxy", "stoi", "si_sdr"):
        m[f"metrics.{name}_ms"] = tot(f"metrics.{name}") * ms
    m["dsp.make_segment_pairs_ms"] = tot("dsp.make_segment_pairs") * ms
    m["dsp.mix_at_snr_ms"] = tot("dsp.mix_at_snr") * ms
    m["gradcheck.forwards"] = gc_forwards
    m["gradcheck.forward_ms"] = gc_forward_s / gc_forwards * ms if gc_forwards else 0.0
    # run_model_check makes one taped forward and two determinism forwards
    # before probing; every other forward belongs to a coordinate probe.
    m["gradcheck.forwards_per_coord"] = (
        (gc_forwards - 3 * calls("gradcheck.run_model_check")) / coords_per_check
        if gc_forwards and coords_per_check else 0.0)
    return m


def write_spans(path: str, tracer: Tracer) -> None:
    """One JSON document holding the spans column-wise; times in seconds from the first span."""
    t0 = tracer.start[0] if len(tracer) else 0.0
    doc = {"names": tracer.names, "name": list(tracer.name_id),
           "start_s": [round(t - t0, 7) for t in tracer.start],
           "end_s": [round(t - t0, 7) for t in tracer.end],
           "parent": list(tracer.parent)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
