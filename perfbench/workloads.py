"""The four workloads: what each sets up, checks, measures and traces.

Every workload is a closed loop with one caller that drives the package
through its public functions. Inputs come only from the workload seed; the
model weights of ``infer-full`` and ``eval`` are a fixed shipped model
(initialised from seed 0), like a checkpoint a user would load.

Each workload also runs a reference case at a fixed seed before it measures.
That case is the warm-up, and its outputs are compared with the values in
``references.json``, so a wrong result fails the run whatever seed it got.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from mffcn import gradcheck, metrics, model, train
from mffcn.tensor import Tensor, TensorError, no_grad

from machine import SpeedProbe

REF_SEED = 0
FIXTURE_SEED = 0
STRATEGY = model.FusionStrategy.MULTILAYER

# train: the acceptance config of the overfit criterion.
TRAIN_WIDTH = 8
TRAIN_BATCH = 4
TRAIN_ITEMS = 16
TRAIN_REF_STEPS = 6
# Loss values of the reference run must agree to this relative error. Running
# every convolution in float64, or splitting its sums in two, moved them by at
# most 5e-6; dropping a term of batch norm's backward rule or leaving the
# transposed-conv weight gradient unflipped moved them by 4e-4 or more. (Adam
# is blind to a gradient's scale, so scale errors are left to the per-op
# gradient checks.)
TRAIN_LOSS_RTOL = 1e-4

INFER_WIDTH = 1
INFER_BATCH = 8
EVAL_WIDTH = 8
EVAL_SNRS_DB = (0.0, -5.0)
GRADCHECK_WIDTH = 16

# float32 network outputs: differences from summation order stay far below
# this share of the output's largest magnitude.
OUT_RTOL = 1e-4
# Scores computed in float64 from those outputs.
SCORE_RTOL = 1e-4
SCORE_ATOL = 1e-3


def _derived_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def close_enough(got: np.ndarray, want: np.ndarray, rtol: float) -> Tuple[bool, float]:
    """Max abs difference against rtol times the reference's largest magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False, math.inf
    diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    return diff <= rtol * max(1.0, float(np.max(np.abs(want)))), diff


class Samples:
    """Wall times of one kind of call, raw and scaled to the nominal machine speed."""

    def __init__(self):
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def __len__(self) -> int:
        return len(self.raw)


@dataclass
class Measured:
    """What one measured phase produced."""

    samples: Dict[str, Samples] = field(default_factory=lambda: {"latency": Samples()})
    outputs: list = field(default_factory=list)     # what a traced rerun must reproduce
    throughput_per_s: float = float("nan")
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> Samples:
        return self.samples["latency"]

    def outcome(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


def fixture_checkpoint(cache_dir: str, src_dir: str, width: int) -> str:
    """Path of the shipped-model checkpoint at this width, built once per checkout.

    A child process builds it, so that building does not count towards this
    process's peak memory.
    """
    path = os.path.join(cache_dir, f"{STRATEGY.value}-d{width}-seed{FIXTURE_SEED}.mffc")
    if os.path.exists(path):
        return path
    os.makedirs(cache_dir, exist_ok=True)
    part = f"{path}.{os.getpid()}.part"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from mffcn import model; "
            "model.save_model(sys.argv[2], model.init_params(int(sys.argv[3]), "
            "model.FusionStrategy.MULTILAYER, int(sys.argv[4])))")
    try:
        subprocess.run([sys.executable, "-c", code, src_dir, part, str(FIXTURE_SEED), str(width)],
                       check=True, timeout=300)
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)
    return path


class Workload:
    name = ""
    tail_pct = 75.0
    min_samples = 40        # enough that tail_pct has ten samples beyond it
    setup_repeats = 5
    trace_pairs = 3         # untraced/traced program pairs in a traced run
    calls_per_sample = 1    # latency_ms is per call: a sample's time over this

    def __init__(self, seed: int, cache_dir: str, src_dir: str):
        self.seed = seed
        self.cache_dir = cache_dir
        self.src_dir = src_dir
        self.probe = SpeedProbe()

    @staticmethod
    def samples() -> Samples:
        return Samples()

    def timed(self, samples: Samples, fn: Callable[[], object]) -> object:
        """Call fn and record its wall time, raw and at nominal machine speed."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            raw = time.perf_counter() - t0
            samples.raw.append(raw)
            samples.scaled.append(raw * self.probe.factor())

    def prepare(self) -> None:
        """Untimed one-off work before set-up, such as building a fixture."""

    def setup(self):
        """Build inputs and load or initialise parameters; returns the state."""
        raise NotImplementedError

    def reference(self, state) -> Dict[str, object]:
        """Run the fixed-seed reference case; JSON-ready outputs."""
        raise NotImplementedError

    def check_reference(self, got: Dict[str, object], want: Dict[str, object]) -> List[str]:
        """Mismatches between a reference case and its stored values."""
        raise NotImplementedError

    def measure(self, state, seconds: float) -> Measured:
        raise NotImplementedError

    def traced_program(self, state) -> Measured:
        """A fixed amount of work, so counts repeat exactly from run to run."""
        raise NotImplementedError

    def _until(self, seconds: float, count: Callable[[], int]) -> Callable[[], bool]:
        start = time.perf_counter()
        return lambda: time.perf_counter() - start < seconds or count() < self.min_samples

    def _per_call(self, seconds: float, call: Callable[[int, Measured], None],
                  count: Optional[int] = None) -> Measured:
        """Closed loop: call(k) back to back until the time and sample floor are
        met, or exactly ``count`` times."""
        out = Measured()
        running = (self._until(seconds, lambda: len(out.latency)) if count is None
                   else lambda: len(out.latency) < count)
        while running():
            k = len(out.latency)
            self.timed(out.latency, lambda: call(k, out))
        return out


# ----------------------------------------------------------------------------

@dataclass
class TrainState:
    data: list
    params: model.MffcnParams


class TrainWorkload(Workload):
    name = "train"

    def setup(self) -> TrainState:
        data = train.synth_dataset(self.seed, TRAIN_ITEMS)
        return TrainState(data, model.init_params(self.seed, STRATEGY, TRAIN_WIDTH))

    def _config(self, steps: int, seed: int) -> train.TrainConfig:
        return train.TrainConfig(steps=steps, seed=seed, batch_size=TRAIN_BATCH,
                                 strategy=STRATEGY, width_divisor=TRAIN_WIDTH)

    def reference(self, state) -> Dict[str, object]:
        result = train.train(self._config(TRAIN_REF_STEPS, REF_SEED),
                             train.synth_dataset(REF_SEED, TRAIN_ITEMS))
        return {"loss_history": [float(v) for v in result.loss_history]}

    def check_reference(self, got, want) -> List[str]:
        g, w = np.array(got["loss_history"]), np.array(want["loss_history"])
        if g.shape != w.shape:
            return [f"train: {g.size} reference losses, expected {w.size}"]
        rel = np.abs(g - w) / np.abs(w)
        if np.max(rel) > TRAIN_LOSS_RTOL:
            return [f"train: loss history departs from the reference by {np.max(rel):.2e} "
                    f"(relative) at step {int(np.argmax(rel)) + 1}"]
        return []

    def _step(self, state: TrainState, k: int, out: Measured) -> None:
        """One optimizer step through train.train."""
        config = self._config(1, _derived_seed(self.seed, k))
        try:
            loss = train.train(config, state.data, params=state.params).loss_history
        except (train.TrainError, TensorError) as exc:
            out.outcome(False, f"step {k}: {exc}")
            return
        out.outcome(len(loss) == 1 and math.isfinite(loss[0]), f"step {k}: loss {loss}")
        out.outputs.append(loss)

    def measure(self, state: TrainState, seconds: float) -> Measured:
        out = self._per_call(seconds, lambda k, o: self._step(state, k, o))
        out.throughput_per_s = TRAIN_BATCH * len(out.latency) / sum(out.latency.scaled)
        return out

    def traced_program(self, state: TrainState) -> Measured:
        return self._per_call(0.0, lambda k, o: self._step(state, k, o), count=6)


# ----------------------------------------------------------------------------

@dataclass
class InferState:
    params: model.MffcnParams
    y: np.ndarray          # [B, 1, 80, 20]
    v: np.ndarray          # [B, 5, 80, 80]


def _forward(params, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    with no_grad():
        return model.mffcn_forward(Tensor(y), Tensor(v), params, mode="eval").data


def _segments(seed: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    items = train.synth_dataset(seed, n)
    y = np.stack([it.noisy.values[None] for it in items]).astype(np.float32)
    v = np.stack([it.video.frames for it in items]).astype(np.float32)
    return y, v


class InferFullWorkload(Workload):
    name = "infer-full"
    setup_repeats = 3
    trace_pairs = 2
    b1_per_round = INFER_BATCH // 2
    min_b8 = 10

    def prepare(self) -> None:
        self.path = fixture_checkpoint(self.cache_dir, self.src_dir, INFER_WIDTH)

    def setup(self) -> InferState:
        params = model.load_model(self.path)
        y, v = _segments(self.seed, INFER_BATCH)
        return InferState(params, y, v)

    def reference(self, state: InferState) -> Dict[str, object]:
        y, v = _segments(REF_SEED, INFER_BATCH)
        b1 = _forward(state.params, y[0], v[0])
        b8 = _forward(state.params, y, v)
        return {"b1": b1.ravel().tolist(), "b8_row0": b8[0].ravel().tolist()}

    def check_reference(self, got, want) -> List[str]:
        # batch row 0 must match the stored batch-1 output of the same segment
        bad = []
        for key in ("b1", "b8_row0"):
            ok, diff = close_enough(np.array(got[key]), np.array(want["b1"]), OUT_RTOL)
            if not ok:
                bad.append(f"infer-full: {key} output departs from the reference by {diff:.3e}")
        return bad

    def _round(self, state: InferState, b1_out: Dict[int, np.ndarray], out: Measured) -> None:
        """The next half of the segments at batch 1, then all of them as one batch.

        Interleaving the two paths lets drift during the run reach both alike.
        """
        for _ in range(self.b1_per_round):
            i = len(out.latency) % INFER_BATCH
            y1 = self.timed(out.latency, lambda: _forward(state.params, state.y[i], state.v[i]))
            if i in b1_out:
                out.outcome(np.array_equal(y1, b1_out[i]),
                            f"segment {i}: repeated batch-1 forward is not bit-identical")
            else:
                b1_out[i] = y1
                out.outcome(True, "")
            out.outputs.append(y1)
        b8 = out.samples.setdefault("b8", Samples())
        y8 = self.timed(b8, lambda: _forward(state.params, state.y, state.v))
        out.outputs.append(y8)
        for i, y1 in b1_out.items():
            ok, diff = close_enough(y8[i], y1, OUT_RTOL)
            out.outcome(ok, f"segment {i}: batch-8 row differs from batch 1 by {diff:.3e}")

    def measure(self, state: InferState, seconds: float) -> Measured:
        out, b1_out = Measured(), {}
        b8_floor = lambda: len(out.samples.get("b8", ())) * self.min_samples // self.min_b8
        running = self._until(seconds, lambda: min(len(out.latency), b8_floor()))
        while running():
            self._round(state, b1_out, out)
        b8 = out.samples["b8"]
        out.throughput_per_s = INFER_BATCH / float(np.median(b8.scaled))
        out.extra["b8_ms_p50"] = float(np.median(b8.scaled)) * 1000.0
        out.extra["b8_raw_segments_per_s"] = INFER_BATCH / float(np.median(b8.raw))
        return out

    def traced_program(self, state: InferState) -> Measured:
        out, b1_out = Measured(), {}
        for _ in range(2):
            self._round(state, b1_out, out)
        return out


# ----------------------------------------------------------------------------

class EvalWorkload(Workload):
    name = "eval"

    def prepare(self) -> None:
        self.path = fixture_checkpoint(self.cache_dir, self.src_dir, EVAL_WIDTH)

    def setup(self) -> model.MffcnParams:
        return model.load_model(self.path)

    @staticmethod
    def _scores(report: metrics.EvalReport) -> List[float]:
        return [report.mean_stoi_pct, report.mean_si_sdr_db, report.mean_log_spectral_distance]

    def reference(self, params) -> Dict[str, object]:
        return {"scores": [self._scores(metrics.evaluate_params(params, snr, REF_SEED, n_clips=1))
                           for snr in EVAL_SNRS_DB]}

    def check_reference(self, got, want) -> List[str]:
        g, w = np.array(got["scores"]), np.array(want["scores"])
        if g.shape != w.shape or not np.allclose(g, w, rtol=SCORE_RTOL, atol=SCORE_ATOL):
            return [f"eval: report scores {g.tolist()} depart from the reference {w.tolist()}"]
        return []

    def _clip(self, params, k: int, out: Measured) -> None:
        snr = EVAL_SNRS_DB[k % len(EVAL_SNRS_DB)]
        try:
            report = metrics.evaluate_params(params, snr, _derived_seed(self.seed, k), n_clips=1)
        except (metrics.MetricError, TensorError, ValueError) as exc:
            out.outcome(False, f"clip {k}: {exc}")
            return
        out.outcome(report.is_finite() and len(report.items) == 1, f"clip {k}: non-finite scores")
        out.outputs.append(self._scores(report))

    def measure(self, params, seconds: float) -> Measured:
        out = self._per_call(seconds, lambda k, o: self._clip(params, k, o))
        out.throughput_per_s = len(out.latency) / sum(out.latency.scaled)
        return out

    def traced_program(self, params) -> Measured:
        return self._per_call(0.0, lambda k, o: self._clip(params, k, o), count=4)


# ----------------------------------------------------------------------------

class GradcheckWorkload(Workload):
    name = "gradcheck"
    min_samples = 0       # the model check gives about 58 chunks
    trace_pairs = 1       # a program takes half a minute
    calls_per_sample = 10  # model-check forwards per timed chunk

    @property
    def model_seed(self) -> int:
        # The 1e-4 gate is pinned on these seeds by the acceptance suite; on
        # other seeds the finite-difference probe of a nonsmooth graph can
        # straddle a kink, which is a limit of the oracle, not a failure.
        return gradcheck.DEFAULT_SEEDS[self.seed % len(gradcheck.DEFAULT_SEEDS)]

    def setup(self) -> model.MffcnParams:
        """The float64 initialisation run_model_check starts from."""
        return model.init_params(self.model_seed, STRATEGY, GRADCHECK_WIDTH, dtype=np.float64)

    def reference(self, state) -> Dict[str, object]:
        results = gradcheck.run_op_suite(seeds=(REF_SEED,))
        return {"ok": all(r.ok for r in results)}

    def check_reference(self, got, want) -> List[str]:
        return [] if got["ok"] else ["gradcheck: the op suite fails at the reference seed"]

    def _model_check(self, out: Measured):
        """run_model_check, timed in chunks of ``calls_per_sample`` forwards.

        Its one call takes half a minute, over which the machine's speed swings
        many times, so the speed probe runs between chunks (a counter on
        ``model.mffcn_forward``, removed afterwards) and each chunk is scaled
        by the probes around it, like every other sample.
        """
        chunks = out.latency
        rest = out.samples["model_check_rest"] = Samples()
        original = model.mffcn_forward
        mark = {"t": 0.0, "n": 0, "total": 0}

        def close_chunk(into: Samples) -> None:
            raw = time.perf_counter() - mark["t"]
            into.raw.append(raw)
            into.scaled.append(raw * self.probe.factor())
            mark["t"], mark["n"] = time.perf_counter(), 0

        def counted(*args, **kwargs):
            if mark["n"] == self.calls_per_sample:
                close_chunk(chunks)
            mark["n"] += 1
            mark["total"] += 1
            return original(*args, **kwargs)

        model.mffcn_forward = counted
        try:
            mark["t"] = time.perf_counter()
            result = gradcheck.run_model_check(seed=self.model_seed,
                                               width_divisor=GRADCHECK_WIDTH)
            close_chunk(chunks if mark["n"] == self.calls_per_sample else rest)
        finally:
            model.mffcn_forward = original
        out.outcome(result.ok and result.worst_err < gradcheck.REL_TOL,
                    f"{result.name}: worst {result.worst_err:.3e} {result.detail}")
        out.outputs.append(result.worst_err)
        out.extra["gradcheck_forwards"] = mark["total"]

    def measure(self, state, seconds: float) -> Measured:
        """One fixed program, whatever ``seconds`` says: the model check alone
        takes half a minute."""
        out = Measured()
        ops = out.samples["op_suite"] = Samples()
        for r in self.timed(ops, gradcheck.run_op_suite):
            out.outcome(r.ok and r.worst_err < gradcheck.REL_TOL,
                        f"{r.name}: worst {r.worst_err:.3e} {r.detail}")
            out.outputs.append(r.worst_err)
        self._model_check(out)

        model_s = sum(out.latency.scaled) + sum(out.samples["model_check_rest"].scaled)
        coords = len(model.parameter_shapes(STRATEGY, GRADCHECK_WIDTH))
        out.throughput_per_s = coords / model_s
        out.extra.update(coords=coords, gradcheck_model_s=model_s,
                         gradcheck_model_raw_s=sum(out.latency.raw)
                         + sum(out.samples["model_check_rest"].raw),
                         gradcheck_ops_s=ops.scaled[0], gradcheck_ops_raw_s=ops.raw[0])
        return out

    def traced_program(self, state) -> Measured:
        return self.measure(state, 0.0)


WORKLOADS = {w.name: w for w in (TrainWorkload, InferFullWorkload, EvalWorkload,
                                  GradcheckWorkload)}

