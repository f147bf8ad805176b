"""Adam training on audio-visual segment triples, plus a synthetic dataset.

The loop is plain MSE regression on log-Mel values: stack a batch, run the
network with train-mode batch norm, backpropagate, apply one bias-corrected
Adam update, repeat. Everything is seeded, so a config run twice produces a
bit-identical loss history.

Training first lays the parameters out as views of one flat buffer
(tensor.FlatParams; a later call on the same tensors re-uses the layout).
Gradients land in one matching flat buffer and the Adam moments are flat
too, so each update is a few whole-vector ufuncs per block of ADAM_BLOCK
elements, and the post-step finite check scans each block right after its
update, while it is still in cache.

The synthetic dataset draws its clips from synth.draw_clip, mixes each once
at a uniformly drawn SNR (dsp.mix_at_snr) and cuts the mixture into aligned
triples by the regular front end (dsp.make_segment_pairs).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dsp import DspError, MelSegment, SegmentTriple, VideoSegment, make_segment_pairs, mix_at_snr
from .formats import FormatError, in_file, load_mten, save_loss_csv, save_mten
from .model import (
    FusionStrategy,
    MffcnParams,
    init_params,
    mffcn_forward,
    save_model,
    scaled_filters,
    segment_batch,
)
from .synth import draw_clip
from .tensor import FlatParams, NonFiniteError, Tape, Tensor, flatten

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 16  # elements per block of the flat Adam update
# A part file as save_dataset names it: the item index as "{k:05d}", then the part.
_PART_RE = re.compile(r"(0\d{4}|[1-9]\d{4,})\.(?:noisy|video|clean)\.mten")


class TrainError(RuntimeError):
    """Bad training configuration or data; a numeric abort raises tensor.NonFiniteError."""


@dataclass
class TrainConfig:
    steps: int = 100
    seed: int = 0
    learning_rate: float = 0.0002
    batch_size: int = 8
    strategy: FusionStrategy = FusionStrategy.MULTILAYER
    width_divisor: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be at least 1, got {self.batch_size}")
        if self.steps < 0:
            raise TrainError(f"step count must be non-negative, got {self.steps}")
        scaled_filters(self.width_divisor)  # raises on a bad divisor


@dataclass
class AdamState:
    """Flat first/second moment buffers over one parameter layout, and the step counter."""

    flat: FlatParams
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, named: Sequence[Tuple[str, Tensor]]) -> "AdamState":
        """Zero moments over the parameters, laid out as views of one flat buffer."""
        flat = flatten([t for _, t in named])
        return cls(flat=flat, m=np.zeros_like(flat.data), v=np.zeros_like(flat.data))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.dims != target.dims:
        raise TrainError(f"loss shapes differ: {pred.dims} vs {target.dims}")
    diff = pred - target
    return (diff * diff).mean()


def adam_step(named: Sequence[Tuple[str, Tensor]], state: AdamState, lr: float) -> bool:
    """One in-place bias-corrected update; True when every updated parameter is finite.

    Gradients must all be present, each in its tensor's slot of the flat
    gradient buffer, where a backward pass puts it, and each parameter's
    ``data`` must still be its view of the layout. The update runs over the
    flat buffers in blocks of ADAM_BLOCK elements, through two
    block-sized work vectors, with the same operations, order and
    Python-float constants as the per-tensor formula m = b1*m + (1-b1)*g;
    v = b2*v + (1-b2)*g*g; p -= lr * (m/c1) / (sqrt(v/c2) + eps). Each block
    of parameters is scanned for NaN/Inf right after its update, into a
    third work vector.
    """
    flat = state.flat
    if len(named) != len(flat.views):
        raise TrainError(f"Adam state holds {len(flat.views)} parameters, got {len(named)}")
    for (name, p), view, slot in zip(named, flat.views, flat.slots):
        if p.grad is None:
            raise TrainError(f"parameter {name!r} has no gradient")
        if p.data is not view or p.grad is not slot:
            raise TrainError(f"parameter {name!r} or its gradient is not in the Adam state's layout")
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    n = flat.data.size
    work_a = np.empty(min(n, ADAM_BLOCK), dtype=flat.data.dtype)
    work_b = np.empty_like(work_a)
    finite_mask = np.empty(work_a.size, dtype=bool)
    finite = True
    for lo in range(0, n, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, n)
        g, m, v = flat.grad[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = work_a[:hi - lo], work_b[:hi - lo]
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, g, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, g, out=a)
        a *= g
        v += a
        np.divide(m, c1, out=a)
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        a *= lr
        block = flat.data[lo:hi]
        block -= a
        finite = finite and bool(np.isfinite(block, out=finite_mask[:hi - lo]).all())
    return finite


# ----------------------------------------------------------------------------
# Synthetic data
# ----------------------------------------------------------------------------

def synth_dataset(seed: int, n_items: int,
                  snr_range_db: Tuple[float, float] = (-10.0, 10.0)) -> List[SegmentTriple]:
    """Deterministic synthetic triples, cut from clip after clip until there are n_items.

    Each clip is seeded by the next child spawned from the dataset seed and
    draws its signals, then its SNR uniformly from the finite, ordered range,
    whose width float64 must hold.
    """
    if n_items < 1:
        raise TrainError(f"need at least one item, got {n_items}")
    lo, hi = snr_range_db
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise TrainError(f"SNR range bounds must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise TrainError(f"SNR range must be ordered, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise TrainError(f"SNR range [{lo}, {hi}] is too wide for float64 to draw from")
    seeds = np.random.SeedSequence(seed)
    items: List[SegmentTriple] = []
    while len(items) < n_items:
        rng = np.random.Generator(np.random.PCG64(seeds.spawn(1)[0]))
        clean, noise, video = draw_clip(rng)
        items += make_segment_pairs(mix_at_snr(clean, noise, float(rng.uniform(lo, hi))), video)
    return items[:n_items]


def save_dataset(dirpath: str, items: Sequence[SegmentTriple]) -> None:
    """One MTEN file per tensor: NNNNN.{noisy,video,clean}.mten."""
    os.makedirs(dirpath, exist_ok=True)
    for k, item in enumerate(items):
        save_mten(os.path.join(dirpath, f"{k:05d}.noisy.mten"), item.noisy.values)
        save_mten(os.path.join(dirpath, f"{k:05d}.video.mten"), item.video.frames)
        save_mten(os.path.join(dirpath, f"{k:05d}.clean.mten"), item.clean.values)


def load_dataset(dirpath: str) -> List[SegmentTriple]:
    """Read triples written by save_dataset (or any pre-extracted corpus).

    Items run from 00000 to the highest index among the part files. A part
    that is missing, unreadable or not a valid segment raises a FormatError
    naming its file and the item index.
    """
    names = os.listdir(dirpath) if os.path.isdir(dirpath) else []
    count = max((int(m.group(1)) + 1 for m in map(_PART_RE.fullmatch, names) if m), default=0)
    items = []
    for k in range(count):
        parts = []
        for kind, segment in (("noisy", MelSegment), ("video", VideoSegment), ("clean", MelSegment)):
            path = os.path.join(dirpath, f"{k:05d}.{kind}.mten")
            with in_file(path):
                try:
                    parts.append(segment(load_mten(path)))
                except (OSError, FormatError, DspError) as exc:
                    detail = exc.strerror if isinstance(exc, OSError) else exc.args[0]
                    raise FormatError(f"item {k}: {detail}") from None
        items.append(SegmentTriple(*parts))
    if not items:
        raise TrainError(f"no dataset items found under {dirpath}")
    return items


# ----------------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------------

@dataclass
class TrainResult:
    loss_history: List[float]
    params: MffcnParams
    adam: AdamState


def _first_nonfinite(named: Sequence[Tuple[str, Tensor]]) -> Optional[str]:
    """Name of the first parameter that holds a NaN or Inf, if any."""
    for name, t in named:
        if not np.all(np.isfinite(t.data)):
            return name
    return None


def train(config: TrainConfig, data: Sequence[SegmentTriple],
          params: Optional[MffcnParams] = None,
          checkpoint_path: Optional[str] = None,
          loss_csv_path: Optional[str] = None) -> TrainResult:
    """Run the optimizer; see the module docstring for the step recipe.

    Batches walk a seeded permutation of the dataset, reshuffled per epoch.
    A non-finite loss, gradient, or parameter aborts with a NonFiniteError
    naming the step index and the first offending parameter.
    """
    if len(data) == 0:
        raise TrainError("training data is empty")
    if params is None:
        params = init_params(config.seed, config.strategy, config.width_divisor)
    elif params.strategy is not config.strategy:
        raise TrainError(
            f"config says {config.strategy.value}, parameters say {params.strategy.value}")
    elif params.width_divisor != config.width_divisor:
        raise TrainError(f"config says width divisor {config.width_divisor}, "
                         f"parameters say {params.width_divisor}")
    adam = AdamState.initial(params.named)
    order_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([config.seed, 0x0D5E])))
    order: List[int] = []
    history: List[float] = []

    for step in range(1, config.steps + 1):
        while len(order) < config.batch_size:
            order.extend(order_rng.permutation(len(data)).tolist())
        batch = [data[i] for i in order[:config.batch_size]]
        del order[:config.batch_size]

        y, v = segment_batch([item.noisy for item in batch], [item.video for item in batch])
        tgt = Tensor(np.stack([item.clean.values[None] for item in batch]))
        try:
            with Tape() as tape:
                pred = mffcn_forward(y, v, params, mode="train")
                loss = mse_loss(pred, tgt)
                tape.backward(loss)
        except NonFiniteError as exc:
            culprit = _first_nonfinite(params.named)
            where = f"parameter {culprit!r}" if culprit else "an intermediate value"
            raise NonFiniteError(f"step {step}: forward/backward hit non-finite values "
                                 f"in {where}: {exc}") from exc
        loss_value = loss.item()
        if not adam_step(params.named, adam, config.learning_rate):
            culprit = _first_nonfinite(params.named)
            raise NonFiniteError(f"step {step}: parameter {culprit!r} became non-finite")
        for _, p in params.named:
            p.zero_grad()
        history.append(loss_value)

    if checkpoint_path is not None:
        save_model(checkpoint_path, params)
    if loss_csv_path is not None:
        save_loss_csv(loss_csv_path, history)
    return TrainResult(loss_history=history, params=params, adam=adam)
