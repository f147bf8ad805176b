"""Adam training on audio-visual segment triples, plus a synthetic dataset.

The loop is plain MSE regression on log-Mel values: stack a batch, run the
network with train-mode batch norm, backpropagate, apply one bias-corrected
Adam update, repeat. Everything is seeded, so a config run twice produces a
bit-identical loss history.

The synthetic generator stands in for a real corpus at desk scale. A clean
"voice" is a handful of harmonics under slow amplitude modulation with a
faint broadband pedestal; interference is filtered white noise or a tonal
cluster; the video track is a moving bright ellipse whose vertical aperture
follows the audio envelope, which gives the fusion path an actually useful
visual cue. Clips are mixed at a uniformly drawn SNR and cut into aligned
triples by the regular front end.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dsp import (
    HOP,
    SAMPLE_RATE,
    SEG_FRAMES,
    SEG_VIDEO_FRAMES,
    VIDEO_FPS,
    VIDEO_HW,
    WIN_LEN,
    AudioClip,
    MelSegment,
    VideoSegment,
    make_segment_pairs,
)
from .formats import load_mten, save_loss_csv, save_mten
from .model import (
    FusionStrategy,
    MffcnParams,
    init_params,
    mffcn_forward,
    save_model,
    scaled_filters,
)
from .tensor import NonFiniteError, Tape, Tensor

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    steps: int = 100
    seed: int = 0
    learning_rate: float = 0.0002
    batch_size: int = 8
    snr_range_db: Tuple[float, float] = (-10.0, 10.0)
    strategy: FusionStrategy = FusionStrategy.MULTILAYER
    width_divisor: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise TrainError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise TrainError(f"batch size must be at least 1, got {self.batch_size}")
        if self.steps < 0:
            raise TrainError(f"step count must be non-negative, got {self.steps}")
        lo, hi = self.snr_range_db
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise TrainError(f"SNR range bounds must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise TrainError(f"SNR range must be ordered, got [{lo}, {hi}]")
        scaled_filters(self.width_divisor)  # raises on a bad divisor

    @classmethod
    def from_file(cls, path: str, **overrides) -> "TrainConfig":
        """Flat key=value config; blank lines and #-comments skipped."""
        items: Dict[str, str] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise TrainError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                items[key.strip()] = value.strip()
        kwargs: Dict[str, object] = {}
        snr_lo, snr_hi = -10.0, 10.0
        for key, value in items.items():
            if key == "steps":
                kwargs["steps"] = int(value)
            elif key == "seed":
                kwargs["seed"] = int(value)
            elif key == "learning_rate":
                kwargs["learning_rate"] = float(value)
            elif key == "batch_size":
                kwargs["batch_size"] = int(value)
            elif key == "snr_low":
                snr_lo = float(value)
            elif key == "snr_high":
                snr_hi = float(value)
            elif key == "strategy":
                kwargs["strategy"] = FusionStrategy.from_name(value)
            elif key == "width_divisor":
                kwargs["width_divisor"] = int(value)
            else:
                raise TrainError(f"{path}: unknown config key {key!r}")
        if "snr_low" in items or "snr_high" in items:
            kwargs["snr_range_db"] = (snr_lo, snr_hi)
        kwargs.update(overrides)
        return cls(**kwargs)


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def initial(cls, named: Sequence[Tuple[str, Tensor]]) -> "AdamState":
        m = {name: np.zeros_like(t.data) for name, t in named}
        v = {name: np.zeros_like(t.data) for name, t in named}
        return cls(m=m, v=v)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.dims != target.dims:
        raise TrainError(f"loss shapes differ: {pred.dims} vs {target.dims}")
    diff = pred - target
    return (diff * diff).mean()


def adam_step(named: Sequence[Tuple[str, Tensor]], state: AdamState, lr: float) -> None:
    """One in-place bias-corrected update; gradients must all be present."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for name, p in named:
        if p.grad is None:
            raise TrainError(f"parameter {name!r} has no gradient")
        g = np.asarray(p.grad, dtype=p.data.dtype)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + state.eps)
        p.data -= (lr * update).astype(p.data.dtype)


# ----------------------------------------------------------------------------
# Synthetic data
# ----------------------------------------------------------------------------

@dataclass
class SynthItem:
    noisy: MelSegment
    video: VideoSegment
    clean: MelSegment
    snr_db: float = math.nan
    clip_index: int = -1

    def __iter__(self):
        return iter((self.noisy, self.video, self.clean))


def _clean_voice(rng: np.random.Generator) -> Tuple[AudioClip, np.ndarray]:
    """Harmonic stack under slow amplitude modulation; returns clip and envelope."""
    n = SAMPLE_RATE
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(90.0, 220.0)
    x = np.zeros(n)
    for h in range(1, int(rng.integers(2, 5)) + 1):
        amp = rng.uniform(0.5, 1.0) / h
        x += amp * np.sin(2.0 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi))
    rate = rng.uniform(2.0, 6.0)
    depth = rng.uniform(0.3, 0.9)
    env = 1.0 - depth * (0.5 - 0.5 * np.cos(2.0 * np.pi * rate * t + rng.uniform(0, 2 * np.pi)))
    x *= env
    # a -35 dB pedestal keeps the quiet Mel bands off the log floor
    rms = np.sqrt(np.mean(x ** 2))
    x += rng.standard_normal(n) * rms * 10.0 ** (-35.0 / 20.0)
    x *= rng.uniform(0.5, 0.9) / np.max(np.abs(x))
    return AudioClip(x), env


def _interference(rng: np.random.Generator) -> AudioClip:
    n = SAMPLE_RATE
    if rng.uniform() < 0.5:
        taps = int(rng.integers(3, 16))
        x = np.convolve(rng.standard_normal(n), np.ones(taps) / taps, mode="same")
    else:
        t = np.arange(n) / SAMPLE_RATE
        x = 0.05 * rng.standard_normal(n)
        for f in rng.uniform(300.0, 3000.0, size=3):
            x += rng.uniform(0.3, 1.0) * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x *= 0.9 / np.max(np.abs(x))
    return AudioClip(x)


def _mouth_video(rng: np.random.Generator, env: np.ndarray) -> np.ndarray:
    """Bright ellipse whose vertical aperture tracks the audio envelope."""
    n_frames = VIDEO_FPS  # one second of video
    samples_per_frame = env.size // n_frames
    centers = np.arange(n_frames) * samples_per_frame + samples_per_frame // 2
    env_f = env[centers]
    spread = np.ptp(env_f)
    aperture = 3.0 + 12.0 * (env_f - env_f.min()) / (spread if spread > 0 else 1.0)

    h, w = VIDEO_HW
    yy, xx = np.mgrid[0:h, 0:w]
    cx = 40.0 + np.clip(np.cumsum(rng.normal(0.0, 0.6, size=n_frames)), -6.0, 6.0)
    cy = 40.0 + np.clip(np.cumsum(rng.normal(0.0, 0.6, size=n_frames)), -6.0, 6.0)
    half_width = rng.uniform(10.0, 15.0)
    background = rng.uniform(0.05, 0.15)

    frames = np.empty((n_frames, h, w))
    for f in range(n_frames):
        r = ((xx - cx[f]) / half_width) ** 2 + ((yy - cy[f]) / aperture[f]) ** 2
        frame = np.where(r <= 1.0, 0.85, background)
        frame = frame + rng.normal(0.0, 0.02, size=frame.shape)
        frames[f] = np.clip(frame, 0.0, 1.0)
    return frames


def _synth_clip(seed_seq: np.random.SeedSequence, clip_index: int,
                snr_range_db: Tuple[float, float]) -> List[SynthItem]:
    rng = np.random.Generator(np.random.PCG64(seed_seq))
    clean, env = _clean_voice(rng)
    noise = _interference(rng)
    video = _mouth_video(rng, env)
    snr_db = float(rng.uniform(*snr_range_db))
    triples = make_segment_pairs(clean, noise, video, snr_db, clip_id=f"synth{clip_index}")
    return [SynthItem(tr.noisy, tr.video, tr.clean, snr_db, clip_index) for tr in triples]


def synth_dataset(seed: int, n_items: int,
                  snr_range_db: Tuple[float, float] = (-10.0, 10.0)) -> List[SynthItem]:
    """Deterministic synthetic triples; one clip yields four of them.

    Clip seeds are spawned up front, so the result is identical whether the
    clips are built serially or by the MFFCN_THREADS worker pool.
    """
    if n_items < 1:
        raise TrainError(f"need at least one item, got {n_items}")
    # one-second clip: 97 spectrogram frames -> 4 audio segments, the binding cut
    audio_frames = 1 + (SAMPLE_RATE - WIN_LEN) // HOP
    triples_per_clip = min(audio_frames // SEG_FRAMES, VIDEO_FPS // SEG_VIDEO_FRAMES)
    n_clips = -(-n_items // triples_per_clip)
    children = np.random.SeedSequence(seed).spawn(n_clips)
    workers = int(os.environ.get("MFFCN_THREADS", "1"))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(
                lambda k: _synth_clip(children[k], k, snr_range_db), range(n_clips)))
    else:
        chunks = [_synth_clip(children[k], k, snr_range_db) for k in range(n_clips)]
    items = [item for chunk in chunks for item in chunk]
    return items[:n_items]


def save_dataset(dirpath: str, items: Sequence[SynthItem]) -> None:
    """One MTEN file per tensor: NNNNN.{noisy,video,clean}.mten."""
    os.makedirs(dirpath, exist_ok=True)
    for k, item in enumerate(items):
        save_mten(os.path.join(dirpath, f"{k:05d}.noisy.mten"), item.noisy.values)
        save_mten(os.path.join(dirpath, f"{k:05d}.video.mten"), item.video.frames)
        save_mten(os.path.join(dirpath, f"{k:05d}.clean.mten"), item.clean.values)


def load_dataset(dirpath: str) -> List[SynthItem]:
    """Read triples written by save_dataset (or any pre-extracted corpus)."""
    items = []
    k = 0
    while True:
        noisy_path = os.path.join(dirpath, f"{k:05d}.noisy.mten")
        if not os.path.exists(noisy_path):
            break
        noisy = load_mten(noisy_path)
        video = load_mten(os.path.join(dirpath, f"{k:05d}.video.mten"))
        clean = load_mten(os.path.join(dirpath, f"{k:05d}.clean.mten"))
        items.append(SynthItem(
            MelSegment(noisy, origin=f"{dirpath}:{k}/noisy"),
            VideoSegment(video, origin=f"{dirpath}:{k}/video"),
            MelSegment(clean, origin=f"{dirpath}:{k}/clean"),
            clip_index=k))
        k += 1
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
    for name, t in named:
        if not np.all(np.isfinite(t.data)):
            return name
    return None


def _stack_batch(items: Sequence[SynthItem]) -> Tuple[Tensor, Tensor, Tensor]:
    y = np.stack([item.noisy.values[None, :, :] for item in items])
    v = np.stack([item.video.frames for item in items])
    tgt = np.stack([item.clean.values[None, :, :] for item in items])
    return Tensor(y), Tensor(v), Tensor(tgt)


def train(config: TrainConfig, data: Sequence[SynthItem],
          params: Optional[MffcnParams] = None,
          checkpoint_path: Optional[str] = None,
          loss_csv_path: Optional[str] = None) -> TrainResult:
    """Run the optimizer; see the module docstring for the step recipe.

    Batches walk a seeded permutation of the dataset, reshuffled per epoch.
    A non-finite loss, gradient, or parameter aborts with the step index and
    the first offending parameter's name.
    """
    if len(data) == 0:
        raise TrainError("training data is empty")
    if params is None:
        params = init_params(config.seed, config.strategy, config.width_divisor)
    elif params.strategy is not config.strategy:
        raise TrainError(
            f"config says {config.strategy.value}, parameters say {params.strategy.value}")
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

        y, v, tgt = _stack_batch(batch)
        try:
            with Tape() as tape:
                pred = mffcn_forward(y, v, params, mode="train")
                loss = mse_loss(pred, tgt)
                tape.backward(loss)
        except NonFiniteError as exc:
            culprit = _first_nonfinite(params.named)
            where = f"parameter {culprit!r}" if culprit else "an intermediate value"
            raise TrainError(f"step {step}: forward/backward hit non-finite values "
                             f"in {where}: {exc}") from exc
        loss_value = loss.item()
        if not math.isfinite(loss_value):
            culprit = _first_nonfinite(params.named) or "loss"
            raise TrainError(f"step {step}: loss is non-finite (culprit: {culprit})")
        adam_step(params.named, adam, config.learning_rate)
        culprit = _first_nonfinite(params.named)
        if culprit is not None:
            raise TrainError(f"step {step}: parameter {culprit!r} became non-finite")
        for _, p in params.named:
            p.zero_grad()
        history.append(loss_value)

    if checkpoint_path is not None:
        save_model(checkpoint_path, params)
    if loss_csv_path is not None:
        save_loss_csv(loss_csv_path, history)
    return TrainResult(loss_history=history, params=params, adam=adam)
