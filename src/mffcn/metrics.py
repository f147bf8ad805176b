"""Enhancement scoring: intelligibility, waveform fidelity, Mel distance.

The intelligibility score follows the published short-time objective
intelligibility recipe: both signals go to 10 kHz, silent reference frames
are dropped, a 512-point spectrogram is pooled into fifteen 1/3-octave
bands, and clipped normalized correlations over 30-frame (384 ms) segments
are averaged. Waveform fidelity is scale-invariant SDR, capped at +-60 dB.
The Mel-domain distance is the mean over segments of their RMS log-Mel difference.

The network emits Mel spectrograms, not waveforms, so waveform metrics are
computed on a defined proxy: the ratio of enhanced to noisy Mel energy is
mapped back to spectrogram bins through the (column-normalized) filterbank
transpose and applied as a gain to the noisy STFT, which is then inverted
by weighted overlap-add. The same construction is applied to every
strategy, so comparisons across rows of the ablation table are fair even
though absolute values would differ from a vocoder pipeline.

numpy is the only runtime import: the resampling to 10 kHz is
`dsp.resample_poly`, a polyphase FIR that matches scipy.signal's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .dsp import (
    HOP,
    SAMPLE_RATE,
    SEG_FRAMES,
    WIN_LEN,
    AudioClip,
    MelSegment,
    hann_window,
    log_mel_values,
    mel_filterbank,
    mix_at_snr,
    make_segment_pairs,
    resample_poly,
    stft,
)
from .model import FusionStrategy, MffcnParams, enhance_segments
from .synth import draw_clip
from .train import TrainConfig, synth_dataset, train

STOI_RATE = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_FFT = 512
STOI_N_BANDS = 15
STOI_BAND_F0 = 150.0
STOI_SEG_FRAMES = 30          # 384 ms at the metric's frame rate
STOI_DYN_RANGE_DB = 40.0
STOI_CLIP_FACTOR = 10.0 ** (15.0 / 20.0)  # -15 dB lower SDR bound
SDR_CAP_DB = 60.0


class MetricError(ValueError):
    pass


# ----------------------------------------------------------------------------
# Intelligibility
# ----------------------------------------------------------------------------

def _stoi_frames(x: np.ndarray) -> np.ndarray:
    """Hann-windowed [frames, 256] at hop 128; no end padding."""
    if x.size < STOI_FRAME:
        return np.empty((0, STOI_FRAME))
    return np.lib.stride_tricks.sliding_window_view(x, STOI_FRAME)[::STOI_HOP] * hann_window(STOI_FRAME)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum [n, k*hop] frames laid hop apart; each hop block adds them in frame order."""
    n, k = frames.shape[0], frames.shape[1] // hop
    out = np.zeros((n + k - 1, hop))
    for j in reversed(range(k)):
        out[j:j + n] += frames[:, j * hop:(j + 1) * hop]
    return out.ravel()


def _remove_silent_frames(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop frames whose reference energy is 40 dB under the loudest frame.

    Kept frames are windowed and re-laid with 50% overlap-add, shrinking
    both signals identically, as the published recipe prescribes.
    """
    xf, yf = _stoi_frames(x), _stoi_frames(y)
    energy_db = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + 1e-12)
    keep = energy_db > energy_db.max(initial=-np.inf) - STOI_DYN_RANGE_DB
    return _overlap_add(xf[keep], STOI_HOP), _overlap_add(yf[keep], STOI_HOP)


@lru_cache(maxsize=1)
def _third_octave_bands() -> np.ndarray:
    """[15, 257] membership matrix over the 512-point rfft bins at 10 kHz."""
    freqs = np.fft.rfftfreq(STOI_FFT, 1.0 / STOI_RATE)
    bands = np.zeros((STOI_N_BANDS, freqs.size))
    for j in range(STOI_N_BANDS):
        center = STOI_BAND_F0 * 2.0 ** (j / 3.0)
        lo = center * 2.0 ** (-1.0 / 6.0)
        hi = center * 2.0 ** (1.0 / 6.0)
        bands[j] = (freqs >= lo) & (freqs < hi)
    bands.flags.writeable = False
    return bands


def stoi(clean: AudioClip, processed: AudioClip) -> float:
    """Short-time objective intelligibility in [0, 1]."""
    if clean.samples.size != processed.samples.size:
        raise MetricError(
            f"length mismatch: {clean.samples.size} vs {processed.samples.size}")
    if not np.any(clean.samples):
        raise MetricError("reference signal is silent")

    x = resample_poly(clean.samples, STOI_RATE, SAMPLE_RATE)
    y = resample_poly(processed.samples, STOI_RATE, SAMPLE_RATE)
    x, y = _remove_silent_frames(x, y)

    xf, yf = _stoi_frames(x), _stoi_frames(y)
    n_frames = xf.shape[0]
    if n_frames < STOI_SEG_FRAMES:
        raise MetricError(
            f"{n_frames} non-silent frames, need {STOI_SEG_FRAMES} (384 ms)")

    bands = _third_octave_bands()
    X = np.abs(np.fft.rfft(xf, STOI_FFT, axis=1)) ** 2
    Y = np.abs(np.fft.rfft(yf, STOI_FFT, axis=1)) ** 2
    xb = np.sqrt(bands @ X.T)          # [bands, frames]
    yb = np.sqrt(bands @ Y.T)

    # Segments as contiguous [segments, bands, 30], so each reduction sums the
    # same 30 adjacent values in the same order as a per-segment loop would.
    # Zero-norm guards are applied only where a norm is exactly zero. An
    # additive epsilon would perturb alpha by a scale-dependent amount and
    # break the bit-level invariance to binary gains that division by an
    # exactly scaled norm otherwise gives.
    xs, ys = (np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(
        b, STOI_SEG_FRAMES, axis=1).transpose(1, 0, 2)) for b in (xb, yb))
    ny = np.linalg.norm(ys, axis=2)
    alpha = np.linalg.norm(xs, axis=2) / np.where(ny == 0.0, 1.0, ny)
    ys = np.minimum(ys * alpha[..., None], xs * (1.0 + STOI_CLIP_FACTOR))
    xs = xs - xs.mean(axis=2, keepdims=True)
    ys = ys - ys.mean(axis=2, keepdims=True)
    denom = np.linalg.norm(xs, axis=2) * np.linalg.norm(ys, axis=2)
    num = (xs * ys).sum(axis=2)
    corr = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)
    return float(np.mean(corr.mean(axis=1)))


# ----------------------------------------------------------------------------
# Waveform fidelity and Mel distance
# ----------------------------------------------------------------------------

def si_sdr(clean: AudioClip, processed: AudioClip) -> float:
    """Scale-invariant SDR in dB, capped to [-60, 60]."""
    x = clean.samples
    y = processed.samples
    if x.size != y.size:
        raise MetricError(f"length mismatch: {x.size} vs {y.size}")
    ex = float(np.dot(x, x))
    if ex == 0.0:
        raise MetricError("clean signal has zero energy")
    if not np.any(y):
        raise MetricError("processed signal has zero energy")
    alpha = float(np.dot(y, x)) / ex
    target = alpha * x
    residual = y - target
    pt = float(np.dot(target, target))
    pr = float(np.dot(residual, residual))
    if pr == 0.0:
        return SDR_CAP_DB
    if pt == 0.0:
        return -SDR_CAP_DB
    return float(np.clip(10.0 * np.log10(pt / pr), -SDR_CAP_DB, SDR_CAP_DB))


def log_spectral_distance(a: Sequence[MelSegment], b: Sequence[MelSegment]) -> float:
    """Mean over aligned segment pairs of the RMS difference of their log-Mel values."""
    if len(a) != len(b):
        raise MetricError(f"segment count mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise MetricError("no segments given")
    rms = [np.sqrt(np.mean((x.values.astype(np.float64) - y.values.astype(np.float64)) ** 2))
           for x, y in zip(a, b)]
    return float(np.mean(rms))


# ----------------------------------------------------------------------------
# Mel-gain waveform proxy
# ----------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _istft_envelope(n_frames: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only mask of the samples the squared windows of n_frames frames cover, and their sum there."""
    w = hann_window(WIN_LEN)
    norm = _overlap_add(np.broadcast_to(w ** 2, (n_frames, WIN_LEN)), HOP)
    good = norm > 1e-10
    divisor = norm[good]
    good.flags.writeable = False
    divisor.flags.writeable = False
    return good, divisor


def _istft(spec: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of the analysis in dsp.stft."""
    out = _overlap_add(np.fft.irfft(spec.T, n=WIN_LEN, axis=1) * hann_window(WIN_LEN), HOP)
    good, divisor = _istft_envelope(spec.shape[1])
    out[good] /= divisor
    return out


@lru_cache(maxsize=1)
def _proxy_weights() -> Tuple[np.ndarray, np.ndarray]:
    """Read-only column-normalized filterbank, and the mask of bins outside every triangle."""
    fb = mel_filterbank()
    colsum = fb.sum(axis=0)
    weights = np.divide(fb, colsum, out=np.zeros_like(fb), where=colsum > 0)
    outside = colsum == 0
    weights.flags.writeable = False
    outside.flags.writeable = False
    return weights, outside


def mel_gain_proxy(noisy: AudioClip, enhanced: Sequence[MelSegment]) -> AudioClip:
    """Waveform carrying the enhanced Mel energies on the noisy phase.

    The enhanced/noisy Mel power ratio becomes a per-bin gain through the
    column-normalized filterbank transpose; bins outside every triangle
    pass through unchanged.
    """
    if not enhanced:
        raise MetricError("no enhanced segments given")
    spec = stft(noisy)
    n_frames = len(enhanced) * SEG_FRAMES
    if spec.shape[1] < n_frames:
        raise MetricError(
            f"noisy clip gives {spec.shape[1]} frames, segments need {n_frames}")
    spec = spec[:, :n_frames]

    noisy_log = log_mel_values(spec)
    enhanced_log = np.concatenate([seg.values.astype(np.float64) for seg in enhanced], axis=1)
    mel_gain = np.exp(enhanced_log - noisy_log)

    weights, outside = _proxy_weights()
    bin_gain = weights.T @ mel_gain
    bin_gain[outside, :] = 1.0

    wave = _istft(spec * np.sqrt(bin_gain))
    peak = np.max(np.abs(wave))
    if peak > 1.0:
        wave = wave / peak
    return AudioClip(wave)


# ----------------------------------------------------------------------------
# Reports and the ablation harness
# ----------------------------------------------------------------------------

@dataclass
class ItemScore:
    stoi_pct: float
    si_sdr_db: float
    log_spectral_distance: float


@dataclass
class EvalReport:
    strategy: str
    snr_db: float
    seed: int
    items: List[ItemScore]

    def __post_init__(self):
        if not self.items:
            raise MetricError("a report needs at least one scored item")
        for item in self.items:
            if not -1e-9 <= item.stoi_pct <= 100.0 + 1e-9:
                raise MetricError(f"intelligibility out of range: {item.stoi_pct}")

    @property
    def mean_stoi_pct(self) -> float:
        return float(np.mean([i.stoi_pct for i in self.items]))

    @property
    def mean_si_sdr_db(self) -> float:
        return float(np.mean([i.si_sdr_db for i in self.items]))

    @property
    def mean_log_spectral_distance(self) -> float:
        return float(np.mean([i.log_spectral_distance for i in self.items]))

    def is_finite(self) -> bool:
        return all(math.isfinite(i.stoi_pct) and math.isfinite(i.si_sdr_db)
                   and math.isfinite(i.log_spectral_distance) for i in self.items)


def evaluate_params(params: MffcnParams, snr_db: float, seed: int,
                    n_clips: int = 2) -> EvalReport:
    """Score a model on freshly synthesized mixtures at one fixed SNR."""
    if not math.isfinite(snr_db):
        raise MetricError(f"evaluation SNR must be finite, got {snr_db} dB")
    if n_clips < 1:
        raise MetricError(f"evaluation needs at least one clip, got {n_clips}")
    # the clips' seed tag: the SNR's tenfold, rounded, mod 2**16 (exact where 10x overflows)
    tenfold = snr_db * 10
    tag = int(round(tenfold)) if math.isfinite(tenfold) else int(snr_db) * 10
    children = np.random.SeedSequence([seed, tag & 0xFFFF]).spawn(n_clips)
    scores = []
    for k in range(n_clips):
        rng = np.random.Generator(np.random.PCG64(children[k]))
        clean, noise, video = draw_clip(rng)
        mix = mix_at_snr(clean, noise, snr_db)
        triples = make_segment_pairs(mix, video)

        enhanced = enhance_segments([t.noisy for t in triples], [t.video for t in triples], params)
        proxy = mel_gain_proxy(mix.clip, enhanced)
        reference = AudioClip(mix.clean.samples[:proxy.samples.size])
        lsd = log_spectral_distance(enhanced, [t.clean for t in triples])
        # raw band correlations can dip below zero on badly damaged audio;
        # the report's percentage scale floors at no-intelligibility
        scores.append(ItemScore(
            stoi_pct=max(0.0, 100.0 * stoi(reference, proxy)),
            si_sdr_db=si_sdr(reference, proxy),
            log_spectral_distance=lsd))
    return EvalReport(strategy=params.strategy.value, snr_db=snr_db,
                      seed=seed, items=scores)


def run_ablation(seed: int = 0, width_divisor: int = 8, train_steps: int = 50,
                 train_items: int = 8, batch_size: int = 4,
                 learning_rate: float = 0.0002,
                 snrs_db: Sequence[float] = (0.0, -5.0)) -> List[EvalReport]:
    """Train every wiring identically, score each at every SNR on 2 clips.

    The training set, seeds, step budget, and evaluation mixtures are shared
    across strategies, so rows differ only by topology.
    """
    data = synth_dataset(seed, train_items)
    reports = []
    for strategy in FusionStrategy:
        config = TrainConfig(steps=train_steps, seed=seed,
                             learning_rate=learning_rate, batch_size=batch_size,
                             strategy=strategy, width_divisor=width_divisor)
        result = train(config, data)
        for snr_db in snrs_db:
            reports.append(evaluate_params(result.params, snr_db, seed))
    return reports


ABLATION_HEADER = (
    "# intelligibility (0-100), scale-invariant SDR (dB), log-spectral RMS\n"
    "# SDR + Mel distance stand in for perceptual scores at desk scale\n")


def ablation_to_csv(reports: Sequence[EvalReport]) -> str:
    lines = ["strategy,snr_db,stoi_pct,si_sdr_db,log_spectral_distance"]
    for r in reports:
        lines.append(f"{r.strategy},{r.snr_db:g},{r.mean_stoi_pct:.4f},"
                     f"{r.mean_si_sdr_db:.4f},{r.mean_log_spectral_distance:.4f}")
    return "\n".join(lines) + "\n"


def format_ablation(reports: Sequence[EvalReport]) -> str:
    """Aligned-column text table of a full strategy x SNR grid: a row per strategy, a group per SNR."""
    snrs = sorted({r.snr_db for r in reports}, reverse=True)
    strategies = []
    for r in reports:
        if r.strategy not in strategies:
            strategies.append(r.strategy)
    by_key: Dict[Tuple[str, float], EvalReport] = {
        (r.strategy, r.snr_db): r for r in reports}

    width = max(len("strategy"), max(len(s) for s in strategies)) + 2
    header = "strategy".ljust(width)
    for snr in snrs:
        header += f"| {snr:+.0f} dB: intel  sdr    lsd   "
    rows = [ABLATION_HEADER.rstrip("\n"), header, "-" * len(header)]
    for s in strategies:
        row = s.ljust(width)
        for snr in snrs:
            r = by_key[(s, snr)]
            row += (f"| {r.mean_stoi_pct:6.2f} {r.mean_si_sdr_db:+6.2f} "
                    f"{r.mean_log_spectral_distance:6.3f} ")
        rows.append(row)
    return "\n".join(rows) + "\n"
