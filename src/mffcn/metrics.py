"""Enhancement scoring: intelligibility, waveform fidelity, Mel distance.

The intelligibility score follows the published short-time objective
intelligibility recipe: both signals go to 10 kHz, silent reference frames
are dropped, a 512-point spectrogram is pooled into fifteen 1/3-octave
bands, and clipped normalized correlations over 30-frame (384 ms) segments
are averaged. Waveform fidelity is scale-invariant SDR, capped at +-60 dB.
The Mel-domain distance is a plain RMS difference of log values.

The network emits Mel spectrograms, not waveforms, so waveform metrics are
computed on a defined proxy: the ratio of enhanced to noisy Mel energy is
mapped back to spectrogram bins through the (column-normalized) filterbank
transpose and applied as a gain to the noisy STFT, which is then inverted
by weighted overlap-add. The same construction is applied to every
strategy, so comparisons across rows of the ablation table are fair even
though absolute values would differ from a vocoder pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import resample_poly

from .dsp import (
    HOP,
    LOG_FLOOR,
    SAMPLE_RATE,
    SEG_FRAMES,
    WIN_LEN,
    AudioClip,
    MelSegment,
    hann_window,
    mel_filterbank,
    mix_at_snr,
    make_segment_pairs,
    stft,
)
from .model import FusionStrategy, MffcnParams, enhance_segments, init_params

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

def _frame_signal(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    if x.size < frame:
        return np.empty((0, frame))
    n = 1 + (x.size - frame) // hop
    strided = np.lib.stride_tricks.sliding_window_view(x, frame)[::hop]
    return strided[:n]


def _remove_silent_frames(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Drop frames whose reference energy is 40 dB under the loudest frame.

    Kept frames are windowed and re-laid with 50% overlap-add, shrinking
    both signals identically, as the published recipe prescribes.
    """
    w = hann_window(STOI_FRAME)
    xf = _frame_signal(x, STOI_FRAME, STOI_HOP) * w
    yf = _frame_signal(y, STOI_FRAME, STOI_HOP) * w
    energy_db = 20.0 * np.log10(np.linalg.norm(xf, axis=1) + 1e-12)
    keep = energy_db > energy_db.max() - STOI_DYN_RANGE_DB
    xf, yf = xf[keep], yf[keep]
    out_len = STOI_FRAME + max(xf.shape[0] - 1, 0) * STOI_HOP
    xr = np.zeros(out_len)
    yr = np.zeros(out_len)
    for m in range(xf.shape[0]):
        xr[m * STOI_HOP:m * STOI_HOP + STOI_FRAME] += xf[m]
        yr[m * STOI_HOP:m * STOI_HOP + STOI_FRAME] += yf[m]
    return xr, yr


def _third_octave_bands() -> np.ndarray:
    """[15, 257] membership matrix over the 512-point rfft bins at 10 kHz."""
    freqs = np.fft.rfftfreq(STOI_FFT, 1.0 / STOI_RATE)
    bands = np.zeros((STOI_N_BANDS, freqs.size))
    for j in range(STOI_N_BANDS):
        center = STOI_BAND_F0 * 2.0 ** (j / 3.0)
        lo = center * 2.0 ** (-1.0 / 6.0)
        hi = center * 2.0 ** (1.0 / 6.0)
        bands[j] = (freqs >= lo) & (freqs < hi)
        if not bands[j].any():
            raise MetricError(f"1/3-octave band {j} covers no FFT bin")
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

    w = hann_window(STOI_FRAME)
    xf = _frame_signal(x, STOI_FRAME, STOI_HOP) * w
    yf = _frame_signal(y, STOI_FRAME, STOI_HOP) * w
    n_frames = xf.shape[0]
    if n_frames < STOI_SEG_FRAMES:
        raise MetricError(
            f"{n_frames} non-silent frames, need {STOI_SEG_FRAMES} (384 ms)")

    bands = _third_octave_bands()
    X = np.abs(np.fft.rfft(xf, STOI_FFT, axis=1)) ** 2
    Y = np.abs(np.fft.rfft(yf, STOI_FFT, axis=1)) ** 2
    xb = np.sqrt(bands @ X.T)          # [bands, frames]
    yb = np.sqrt(bands @ Y.T)

    # Zero-norm guards are applied only where a norm is exactly zero. An
    # additive epsilon would perturb alpha by a scale-dependent amount and
    # break the bit-level invariance to binary gains that division by an
    # exactly scaled norm otherwise gives.
    scores = []
    for m in range(STOI_SEG_FRAMES - 1, n_frames):
        xs = xb[:, m - STOI_SEG_FRAMES + 1:m + 1]
        ys = yb[:, m - STOI_SEG_FRAMES + 1:m + 1]
        ny = np.linalg.norm(ys, axis=1)
        alpha = np.linalg.norm(xs, axis=1) / np.where(ny == 0.0, 1.0, ny)
        ys = ys * alpha[:, None]
        ys = np.minimum(ys, xs * (1.0 + STOI_CLIP_FACTOR))
        xs = xs - xs.mean(axis=1, keepdims=True)
        ys = ys - ys.mean(axis=1, keepdims=True)
        denom = np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)
        num = (xs * ys).sum(axis=1)
        corr = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)
        scores.append(corr.mean())
    return float(np.mean(scores))


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


def log_spectral_distance(a: MelSegment, b: MelSegment) -> float:
    """RMS difference of log-Mel values."""
    av = a.values if isinstance(a, MelSegment) else np.asarray(a)
    bv = b.values if isinstance(b, MelSegment) else np.asarray(b)
    if av.shape != bv.shape:
        raise MetricError(f"shape mismatch: {av.shape} vs {bv.shape}")
    diff = av.astype(np.float64) - bv.astype(np.float64)
    return float(np.sqrt(np.mean(diff ** 2)))


# ----------------------------------------------------------------------------
# Mel-gain waveform proxy
# ----------------------------------------------------------------------------

def _istft(spec: np.ndarray) -> np.ndarray:
    """Weighted overlap-add inverse of the analysis in dsp.stft."""
    bins, n_frames = spec.shape
    w = hann_window(WIN_LEN)
    out_len = WIN_LEN + (n_frames - 1) * HOP
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    frames = np.fft.irfft(spec.T, n=WIN_LEN, axis=1)
    for k in range(n_frames):
        out[k * HOP:k * HOP + WIN_LEN] += frames[k] * w
        norm[k * HOP:k * HOP + WIN_LEN] += w ** 2
    good = norm > 1e-10
    out[good] /= norm[good]
    return out


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

    fb = mel_filterbank()
    noisy_log = np.log(fb @ (np.abs(spec) ** 2) + LOG_FLOOR)
    enhanced_log = np.concatenate([seg.values.astype(np.float64) for seg in enhanced], axis=1)
    mel_gain = np.exp(enhanced_log - noisy_log)

    colsum = fb.sum(axis=0)
    weights = np.divide(fb, colsum, out=np.zeros_like(fb), where=colsum > 0)
    bin_gain = weights.T @ mel_gain
    bin_gain[colsum == 0, :] = 1.0

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
    from .train import _clean_voice, _interference, _mouth_video

    children = np.random.SeedSequence([seed, int(round(snr_db * 10)) & 0xFFFF]).spawn(n_clips)
    scores = []
    for k in range(n_clips):
        rng = np.random.Generator(np.random.PCG64(children[k]))
        clean, env = _clean_voice(rng)
        noise = _interference(rng)
        video = _mouth_video(rng, env)
        mix = mix_at_snr(clean, noise, snr_db)
        triples = make_segment_pairs(clean, noise, video, snr_db, clip_id=f"eval{k}")

        enhanced = enhance_segments([t.noisy for t in triples], [t.video for t in triples], params)
        proxy = mel_gain_proxy(mix.clip, enhanced)
        reference = AudioClip(clean.samples[:proxy.samples.size] * mix.peak_scale)

        lsd = float(np.mean([log_spectral_distance(e, t.clean)
                             for e, t in zip(enhanced, triples)]))
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
                 snrs_db: Sequence[float] = (0.0, -5.0),
                 n_eval_clips: int = 2,
                 strategies: Optional[Sequence[FusionStrategy]] = None) -> List[EvalReport]:
    """Train every wiring identically, score each at every SNR.

    The training set, seeds, step budget, and evaluation mixtures are shared
    across strategies, so rows differ only by topology.
    """
    from .train import TrainConfig, synth_dataset, train

    if strategies is None:
        strategies = list(FusionStrategy)
    data = synth_dataset(seed, train_items)
    reports = []
    for strategy in strategies:
        config = TrainConfig(steps=train_steps, seed=seed,
                             learning_rate=learning_rate, batch_size=batch_size,
                             strategy=strategy, width_divisor=width_divisor)
        result = train(config, data)
        for snr_db in snrs_db:
            reports.append(evaluate_params(result.params, snr_db, seed,
                                           n_clips=n_eval_clips))
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
    """Aligned-column text table, one row per strategy, one column group per SNR."""
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
            r = by_key.get((s, snr))
            if r is None:
                row += "| (missing)" + " " * 16
            else:
                row += (f"| {r.mean_stoi_pct:6.2f} {r.mean_si_sdr_db:+6.2f} "
                        f"{r.mean_log_spectral_distance:6.3f} ")
        rows.append(row)
    return "\n".join(rows) + "\n"
