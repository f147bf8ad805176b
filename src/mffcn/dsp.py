"""Spectrogram front end: STFT, Mel projection, SNR mixing, resampling, resizing.

Audio in is mono 16 kHz; each 40 ms window (640 samples, symmetric Hann)
advances by 160 samples, and the one-sided 640-point FFT gives 321 bins.
Log-Mel features use an 80-band triangular filterbank over 0..8000 Hz
applied to the power spectrogram, floored at 1e-10 before the log. Model
samples are non-overlapping 20-frame spectrogram segments, each aligned
with 5 video frames at 25 fps (both cover the same 200 ms).

A clip is mixed once (mix_at_snr, which also gain-matches the clean signal);
log_mel and video_segments cut it, and make_segment_pairs pairs the cuts.

Everything here is a pure function of its arguments; no hidden state. The
constants a clip's processing reuses (Hann windows, the Mel filterbank,
polyphase tables) are cached read-only arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
WIN_LEN = 640
HOP = 160
FFT_BINS = WIN_LEN // 2 + 1
N_MELS = 80
MEL_F_LO = 0.0
MEL_F_HI = 8000.0
LOG_FLOOR = 1e-10
SEG_FRAMES = 20
SEG_VIDEO_FRAMES = 5
VIDEO_FPS = 25
VIDEO_HW = (80, 80)


class DspError(ValueError):
    pass


@dataclass
class AudioClip:
    """Mono 16 kHz waveform with samples in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DspError(f"clip must be a non-empty 1-D array, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DspError("clip holds NaN or Inf samples")
        if np.max(np.abs(self.samples)) > 1.0 + 1e-9:
            raise DspError("clip samples exceed [-1, 1]")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class MelSegment:
    """One 80x20 block of log-Mel values."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.shape != (N_MELS, SEG_FRAMES):
            raise DspError(f"segment must be {N_MELS}x{SEG_FRAMES}, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DspError("segment holds NaN or Inf values")


@dataclass
class VideoSegment:
    """Five 80x80 grayscale frames in [0, 1], aligned with one MelSegment."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.shape != (SEG_VIDEO_FRAMES,) + VIDEO_HW:
            raise DspError(
                f"video segment must be {(SEG_VIDEO_FRAMES,) + VIDEO_HW}, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise DspError("video segment holds NaN or Inf values")
        if self.frames.min() < -1e-6 or self.frames.max() > 1.0 + 1e-6:
            raise DspError("video pixel values must lie in [0, 1]")


@dataclass
class MixResult:
    """A noisy mixture, the clean signal gain-matched to it, and the noise's scale factor."""

    clip: AudioClip
    clean: AudioClip
    noise_scale: float


@dataclass
class SegmentTriple:
    noisy: MelSegment
    video: VideoSegment
    clean: MelSegment


@lru_cache(maxsize=4)
def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann, read-only: w[k] = 0.5 * (1 - cos(2*pi*k / (n-1)))."""
    k = np.arange(n, dtype=np.float64)
    w = 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))
    w.flags.writeable = False
    return w


def stft(clip: AudioClip) -> np.ndarray:
    """One-sided complex spectrogram, shape [bins, frames].

    Frame count is 1 + floor((len - WIN_LEN) / HOP); no end padding, so a
    clip shorter than one window is an error.
    """
    x = clip.samples
    if len(x) < WIN_LEN:
        raise DspError(f"clip of {len(x)} samples is shorter than one {WIN_LEN}-sample window")
    frames = sliding_window_view(x, WIN_LEN)[::HOP]
    windowed = frames * hann_window(WIN_LEN)
    return np.fft.rfft(windowed, n=WIN_LEN, axis=1).T


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """Triangular filters [N_MELS, FFT_BINS], centers equally spaced in mel.

    mel(f) = 2595 * log10(1 + f / 700); filters are evaluated at the FFT bin
    center frequencies (multiples of sample_rate / fft_size).
    """

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    edges_hz = from_mel(np.linspace(to_mel(MEL_F_LO), to_mel(MEL_F_HI), N_MELS + 2))
    bin_hz = np.arange(FFT_BINS, dtype=np.float64) * (SAMPLE_RATE / (2.0 * (FFT_BINS - 1)))
    left, center, right = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz[None, :] - left) / (center - left)
    falling = (right - bin_hz[None, :]) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


def log_mel_values(spec: np.ndarray) -> np.ndarray:
    """ln(mel @ |spec|^2 + 1e-10) of a [bins, frames] spectrogram, shape [N_MELS, frames]."""
    return np.log(mel_filterbank() @ (np.abs(spec) ** 2) + LOG_FLOOR)


def log_mel(clip: AudioClip) -> List[MelSegment]:
    """The clip's log-Mel values (see log_mel_values), cut into 80x20 segments.

    Segments are non-overlapping in time; a trailing partial segment is
    dropped so every segment is exactly 20 frames.
    """
    values = log_mel_values(stft(clip))
    return [MelSegment(values[:, SEG_FRAMES * k:SEG_FRAMES * (k + 1)])
            for k in range(values.shape[1] // SEG_FRAMES)]


def segment_samples(n_segments: int) -> int:
    """Audio samples that the first n_segments log_mel segments span (0 for none)."""
    if n_segments < 1:
        return 0
    return (SEG_FRAMES * n_segments - 1) * HOP + WIN_LEN


def mix_at_snr(clean: AudioClip, noise: AudioClip, snr_db: float) -> MixResult:
    """Scale noise to hit the requested SNR, add it to the clean signal, and gain-match the clean.

    snr_db >= 100 is treated as the no-noise limit (scale 0). If the mixture
    would clip, it is scaled down to peak 1 and the returned clean signal is
    the input clean scaled by the same factor; otherwise it is the input clean.
    A NaN SNR, or one whose noise gain or mixture is not finite (thousands of
    dB below zero), raises a DspError naming it.
    """
    if math.isnan(snr_db):
        raise DspError("SNR is NaN, need a number of dB")
    if len(clean) != len(noise):
        raise DspError(f"length mismatch: clean {len(clean)} vs noise {len(noise)} samples")
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(noise.samples ** 2))
    if p_clean <= 0.0:
        raise DspError("clean signal has zero power")
    if p_noise <= 0.0:
        raise DspError("noise signal has zero power")
    if snr_db >= 100.0:
        noise_scale = 0.0
    else:
        denom = p_noise * 10.0 ** (snr_db / 10.0)  # 0.0 once it underflows, far below -3000 dB
        noise_scale = float(np.sqrt(p_clean / denom)) if denom > 0.0 else math.inf
    if not math.isfinite(noise_scale):
        raise DspError(f"SNR {snr_db} dB needs a noise gain beyond float64")
    mixed = clean.samples + noise_scale * noise.samples
    peak = float(np.max(np.abs(mixed)))
    if not math.isfinite(peak):
        raise DspError(f"SNR {snr_db} dB gives a mixture beyond float64")
    if peak > 1.0:
        peak_scale = 1.0 / peak
        mixed = mixed * peak_scale
        clean = AudioClip(clean.samples * peak_scale)
    return MixResult(clip=AudioClip(mixed), clean=clean, noise_scale=noise_scale)


@lru_cache(maxsize=8)
def _polyphase_taps(up: int, down: int) -> Tuple[np.ndarray, np.ndarray]:
    """Phase table [up, taps]: output r + up*q is table[r] . x[q*down + first[r]:]."""
    half = 10 * max(up, down)
    h = np.sinc(np.arange(-half, half + 1) / max(up, down)) * np.kaiser(2 * half + 1, 5.0)
    h = h / h.sum() * up
    r = np.arange(up)
    first = -((half - r * down) // up)
    taps = int(((half + r * down) // up - first).max()) + 1
    idx = half + r[:, None] * down - (first[:, None] + np.arange(taps)) * up
    table = np.where(idx >= 0, h[np.maximum(idx, 0)], 0.0)
    table.flags.writeable = False
    first.flags.writeable = False
    return table, first


def resample_poly(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """Resample by up/down as scipy.signal.resample_poly's default path does.

    Zero padding and a Kaiser (beta 5) windowed sinc with cutoff 1/max(up, down),
    half-length 10*max(up, down) and DC gain up; gives ceil(n*up/down) samples.
    """
    if up < 1 or down < 1:
        raise DspError(f"resampling factors must be at least 1, got {up}/{down}")
    g = math.gcd(up, down)
    up, down = up // g, down // g
    x = np.asarray(x, dtype=np.float64)
    if up == down == 1:
        return x.copy()
    table, first = _polyphase_taps(up, down)
    xp = np.concatenate([np.zeros(-first[0]), x, np.zeros(first[-1] + table.shape[1])])
    windows = sliding_window_view(xp, table.shape[1])
    out = np.empty(-(-x.size * up // down))
    for r in range(min(up, out.size)):
        phase = out[r::up]
        phase[:] = windows[first[r] - first[0]::down][:phase.size] @ table[r]
    return out


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling, align-corners-false.

    Source coordinate for output index i is (i + 0.5) * (in / out) - 0.5,
    clamped to the valid range before blending the four neighbors. An axis
    of one pixel clamps every coordinate to that pixel, so the output is
    constant along it (a 1x1 image gives a constant image).
    """
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise DspError(f"resize expects a 2-D image, got shape {a.shape}")
    in_h, in_w = a.shape
    if in_h < 1 or in_w < 1:
        raise DspError(f"input extents must be positive, got {a.shape}")
    if out_h < 1 or out_w < 1:
        raise DspError(f"output extents must be positive, got ({out_h}, {out_w})")

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        i0 = np.floor(src).astype(np.int64)
        i1 = np.minimum(i0 + 1, n_in - 1)
        return i0, i1, src - i0

    r0, r1, rf = axis_coords(in_h, out_h)
    c0, c1, cf = axis_coords(in_w, out_w)
    top = a[r0[:, None], c0[None, :]] * (1.0 - cf) + a[r0[:, None], c1[None, :]] * cf
    bot = a[r1[:, None], c0[None, :]] * (1.0 - cf) + a[r1[:, None], c1[None, :]] * cf
    return top * (1.0 - rf[:, None]) + bot * rf[:, None]


def video_segments(video_frames: np.ndarray) -> List[VideoSegment]:
    """A [T, 80, 80] clip's whole 5-frame segments, segment k being frames [5k, 5k+5)."""
    frames = np.asarray(video_frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1:] != VIDEO_HW:
        raise DspError(f"video must be [T, 80, 80], got {frames.shape}")
    return [VideoSegment(frames[SEG_VIDEO_FRAMES * k:SEG_VIDEO_FRAMES * (k + 1)])
            for k in range(frames.shape[0] // SEG_VIDEO_FRAMES)]


def make_segment_pairs(mix: MixResult, video_frames: np.ndarray) -> List[SegmentTriple]:
    """Cut one mixed utterance into aligned (noisy, video, clean) training triples.

    Segment k pairs spectrogram frames [20k, 20k+20) of the mixture and of its
    gain-matched clean signal with video segment k, all anchored at the clip
    start. An audio/video duration mismatch of more than one segment is an error.
    """
    videos = video_segments(video_frames)
    noisy_segs = log_mel(mix.clip)
    clean_segs = log_mel(mix.clean)
    n_audio, n_video = len(noisy_segs), len(videos)
    if abs(n_audio - n_video) > 1:
        raise DspError(
            f"audio gives {n_audio} segments but video gives {n_video}; "
            "they must agree within one segment")
    return [SegmentTriple(*parts) for parts in zip(noisy_segs, videos, clean_segs)]
