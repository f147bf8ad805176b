"""Spectrogram front end: STFT, Mel projection, SNR mixing, video resizing.

Audio in is mono 16 kHz; each 40 ms window (640 samples, symmetric Hann)
advances by 160 samples, and the one-sided 640-point FFT gives 321 bins.
Log-Mel features use an 80-band triangular filterbank over 0..8000 Hz
applied to the power spectrogram, floored at 1e-10 before the log. Model
samples are non-overlapping 20-frame spectrogram segments, each aligned
with 5 video frames at 25 fps (both cover the same 200 ms).

Everything here is a pure function of its arguments; no hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DspError(f"clip must be a non-empty 1-D array, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise DspError("clip holds NaN or Inf samples")
        if np.max(np.abs(self.samples)) > 1.0 + 1e-9:
            raise DspError("clip samples exceed [-1, 1]")
        if self.sample_rate_hz != SAMPLE_RATE:
            raise DspError(f"sample rate {self.sample_rate_hz}, this pipeline is fixed at {SAMPLE_RATE}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class MelSegment:
    """One 80x20 block of log-Mel values plus an origin label."""

    values: np.ndarray
    origin: str = ""

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
    origin: str = ""

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
    """A noisy mixture plus the scale factors that produced it."""

    clip: AudioClip
    noise_scale: float
    peak_scale: float


@dataclass
class SegmentTriple:
    noisy: MelSegment
    video: VideoSegment
    clean: MelSegment

    def __iter__(self):
        return iter((self.noisy, self.video, self.clean))


def hann_window(n: int) -> np.ndarray:
    """Symmetric Hann: w[k] = 0.5 * (1 - cos(2*pi*k / (n-1)))."""
    k = np.arange(n, dtype=np.float64)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (n - 1)))


def stft(clip: AudioClip, win_len: int = WIN_LEN, hop: int = HOP) -> np.ndarray:
    """One-sided complex spectrogram, shape [bins, frames].

    Frame count is 1 + floor((len - win_len) / hop); no end padding, so a
    clip shorter than one window is an error.
    """
    x = clip.samples
    if len(x) < win_len:
        raise DspError(f"clip of {len(x)} samples is shorter than one {win_len}-sample window")
    frames = sliding_window_view(x, win_len)[::hop]
    windowed = frames * hann_window(win_len)
    return np.fft.rfft(windowed, n=win_len, axis=1).T


@lru_cache(maxsize=8)
def mel_filterbank(n_mels: int = N_MELS, fft_bins: int = FFT_BINS,
                   f_lo: float = MEL_F_LO, f_hi: float = MEL_F_HI) -> np.ndarray:
    """Triangular filters [n_mels, fft_bins], centers equally spaced in mel.

    mel(f) = 2595 * log10(1 + f / 700); filters are evaluated at the FFT bin
    center frequencies (multiples of sample_rate / fft_size).
    """
    if not n_mels < fft_bins:
        raise DspError(f"need n_mels < fft_bins, got {n_mels} and {fft_bins}")
    if not 0.0 <= f_lo < f_hi:
        raise DspError(f"degenerate band edges [{f_lo}, {f_hi}]")

    def to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    edges_hz = from_mel(np.linspace(to_mel(f_lo), to_mel(f_hi), n_mels + 2))
    if np.any(np.diff(edges_hz) <= 0):
        raise DspError("degenerate band edges: filter centers are not strictly increasing")
    bin_hz = np.arange(fft_bins, dtype=np.float64) * (SAMPLE_RATE / (2.0 * (fft_bins - 1)))
    left, center, right = edges_hz[:-2, None], edges_hz[1:-1, None], edges_hz[2:, None]
    rising = (bin_hz[None, :] - left) / (center - left)
    falling = (right - bin_hz[None, :]) / (right - center)
    bank = np.maximum(0.0, np.minimum(rising, falling))
    if np.any(bank.sum(axis=1) <= 0):
        raise DspError("a mel filter row came out empty; band layout is degenerate")
    bank.flags.writeable = False
    return bank


def log_mel(clip: AudioClip, clip_id: str = "") -> List[MelSegment]:
    """Log-Mel segments: ln(mel @ |stft|^2 + 1e-10), cut into 80x20 blocks.

    Segments are non-overlapping in time; a trailing partial segment is
    dropped so every segment is exactly 20 frames.
    """
    spec = stft(clip)
    power = np.abs(spec) ** 2
    mel = mel_filterbank() @ power
    values = np.log(mel + LOG_FLOOR)
    n_frames = values.shape[1]
    segments = []
    for k in range(n_frames // SEG_FRAMES):
        lo, hi = SEG_FRAMES * k, SEG_FRAMES * (k + 1)
        origin = f"{clip_id}:frames[{lo},{hi})"
        segments.append(MelSegment(values[:, lo:hi], origin=origin))
    return segments


def segment_samples(n_segments: int) -> int:
    """Audio samples that the first n_segments log_mel segments span (0 for none)."""
    if n_segments < 1:
        return 0
    return (SEG_FRAMES * n_segments - 1) * HOP + WIN_LEN


def mix_at_snr(clean: AudioClip, noise: AudioClip, snr_db: float) -> MixResult:
    """Scale noise to hit the requested SNR and add it to the clean signal.

    snr_db >= 100 is treated as the no-noise limit (scale 0). If the mixture
    would clip, the whole mixture is scaled down to peak 1 and that factor is
    reported; otherwise peak_scale is 1.0.
    """
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
        noise_scale = float(np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0))))
    mixed = clean.samples + noise_scale * noise.samples
    peak = float(np.max(np.abs(mixed)))
    peak_scale = 1.0
    if peak > 1.0:
        peak_scale = 1.0 / peak
        mixed = mixed * peak_scale
    return MixResult(clip=AudioClip(mixed), noise_scale=noise_scale, peak_scale=peak_scale)


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resampling, align-corners-false.

    Source coordinate for output index i is (i + 0.5) * (in / out) - 0.5,
    clamped to the valid range before blending the four neighbors.
    """
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2:
        raise DspError(f"resize expects a 2-D image, got shape {a.shape}")
    in_h, in_w = a.shape
    if in_h < 2 or in_w < 2:
        raise DspError(f"resize needs input extents of at least 2, got {a.shape}")
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


def make_segment_pairs(clean: AudioClip, noise: AudioClip, video_frames: np.ndarray,
                       snr_db: float, clip_id: str = "") -> List[SegmentTriple]:
    """Cut one utterance into aligned (noisy, video, clean) training triples.

    Segment k pairs spectrogram frames [20k, 20k+20) with video frames
    [5k, 5k+5), both anchored at the clip start. The clean reference is
    scaled by the mixture's anti-clip factor so the pair stays gain-matched.
    An audio/video duration mismatch of more than one segment is an error.
    """
    frames = np.asarray(video_frames, dtype=np.float64)
    if frames.ndim != 3 or frames.shape[1:] != VIDEO_HW:
        raise DspError(f"video must be [T, 80, 80], got {frames.shape}")

    mix = mix_at_snr(clean, noise, snr_db)
    clean_ref = AudioClip(clean.samples * mix.peak_scale) if mix.peak_scale != 1.0 else clean

    noisy_segs = log_mel(mix.clip, clip_id=f"{clip_id}/noisy")
    clean_segs = log_mel(clean_ref, clip_id=f"{clip_id}/clean")
    n_audio = len(noisy_segs)
    n_video = frames.shape[0] // SEG_VIDEO_FRAMES
    if abs(n_audio - n_video) > 1:
        raise DspError(
            f"audio gives {n_audio} segments but video gives {n_video}; "
            "they must agree within one segment")
    n = min(n_audio, n_video)
    triples = []
    for k in range(n):
        vs = frames[SEG_VIDEO_FRAMES * k:SEG_VIDEO_FRAMES * (k + 1)]
        video = VideoSegment(vs, origin=f"{clip_id}:video[{SEG_VIDEO_FRAMES * k},{SEG_VIDEO_FRAMES * (k + 1)})")
        triples.append(SegmentTriple(noisy=noisy_segs[k], video=video, clean=clean_segs[k]))
    return triples
