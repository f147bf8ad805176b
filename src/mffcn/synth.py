"""Synthetic audio-visual clips standing in for a real corpus at desk scale.

A clean "voice" is a handful of harmonics under slow amplitude modulation
with a faint broadband pedestal; interference is filtered white noise or a
tonal cluster; the video track is a moving bright ellipse whose vertical
aperture follows the audio envelope, which gives the fusion path an actually
useful visual cue. Every draw comes from the caller's generator, so a seeded
generator gives the same clip every time.

The mouth frames are rendered in one pass: the ellipse test is a column term
plus a row term broadcast over all frames, and the pixel noise of all frames
is one standard-normal draw, scaled. It takes the generator's values in the
order a per-frame recipe takes them, so the clip is the same as one rendered
a frame at a time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dsp import SAMPLE_RATE, VIDEO_FPS, VIDEO_HW, AudioClip


def clean_voice(rng: np.random.Generator) -> Tuple[AudioClip, np.ndarray]:
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


def interference(rng: np.random.Generator) -> AudioClip:
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


def mouth_video(rng: np.random.Generator, env: np.ndarray) -> np.ndarray:
    """Bright ellipse whose vertical aperture tracks the audio envelope."""
    n_frames = VIDEO_FPS  # one second of video
    samples_per_frame = env.size // n_frames
    centers = np.arange(n_frames) * samples_per_frame + samples_per_frame // 2
    env_f = env[centers]
    spread = np.ptp(env_f)
    aperture = 3.0 + 12.0 * (env_f - env_f.min()) / (spread if spread > 0 else 1.0)

    h, w = VIDEO_HW
    cx = 40.0 + np.clip(np.cumsum(rng.normal(0.0, 0.6, size=n_frames)), -6.0, 6.0)
    cy = 40.0 + np.clip(np.cumsum(rng.normal(0.0, 0.6, size=n_frames)), -6.0, 6.0)
    half_width = rng.uniform(10.0, 15.0)
    background = rng.uniform(0.05, 0.15)

    # the ellipse test is separable: a [T, 1, W] column term plus a [T, H, 1] row term
    frames = np.empty((n_frames, h, w))
    np.add(((np.arange(w) - cx[:, None, None]) / half_width) ** 2,
           ((np.arange(h)[:, None] - cy[:, None, None]) / aperture[:, None, None]) ** 2,
           out=frames)
    inside = frames <= 1.0
    rng.standard_normal(out=frames)  # every frame's pixel noise in one draw, then scaled
    frames *= 0.02
    for frame, mask in zip(frames, inside):
        frame += np.where(mask, 0.85, background)
    return np.clip(frames, 0.0, 1.0, out=frames)


def draw_clip(rng: np.random.Generator) -> Tuple[AudioClip, AudioClip, np.ndarray]:
    """One second of clean voice, interference and mouth video, drawn in that order."""
    clean, env = clean_voice(rng)
    noise = interference(rng)
    return clean, noise, mouth_video(rng, env)
