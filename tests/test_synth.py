"""The synthetic corpus and evaluation scores: pinned, and against the per-frame renderer.

mouth_video_per_frame below is the loop synth.mouth_video replaced: it tests
the ellipse and draws the pixel noise one frame at a time. synth.mouth_video
renders all frames at once but draws the noise in the same order, so frames,
the generator's state after the call, the corpus and the evaluation scores
agree bit for bit. The corpus bytes and the scores are also pinned, so a
change to the front end (mixing, log-Mel, segment pairing, scoring) that
moves a bit fails here.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from mffcn import synth
from mffcn.dsp import SAMPLE_RATE, VIDEO_FPS, VIDEO_HW
from mffcn.metrics import evaluate_params
from mffcn.model import FusionStrategy, init_params
from mffcn.train import synth_dataset


def mouth_video_per_frame(rng: np.random.Generator, env: np.ndarray) -> np.ndarray:
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


def _envelopes():
    """(label, envelope): 50 drawn voices, then a flat envelope with zero spread."""
    for seed in range(50):
        yield f"voice {seed}", synth.clean_voice(np.random.default_rng(1000 + seed))[1]
    yield "flat", np.full(SAMPLE_RATE, 0.7)


def test_frames_and_generator_state_match_the_per_frame_loop():
    for seed, (label, env) in enumerate(_envelopes()):
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = synth.mouth_video(fast, env), mouth_video_per_frame(slow, env)
        assert got.dtype == want.dtype and got.shape == want.shape, label
        assert got.tobytes() == want.tobytes(), label
        assert fast.random() == slow.random(), label


def _corpus_bytes():
    return b"".join(item.noisy.values.tobytes() + item.video.frames.tobytes() + item.clean.values.tobytes()
                    for item in synth_dataset(0, 10))


def _scores():
    params = init_params(0, FusionStrategy.MULTILAYER, 8)
    return [[(i.stoi_pct, i.si_sdr_db, i.log_spectral_distance)
             for i in evaluate_params(params, snr_db, 0, n_clips=2).items]
            for snr_db in (0.0, -5.0)]


# sha256 of _corpus_bytes(), and of the float.hex strings of _scores() joined in order
# (the scores recorded again when channel attention began to squeeze the pooled maps)
CORPUS_SHA256 = "d62a2efb006577eebfc729db3bb82179c624e73df9f2502ec79ed0b041eb4d3b"
SCORES_SHA256 = "e98711958c3570023498804810231279a4bf1e02c3841384d26d81c4ceaa9a09"


def test_corpus_bytes_pinned():
    assert hashlib.sha256(_corpus_bytes()).hexdigest() == CORPUS_SHA256


def test_scores_pinned():
    hexes = "".join(float.hex(x) for report in _scores() for item in report for x in item)
    assert hashlib.sha256(hexes.encode()).hexdigest() == SCORES_SHA256


@pytest.mark.parametrize("output", [_corpus_bytes, _scores], ids=["synth_dataset", "evaluate_params"])
def test_corpus_and_scores_match_the_per_frame_loop(monkeypatch, output):
    got = output()
    monkeypatch.setattr(synth, "mouth_video", mouth_video_per_frame)
    assert got == output()


def test_render_holds_one_frames_array_one_mask_and_one_frame():
    env = synth.clean_voice(np.random.default_rng(0))[1]
    tracemalloc.start()
    try:
        frames = synth.mouth_video(np.random.default_rng(0), env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_frames, (h, w) = VIDEO_FPS, VIDEO_HW
    mask = np.dtype(bool).itemsize * n_frames * h * w
    frame = np.dtype(np.float64).itemsize * h * w
    # plus room for the two separable [T, W] and [T, H] terms
    terms = np.dtype(np.float64).itemsize * n_frames * (h + w)
    # 1,494,702 bytes here; the per-frame loop peaked at 1,643,206
    assert peak <= frames.nbytes + mask + frame + terms
