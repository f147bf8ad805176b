"""Tests for the spectrogram front end and mixture synthesis."""

import numpy as np
import pytest

from mffcn.dsp import (
    HOP,
    LOG_FLOOR,
    N_MELS,
    SAMPLE_RATE,
    SEG_FRAMES,
    WIN_LEN,
    AudioClip,
    DspError,
    MelSegment,
    VideoSegment,
    bilinear_resize,
    hann_window,
    log_mel,
    log_mel_values,
    make_segment_pairs,
    mel_filterbank,
    mix_at_snr,
    resample_poly,
    stft,
    video_segments,
)


def _noise_clip(seed, n, scale=0.1):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-scale, scale, size=n))


def _sine_clip(freq_hz, n, amp=0.5):
    t = np.arange(n) / SAMPLE_RATE
    return AudioClip(amp * np.sin(2.0 * np.pi * freq_hz * t))


class TestClipTypes:
    def test_rejects_empty(self):
        with pytest.raises(DspError):
            AudioClip(np.array([]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DspError):
            AudioClip(np.array([0.0, 1.5]))

    def test_mel_segment_shape_enforced(self):
        with pytest.raises(DspError):
            MelSegment(np.zeros((80, 21)))

    def test_video_segment_range_enforced(self):
        with pytest.raises(DspError):
            VideoSegment(np.full((5, 80, 80), 2.0))


class TestStft:
    def test_window_formula(self):
        w = hann_window(5)
        assert np.allclose(w, [0.0, 0.5, 1.0, 0.5, 0.0])

    def test_frame_count_single(self):
        assert stft(_noise_clip(0, WIN_LEN)).shape == (321, 1)

    def test_frame_count_3680(self):
        spec = stft(_noise_clip(1, 3680))
        assert spec.shape == (321, 20)

    def test_too_short_rejected(self):
        with pytest.raises(DspError, match="window"):
            stft(_noise_clip(2, WIN_LEN - 1))

    def test_zero_clip_gives_zero_spectrogram(self):
        assert np.all(stft(AudioClip(np.zeros(WIN_LEN))) == 0)

    @pytest.mark.parametrize("k", [5, 32, 160, 250])
    def test_on_bin_sinusoid_concentrates(self, k):
        # Bin spacing is 25 Hz. A symmetric Hann spreads an on-bin tone over
        # the two adjacent bins as well (the window transform has weight
        # about 0.25/0.5/0.25 there), so the single-bin share is only about
        # two thirds; the three-bin neighborhood carries essentially all of it.
        clip = _sine_clip(25.0 * k, WIN_LEN)
        frame = np.abs(stft(clip)[:, 0]) ** 2
        assert int(np.argmax(frame)) == k
        neighborhood = frame[k - 1:k + 2].sum()
        assert neighborhood >= 0.99 * frame.sum()

    def test_parseval_energy_match(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-0.5, 0.5, size=WIN_LEN)
        windowed = x * hann_window(WIN_LEN)
        spec = np.fft.rfft(windowed)
        one_sided = np.abs(spec) ** 2
        total = one_sided[0] + 2.0 * one_sided[1:-1].sum() + one_sided[-1]
        time_energy = WIN_LEN * np.sum(windowed ** 2)
        assert abs(total - time_energy) <= 0.01 * time_energy


class TestMelFilterbank:
    def test_shape_and_sign(self):
        bank = mel_filterbank()
        assert bank.shape == (80, 321)
        assert np.all(bank >= 0)
        assert np.all(bank.sum(axis=1) > 0)

    def test_rows_are_unimodal_triangles(self):
        bank = mel_filterbank()
        for row in bank:
            support = np.flatnonzero(row)
            peak = int(np.argmax(row))
            rising = row[support[0]:peak + 1]
            falling = row[peak:support[-1] + 1]
            assert np.all(np.diff(rising) >= -1e-12)
            assert np.all(np.diff(falling) <= 1e-12)

    def test_peaks_increase_in_frequency(self):
        bank = mel_filterbank()
        peaks = [int(np.argmax(row)) for row in bank]
        assert all(b >= a for a, b in zip(peaks, peaks[1:]))


class TestLogMel:
    def test_silent_clip_hits_log_floor(self):
        segs = log_mel(AudioClip(np.zeros(3680)))
        assert len(segs) == 1
        assert np.allclose(segs[0].values, np.log(LOG_FLOOR), atol=1e-5)

    def test_7360_samples_give_two_segments(self):
        segs = log_mel(_noise_clip(11, 7360))
        assert len(segs) == 2
        assert all(s.values.shape == (N_MELS, SEG_FRAMES) for s in segs)

    def test_trailing_partial_dropped(self):
        # 43 frames from 7360 samples: 2 full segments, 3 frames discarded.
        n_frames = 1 + (7360 - WIN_LEN) // HOP
        assert n_frames == 43
        assert len(log_mel(_noise_clip(12, 7360))) == 2

    def test_gain_shifts_log_values(self):
        quiet = _sine_clip(1000.0, 3680, amp=0.05)
        loud = AudioClip(quiet.samples * 10.0)
        a = log_mel(quiet)[0].values
        b = log_mel(loud)[0].values
        strong = a > np.log(LOG_FLOOR) + 5.0  # bands carrying real signal
        assert np.allclose((b - a)[strong], 2.0 * np.log(10.0), atol=1e-2)

    def test_deterministic_bits(self):
        clip = _noise_clip(13, 3680)
        a = log_mel(clip)[0].values
        b = log_mel(AudioClip(clip.samples.copy()))[0].values
        assert np.array_equal(a, b)

    def test_segments_cut_the_spectrogram_log_mel(self):
        clip = _noise_clip(14, 7360)
        spec = stft(clip)
        values = log_mel_values(spec)
        assert np.array_equal(values, np.log(mel_filterbank() @ np.abs(spec) ** 2 + LOG_FLOOR))
        for k, seg in enumerate(log_mel(clip)):
            assert np.array_equal(seg.values, values[:, 20 * k:20 * k + 20].astype(np.float32))


class TestMixAtSnr:
    def test_equal_power_at_zero_db(self):
        clean = _sine_clip(500.0, 1600, amp=0.3)
        noise = AudioClip(-clean.samples)  # same power, uncorrelated sign flip
        mix = mix_at_snr(clean, noise, 0.0)
        assert mix.noise_scale == pytest.approx(1.0, abs=1e-12)

    def test_plus_ten_db_means_tenth_power(self):
        clean = _noise_clip(21, 4000, scale=0.3)
        noise = _noise_clip(22, 4000, scale=0.3)
        mix = mix_at_snr(clean, noise, 10.0)
        p_clean = np.mean(clean.samples ** 2)
        p_scaled = np.mean((mix.noise_scale * noise.samples) ** 2)
        assert p_scaled == pytest.approx(p_clean / 10.0, rel=1e-9)

    @pytest.mark.parametrize("snr", [-10.0, -5.0, 0.0, 5.0, 10.0])
    def test_achieved_snr_within_hundredth_db(self, snr):
        clean = _noise_clip(23, 8000, scale=0.2)
        noise = _noise_clip(24, 8000, scale=0.05)
        mix = mix_at_snr(clean, noise, snr)
        achieved = 10.0 * np.log10(
            np.mean(clean.samples ** 2) / np.mean((mix.noise_scale * noise.samples) ** 2))
        assert abs(achieved - snr) < 0.01

    def test_snr_100_is_noise_free(self):
        clean = _noise_clip(25, 2000, scale=0.4)
        noise = _noise_clip(26, 2000, scale=0.4)
        mix = mix_at_snr(clean, noise, 100.0)
        assert mix.noise_scale == 0.0
        assert np.array_equal(mix.clip.samples, clean.samples)
        assert mix.clean is clean

    def test_anti_clip_normalization_scales_the_clean_too(self):
        clean = AudioClip(np.full(1000, 0.9))
        noise = AudioClip(np.concatenate([[1e-3], np.full(999, 0.9)]))
        mix = mix_at_snr(clean, noise, 0.0)
        assert np.max(np.abs(mix.clip.samples)) == pytest.approx(1.0, abs=1e-12)
        peak_scale = 1.0 / np.max(np.abs(clean.samples + mix.noise_scale * noise.samples))
        assert peak_scale < 1.0
        assert np.array_equal(mix.clean.samples, clean.samples * peak_scale)

    def test_unclipped_mixture_keeps_the_clean_clip(self):
        clean = _noise_clip(28, 2000, scale=0.2)
        noise = _noise_clip(29, 2000, scale=0.2)
        mix = mix_at_snr(clean, noise, 0.0)
        assert np.max(np.abs(mix.clip.samples)) < 1.0
        assert mix.clean is clean

    def test_zero_power_rejected(self):
        live = _noise_clip(27, 100)
        with pytest.raises(DspError, match="zero power"):
            mix_at_snr(AudioClip(np.zeros(100)), live, 0.0)
        with pytest.raises(DspError, match="zero power"):
            mix_at_snr(live, AudioClip(np.zeros(100)), 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DspError, match="length"):
            mix_at_snr(_noise_clip(28, 100), _noise_clip(29, 101), 0.0)

    @pytest.mark.parametrize("snr, defect", [
        (float("nan"), "SNR is NaN, need a number of dB"),
        (float("-inf"), "SNR -inf dB needs a noise gain beyond float64"),
    ], ids=["nan", "-inf"])
    def test_nan_and_minus_inf_snr_refused_by_name(self, snr, defect):
        with pytest.raises(DspError) as info:
            mix_at_snr(_noise_clip(30, 100), _noise_clip(31, 100), snr)
        assert str(info.value) == defect

    def test_plus_inf_snr_is_noise_free(self):
        clean = _noise_clip(32, 100)
        mix = mix_at_snr(clean, _noise_clip(33, 100), float("inf"))
        assert mix.noise_scale == 0.0 and mix.clean is clean


class TestResamplePoly:
    # (up, down): the intelligibility metric's 16k -> 10k, and every common
    # WAV rate -> 16k
    RATES = [(10000, 16000)] + [(16000, r) for r in (8000, 22050, 24000, 32000, 44100, 48000)]
    LENGTHS = (1, 7, 123, 15999, 16000)

    @pytest.mark.parametrize("up,down", RATES)
    def test_matches_scipy(self, up, down):
        scipy_signal = pytest.importorskip("scipy.signal")
        for n in self.LENGTHS:
            x = np.random.default_rng(n).normal(size=n)
            got = resample_poly(x, up, down)
            want = scipy_signal.resample_poly(x, up, down)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("up,down", RATES)
    def test_binary_gain_is_exact(self, up, down):
        for n in self.LENGTHS:
            x = np.random.default_rng(n).normal(size=n)
            assert np.array_equal(resample_poly(0.5 * x, up, down), 0.5 * resample_poly(x, up, down))

    def test_reduces_by_gcd(self):
        x = np.random.default_rng(0).normal(size=1000)
        assert np.array_equal(resample_poly(x, 10000, 16000), resample_poly(x, 5, 8))
        same = resample_poly(x, 3, 3)
        assert np.array_equal(same, x) and same is not x

    @pytest.mark.parametrize("up,down", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_factors_below_one(self, up, down):
        with pytest.raises(DspError, match="at least 1"):
            resample_poly(np.ones(10), up, down)


class TestBilinearResize:
    def test_identity_at_same_size(self):
        img = np.random.default_rng(31).normal(size=(9, 7))
        assert np.allclose(bilinear_resize(img, 9, 7), img, atol=1e-12)

    def test_constant_stays_constant(self):
        img = np.full((6, 6), 3.25)
        out = bilinear_resize(img, 80, 80)
        assert np.allclose(out, 3.25, atol=1e-12)

    def test_matches_bruteforce_scalar_oracle(self):
        rng = np.random.default_rng(33)
        img = rng.normal(size=(128, 128))
        out = bilinear_resize(img, 80, 80)

        def scalar(i, j):
            sy = min(max((i + 0.5) * (128 / 80) - 0.5, 0.0), 127.0)
            sx = min(max((j + 0.5) * (128 / 80) - 0.5, 0.0), 127.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, 127), min(x0 + 1, 127)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            return top * (1 - fy) + bot * fy

        for i in range(0, 80, 7):
            for j in range(0, 80, 7):
                assert out[i, j] == pytest.approx(scalar(i, j), abs=1e-12)

    def test_monotone_on_ramps(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 40), (40, 1))
        out = bilinear_resize(ramp, 16, 64)
        assert np.all(np.diff(out, axis=1) >= -1e-12)

    def test_one_row_is_constant_down_the_rows(self):
        row = np.random.default_rng(35).normal(size=7)
        out = bilinear_resize(row[None], 4, 12)
        assert np.array_equal(out, np.broadcast_to(out[0], (4, 12)))
        np.testing.assert_allclose(out, bilinear_resize(np.stack([row, row]), 4, 12), rtol=0, atol=1e-12)

    def test_one_column_is_constant_along_the_rows(self):
        col = np.random.default_rng(36).normal(size=6)
        out = bilinear_resize(col[:, None], 9, 5)
        assert np.array_equal(out, np.broadcast_to(out[:, :1], (9, 5)))
        np.testing.assert_allclose(out, bilinear_resize(np.stack([col, col], axis=1), 9, 5), rtol=0, atol=1e-12)

    def test_one_pixel_gives_a_constant_image(self):
        assert np.array_equal(bilinear_resize(np.full((1, 1), 0.375), 80, 80), np.full((80, 80), 0.375))

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0)])
    def test_empty_input_rejected(self, shape):
        with pytest.raises(DspError, match="input extents must be positive"):
            bilinear_resize(np.ones(shape), 4, 4)


class TestVideoSegments:
    def test_segment_k_is_frames_5k_to_5k_plus_5(self):
        video = np.random.default_rng(53).uniform(size=(13, 80, 80))
        segs = video_segments(video)
        assert len(segs) == 2  # the 3 trailing frames fill no segment
        for k, seg in enumerate(segs):
            assert np.array_equal(seg.frames, video[5 * k:5 * k + 5].astype(np.float32))

    def test_fewer_than_five_frames_give_none(self):
        assert video_segments(np.zeros((4, 80, 80))) == []

    @pytest.mark.parametrize("shape", [(10, 80, 40), (80, 80)])
    def test_frame_extent_enforced(self, shape):
        with pytest.raises(DspError, match=r"video must be \[T, 80, 80\]"):
            video_segments(np.zeros(shape))


class TestMakeSegmentPairs:
    def test_one_second_gives_four_triples(self):
        clean = _noise_clip(41, 16000, scale=0.2)
        noise = _noise_clip(42, 16000, scale=0.05)
        video = np.random.default_rng(43).uniform(size=(25, 80, 80))
        triples = make_segment_pairs(mix_at_snr(clean, noise, 5.0), video)
        assert len(triples) == 4
        assert triples[0].noisy.values.shape == (80, 20)
        assert triples[0].video.frames.shape == (5, 80, 80)
        assert triples[0].clean.values.shape == (80, 20)

    def test_video_chunks_follow_segments(self):
        clean = _noise_clip(44, 16000, scale=0.2)
        noise = _noise_clip(45, 16000, scale=0.05)
        video = np.random.default_rng(46).uniform(size=(25, 80, 80))
        triples = make_segment_pairs(mix_at_snr(clean, noise, 0.0), video)
        for k, t in enumerate(triples):
            assert np.allclose(t.video.frames, video[5 * k:5 * k + 5], atol=1e-6)

    def test_pairs_the_mixture_with_its_gain_matched_clean(self):
        clean = AudioClip(np.full(7360, 0.9) * np.sign(np.sin(np.arange(7360) / 7.0) + 0.5))
        noise = _noise_clip(54, 7360, scale=0.9)
        mix = mix_at_snr(clean, noise, 0.0)
        assert mix.clean is not clean  # the mixture clipped, so the clean was scaled
        triples = make_segment_pairs(mix, np.zeros((10, 80, 80)))
        assert [t.noisy.values.tobytes() for t in triples] == [s.values.tobytes() for s in log_mel(mix.clip)]
        assert [t.clean.values.tobytes() for t in triples] == [s.values.tobytes() for s in log_mel(mix.clean)]

    def test_noise_free_limit_reproduces_clean(self):
        clean = _noise_clip(47, 7360, scale=0.2)
        noise = _noise_clip(48, 7360, scale=0.2)
        video = np.random.default_rng(49).uniform(size=(10, 80, 80))
        triples = make_segment_pairs(mix_at_snr(clean, noise, 150.0), video)
        for t in triples:
            assert np.array_equal(t.noisy.values, t.clean.values)

    def test_duration_mismatch_rejected(self):
        clean = _noise_clip(50, 16000, scale=0.2)
        noise = _noise_clip(51, 16000, scale=0.05)
        video = np.random.default_rng(52).uniform(size=(5, 80, 80))  # 1 seg vs 4
        with pytest.raises(DspError, match="within one segment"):
            make_segment_pairs(mix_at_snr(clean, noise, 0.0), video)
