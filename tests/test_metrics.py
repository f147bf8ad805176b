"""Intelligibility and distortion metric tests."""

import numpy as np
import pytest

from mffcn.dsp import (
    AudioClip,
    MelSegment,
    SAMPLE_RATE,
    make_segment_pairs,
    mix_at_snr,
)
from mffcn.metrics import (
    EvalReport,
    ItemScore,
    MetricError,
    ablation_to_csv,
    evaluate_params,
    format_ablation,
    log_spectral_distance,
    mel_gain_proxy,
    run_ablation,
    si_sdr,
    stoi,
)
from mffcn.model import FusionStrategy, init_params
from mffcn.train import _clean_voice


def _voice(seed) -> AudioClip:
    clip, _ = _clean_voice(np.random.default_rng(seed))
    return clip


def _clip(x: np.ndarray) -> AudioClip:
    """Wrap an arbitrary array, rescaling to peak 0.5 when out of range."""
    peak = np.max(np.abs(x))
    if peak > 1.0:
        x = x * (0.5 / peak)
    return AudioClip(x)


class TestStoi:
    def test_identical_signals_near_one(self):
        x = _voice(0)
        assert stoi(x, x) >= 0.99

    def test_scale_invariance_exact_for_powers_of_two(self):
        # binary scaling is lossless in float, so normalization cancels bitwise
        x = _voice(1)
        base = stoi(x, x)
        assert stoi(x, AudioClip(x.samples * 0.5)) == base
        assert stoi(x, AudioClip(x.samples * 0.25)) == base
        assert stoi(AudioClip(x.samples * 0.5), x) == base

    def test_scale_invariance_close_otherwise(self):
        x = _voice(2)
        scaled = AudioClip(x.samples * 0.3)
        assert stoi(x, scaled) == pytest.approx(stoi(x, x), abs=1e-10)

    def test_white_noise_scores_low(self):
        x = _voice(3)
        for seed in range(10):
            n = np.random.default_rng(100 + seed).normal(size=len(x))
            assert stoi(x, _clip(n)) < 0.2

    def test_monotone_in_snr(self):
        # cleaner mixtures should never score worse
        good = 0
        for seed in range(10):
            x = _voice(seed)
            n = np.random.default_rng(900 + seed).normal(size=len(x))
            n *= np.sqrt(np.mean(x.samples**2) / np.mean(n**2))
            scores = [stoi(x, _clip(x.samples + n * 10 ** (-s / 20)))
                      for s in (-5, 0, 5, 10)]
            good += all(a <= b + 1e-9 for a, b in zip(scores, scores[1:]))
        assert good >= 9

    def test_length_mismatch(self):
        x = _voice(4)
        with pytest.raises(MetricError, match="length"):
            stoi(x, AudioClip(x.samples[:-1]))

    def test_silent_reference(self):
        z = AudioClip(np.zeros(SAMPLE_RATE))
        with pytest.raises(MetricError, match="silent"):
            stoi(z, _voice(5))

    def test_too_short(self):
        x = AudioClip(_voice(5).samples[:2000])
        with pytest.raises(MetricError, match="384"):
            stoi(x, x)


class TestSiSdr:
    def test_identical_hits_cap(self):
        x = _voice(0)
        assert si_sdr(x, x) == 60.0

    def test_scaled_copy_hits_cap(self):
        # projection removes gain, so a quieter copy is still a perfect match
        x = _voice(1)
        assert si_sdr(x, AudioClip(x.samples * 0.5)) == 60.0

    def test_equal_power_orthogonal_noise_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=8000)
        n = rng.normal(size=8000)
        n -= x * (x @ n) / (x @ x)
        n *= np.sqrt((x @ x) / (n @ n))
        assert abs(si_sdr(_clip(x), _clip(x + n))) < 1e-9

    def test_pure_orthogonal_noise_hits_floor(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=8000)
        n = rng.normal(size=8000)
        n -= x * (x @ n) / (x @ x)
        assert si_sdr(_clip(x), _clip(n)) == -60.0

    def test_snr_ladder_monotone(self):
        x = _voice(4)
        n = np.random.default_rng(5).normal(size=len(x)) * 0.05
        vals = [si_sdr(x, _clip(x.samples + n * 10 ** (-s / 20)))
                for s in (0, 10, 20)]
        assert vals[0] < vals[1] < vals[2]

    def test_zero_energy_rejected(self):
        x = _voice(6)
        z = AudioClip(np.zeros(len(x)))
        with pytest.raises(MetricError, match="zero energy"):
            si_sdr(z, x)
        with pytest.raises(MetricError, match="zero energy"):
            si_sdr(x, z)

    def test_length_mismatch(self):
        x = _voice(7)
        with pytest.raises(MetricError, match="length"):
            si_sdr(x, AudioClip(x.samples[10:]))


class TestLogSpectralDistance:
    def test_identical_is_zero(self):
        a = np.random.default_rng(0).normal(size=(80, 20))
        assert log_spectral_distance(a, a) == 0.0

    def test_constant_offset(self):
        a = np.random.default_rng(1).normal(size=(80, 20))
        assert log_spectral_distance(a, a + 0.5) == pytest.approx(0.5)

    def test_accepts_segments(self):
        a = MelSegment(np.zeros((80, 20)))
        b = MelSegment(np.full((80, 20), 2.0))
        assert log_spectral_distance(a, b) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(MetricError, match="shape"):
            log_spectral_distance(np.zeros((80, 20)), np.zeros((80, 21)))


class TestMelGainProxy:
    def _case(self, seed, snr_db=5.0):
        rng = np.random.default_rng(seed)
        clean, _ = _clean_voice(rng)
        n = rng.normal(size=SAMPLE_RATE)
        noise = AudioClip(0.5 * n / np.max(np.abs(n)))
        triples = make_segment_pairs(clean, noise, np.zeros((25, 80, 80)),
                                     snr_db, clip_id="t")
        mix = mix_at_snr(clean, noise, snr_db)
        return clean, mix, triples

    def test_identity_gain_returns_noisy_audio(self):
        # handing back the noisy log-Mel makes every gain 1, so the proxy is
        # the analysis-synthesis round trip of the unmodified mixture
        clean, mix, triples = self._case(0)
        proxy = mel_gain_proxy(mix.clip, [triples[0].noisy])
        m = proxy.samples.size
        interior = slice(512, m - 512)  # overlap-add edges are partial
        gap = np.max(np.abs(proxy.samples[interior] - mix.clip.samples[interior]))
        assert gap < 1e-6

    def test_unit_peak_after_boost(self):
        clean, mix, triples = self._case(1)
        seg = triples[0].noisy
        boosted = MelSegment(seg.values + 4.0, origin=seg.origin)
        proxy = mel_gain_proxy(mix.clip, [boosted])
        assert np.max(np.abs(proxy.samples)) <= 1.0 + 1e-12

    def test_clean_target_improves_intelligibility(self):
        # carrying the clean band energies on the noisy phase must raise the
        # band-correlation score even though the waveform stays misaligned
        for seed in (2, 3):
            clean, mix, triples = self._case(seed)
            proxy = mel_gain_proxy(mix.clip, [t.clean for t in triples])
            m = proxy.samples.size
            ref = AudioClip(clean.samples[:m] * mix.peak_scale)
            before = stoi(ref, AudioClip(mix.clip.samples[:m]))
            after = stoi(ref, proxy)
            assert after > before + 0.15, f"seed {seed}: {before:.3f} -> {after:.3f}"

    def test_audio_shorter_than_segments_rejected(self):
        clean, mix, triples = self._case(4)
        stub = AudioClip(mix.clip.samples[:1000])
        with pytest.raises(MetricError, match="frames"):
            mel_gain_proxy(stub, [triples[0].noisy])

    def test_no_segments_rejected(self):
        clean, mix, _ = self._case(5)
        with pytest.raises(MetricError, match="no enhanced segments"):
            mel_gain_proxy(mix.clip, [])


class TestEvalReport:
    def test_means(self):
        r = EvalReport("late", 0.0, 1, [
            ItemScore(60.0, 4.0, 1.0), ItemScore(70.0, 6.0, 2.0)])
        assert r.mean_stoi_pct == pytest.approx(65.0)
        assert r.mean_si_sdr_db == pytest.approx(5.0)
        assert r.mean_log_spectral_distance == pytest.approx(1.5)
        assert r.is_finite()

    def test_requires_items(self):
        with pytest.raises(MetricError):
            EvalReport("late", 0.0, 1, [])

    def test_rejects_out_of_range_intelligibility(self):
        with pytest.raises(MetricError):
            EvalReport("late", 0.0, 1, [ItemScore(101.0, 0.0, 0.0)])
        with pytest.raises(MetricError):
            EvalReport("late", 0.0, 1, [ItemScore(-2.0, 0.0, 0.0)])

    def test_is_finite_flags_nan(self):
        r = EvalReport("late", 0.0, 1, [ItemScore(50.0, float("nan"), 1.0)])
        assert not r.is_finite()


class TestEvaluateParams:
    def test_untrained_model_yields_finite_report(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        report = evaluate_params(params, snr_db=0.0, seed=0, n_clips=1)
        assert report.is_finite()
        assert len(report.items) >= 1
        assert report.strategy == "late"
        assert report.snr_db == 0.0

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_snr(self, snr_db):
        params = init_params(0, FusionStrategy.LATE, 16)
        with pytest.raises(MetricError, match="SNR must be finite"):
            evaluate_params(params, snr_db=snr_db, seed=0, n_clips=1)

    def test_deterministic(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        a = evaluate_params(params, snr_db=5.0, seed=2, n_clips=1)
        b = evaluate_params(params, snr_db=5.0, seed=2, n_clips=1)
        assert [i.stoi_pct for i in a.items] == [i.stoi_pct for i in b.items]
        assert [i.si_sdr_db for i in a.items] == [i.si_sdr_db for i in b.items]


@pytest.fixture(scope="module")
def tiny_run():
    return run_ablation(seed=0, width_divisor=16, train_steps=2,
                        train_items=2, batch_size=2, snrs_db=(0.0,),
                        n_eval_clips=1,
                        strategies=(FusionStrategy.EARLY, FusionStrategy.LATE))


class TestAblation:
    def test_covers_requested_grid(self, tiny_run):
        assert [(r.strategy, r.snr_db) for r in tiny_run] == [
            ("early", 0.0), ("late", 0.0)]
        assert all(r.is_finite() for r in tiny_run)

    def test_deterministic(self, tiny_run):
        again = run_ablation(seed=0, width_divisor=16, train_steps=2,
                             train_items=2, batch_size=2, snrs_db=(0.0,),
                             n_eval_clips=1,
                             strategies=(FusionStrategy.EARLY, FusionStrategy.LATE))
        for a, b in zip(tiny_run, again):
            assert a.mean_stoi_pct == b.mean_stoi_pct
            assert a.mean_si_sdr_db == b.mean_si_sdr_db
            assert a.mean_log_spectral_distance == b.mean_log_spectral_distance

    def test_table_formatting(self, tiny_run):
        text = format_ablation(tiny_run)
        lines = text.splitlines()
        assert lines[2].startswith("strategy")
        assert any(ln.startswith("early") for ln in lines)
        assert any(ln.startswith("late") for ln in lines)

    def test_csv_layout(self, tiny_run):
        rows = ablation_to_csv(tiny_run).splitlines()
        assert rows[0] == "strategy,snr_db,stoi_pct,si_sdr_db,log_spectral_distance"
        assert len(rows) == 1 + len(tiny_run)
        assert rows[1].startswith("early,0,")
