"""Command-line behavior: flags, files, exit codes."""

import csv
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from mffcn import cli, metrics
from mffcn.cli import main
from mffcn.dsp import AudioClip, MelSegment, log_mel, mix_at_snr
from mffcn.formats import load_mten, load_wav, save_mten, save_video_frames, save_wav
from mffcn.gradcheck import CheckResult
from mffcn.metrics import EvalReport, ItemScore
from mffcn.synth import draw_clip


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A noisy WAV, a clean WAV, a frame directory, and a tiny checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    clean, noise, video = draw_clip(rng)
    mix = mix_at_snr(clean, noise, 0.0)
    save_wav(str(root / "noisy.wav"), mix.clip.samples)
    save_wav(str(root / "clean.wav"), mix.clean.samples)
    save_video_frames(str(root / "frames"), np.round(video * 255).astype(np.uint8))
    rc = main(["train", "--steps", "1", "--batch", "2", "--width-divisor", "16",
               "--strategy", "late", "--out", str(root / "ck")])
    assert rc == 0
    return root


class TestTraceShapes:
    def test_full_width(self, capsys):
        assert main(["trace-shapes"]) == 0
        out = capsys.readouterr().out
        assert "1024x5x1" in out
        assert "64x40x10" in out and "64x40x20" in out
        assert "multilayer=73,039,809" in out

    def test_scaled(self, capsys):
        assert main(["trace-shapes", "--width-divisor", "16"]) == 0
        assert capsys.readouterr().out == """\
layer   kernel  stride    pool          audio        video
   in                                 1x80x20      5x80x80
    1      5x5     2x2     2x4        4x40x10      4x40x20
    2      4x4     1x1     1x2        4x40x10      4x40x10
    3      4x4     2x2     2x2         8x20x5       8x20x5
    4      4x4     1x1     1x1         8x20x5       8x20x5
    5      2x2     2x1     2x1        16x10x5      16x10x5
    6      2x2     1x1     1x1        16x10x5      16x10x5
    7      2x2     2x1     2x1         32x5x5       32x5x5
    8      2x2     1x1     1x1         32x5x5       32x5x5
    9      2x2     1x5     1x5         64x5x1       64x5x1
   10      2x2     1x1     1x1         64x5x1       64x5x1
decoder: 64x5x1  32x5x5  32x5x5  16x10x5  16x10x5  8x20x5  8x20x5  4x40x10  4x40x10  1x80x20
parameters: early=144,625  late=212,405  mid-bottleneck=187,509  mid-decoder=268,037  multilayer=290,109
"""


class TestGradcheckCommand:
    @pytest.fixture()
    def fake_suites(self, monkeypatch):
        # Like the real suites, the fakes fold the tolerance into ok: an op
        # row fails above it, the model row at or above it.
        calls = {}

        def fake_ops(seeds, tol):
            calls["seeds"] = tuple(seeds)
            calls["tol"] = tol
            return [CheckResult("add", 1e-9, 1e-9 <= tol),
                    CheckResult("conv2d", 3e-5, 3e-5 <= tol)]

        def fake_model(seed, width_divisor, tol):
            calls["model"] = (seed, width_divisor, tol)
            return CheckResult(f"model[d={width_divisor}]", 5e-5, 5e-5 < tol)

        monkeypatch.setattr(cli, "run_op_suite", fake_ops)
        monkeypatch.setattr(cli, "run_model_check", fake_model)
        return calls

    def test_pass_table(self, fake_suites, capsys):
        assert main(["gradcheck", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert fake_suites["seeds"] == (2, 3, 4, 5, 6)
        assert fake_suites["model"] == (2, 16, pytest.approx(1e-4))
        assert out.count("pass") == 3
        assert "all 3 checks" in out

    def test_tight_tolerance_fails_everything(self, fake_suites, capsys):
        assert main(["gradcheck", "--tolerance", "1e-12"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") == 3
        assert "worst offender" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    def test_unusable_tolerance_is_usage_error(self, fake_suites, capsys, value):
        assert main(["gradcheck", "--tolerance", value]) == 2
        assert "--tolerance" in capsys.readouterr().err
        assert fake_suites == {}  # rejected before any suite runs

    def test_passing_detail_is_printed(self, fake_suites, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_model_check",
                            lambda seed, width_divisor, tol: CheckResult(
                                "model[d=16]", 5e-5, True, "286 coordinates; worst x[0]"))
        assert main(["gradcheck"]) == 0
        assert "286 coordinates; worst x[0]" in capsys.readouterr().out

    def test_failure_names_worst(self, fake_suites, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_model_check",
                            lambda seed, width_divisor, tol: CheckResult(
                                "model[d=16]", 0.5, False, "input 3: rel 0.5"))
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "model[d=16] (5.000e-01)" in captured.err
        assert "input 3" in captured.out


class TestTrainCommand:
    def test_writes_checkpoint_and_history(self, workdir):
        out = workdir / "ck"
        assert (out / "checkpoint.mffc").exists()
        with open(out / "loss.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["step", "loss"]
        assert rows != []

    def test_bit_reproducible(self, workdir, tmp_path):
        args = ["train", "--steps", "2", "--batch", "2", "--width-divisor", "16",
                "--strategy", "late", "--seed", "5"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert (a / "checkpoint.mffc").read_bytes() == (b / "checkpoint.mffc").read_bytes()
        assert (a / "loss.csv").read_text() == (b / "loss.csv").read_text()

    def test_saved_dataset_roundtrip(self, tmp_path):
        from mffcn.train import save_dataset, synth_dataset
        save_dataset(str(tmp_path / "ds"), synth_dataset(1, 2))
        rc = main(["train", "--steps", "1", "--batch", "2", "--width-divisor", "16",
                   "--strategy", "late", "--data", str(tmp_path / "ds"),
                   "--out", str(tmp_path / "run")])
        assert rc == 0

    @pytest.mark.parametrize("defect, named", [
        ("missing", "00003.clean.mten: item 3: "),
        ("gap", "00001.noisy.mten: item 1: "),
        ("shape", "00003.noisy.mten: item 3: "),
        ("range", "00003.video.mten: item 3: "),
    ])
    def test_bad_dataset_item_is_usage_error_naming_the_file(self, tmp_path, capsys, defect, named):
        from test_train import plant_dataset_defect
        rc = main(["train", "--steps", "1", "--batch", "2", "--width-divisor", "16",
                   "--data", plant_dataset_defect(tmp_path / "ds", defect), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_invalid_lr_is_usage_error(self):
        assert main(["train", "--lr", "-1", "--width-divisor", "16"]) == 2

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--snr-low", "nan"), ("--snr-high", "inf")])
    def test_non_finite_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        rc = main(["train", flag, value, "--steps", "1", "--batch", "2",
                   "--width-divisor", "16", "--out", str(tmp_path)])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.mffc").exists()

    def test_unordered_snr_range_names_both_flags(self, tmp_path, capsys):
        rc = main(["train", "--snr-low", "5", "--snr-high", "-5", "--steps", "1", "--batch", "2",
                   "--width-divisor", "16", "--out", str(tmp_path)])
        assert rc == 2
        assert "--snr-low 5 is above --snr-high -5" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.mffc").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numeric_error(self, tmp_path):
        rc = main(["train", "--lr", "1e12", "--steps", "5", "--batch", "2",
                   "--width-divisor", "16", "--strategy", "late",
                   "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_learning_rate_is_numeric_error(self, tmp_path, capsys):
        rc = main(["train", "--lr", "1e30", "--steps", "5", "--batch", "2",
                   "--width-divisor", "16", "--strategy", "late",
                   "--out", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("numeric failure: step ")

    def test_numeric_abort_writes_one_line(self, tmp_path):
        # A fresh interpreter, so numpy's warnings would reach stderr rather than pytest.
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        child = subprocess.run(
            [sys.executable, "-m", "mffcn.cli", "train", "--width-divisor", "16", "--batch", "1",
             "--steps", "2", "--lr", "1e30", "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300)
        assert child.returncode == 3
        lines = child.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: step 2: "), child.stderr

    def test_empty_data_dir_is_usage_error_whatever_its_name(self, tmp_path, capsys):
        data = tmp_path / "non-finite-data"
        data.mkdir()
        rc = main(["train", "--data", str(data), "--steps", "1", "--batch", "2",
                   "--width-divisor", "16", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: no dataset items found under ")


class TestEnhanceCommand:
    def test_writes_segments_and_images(self, workdir, tmp_path, capsys):
        rc = main(["enhance", str(workdir / "noisy.wav"), str(workdir / "frames"),
                   str(workdir / "clean.wav"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path)])
        assert rc == 0
        assert "log-spectral distance" in capsys.readouterr().out
        seg = load_mten(str(tmp_path / "enhanced_000.mten"))
        assert seg.shape == (80, 20)
        for name in ("noisy.pgm", "enhanced.pgm", "clean.pgm", "noisy.csv"):
            assert (tmp_path / name).exists(), name

    def test_reference_distance_is_the_metric(self, workdir, tmp_path, capsys, monkeypatch):
        calls = []

        def recorded(a, b):
            calls.append(metrics.log_spectral_distance(a, b))
            return calls[-1]

        monkeypatch.setattr(cli, "log_spectral_distance", recorded)
        rc = main(["enhance", str(workdir / "noisy.wav"), str(workdir / "frames"),
                   str(workdir / "clean.wav"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path)])
        assert rc == 0
        n = len([f for f in os.listdir(tmp_path) if f.startswith("enhanced_")])
        enhanced = [MelSegment(load_mten(str(tmp_path / f"enhanced_{k:03d}.mten"))) for k in range(n)]
        clean = log_mel(AudioClip(load_wav(str(workdir / "clean.wav"))))[:n]
        want = metrics.log_spectral_distance(enhanced, clean)  # the mean of per-segment distances
        assert calls == [want]
        assert f"log-spectral distance to reference: {want:.4f}\n" in capsys.readouterr().out

    def test_resizes_offsize_frames(self, workdir, tmp_path):
        frames = np.random.default_rng(0).integers(0, 255, (10, 100, 120), dtype=np.uint8)
        save_video_frames(str(tmp_path / "big"), frames)
        rc = main(["enhance", str(workdir / "noisy.wav"), str(tmp_path / "big"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "enhanced_001.mten").exists()

    @pytest.mark.parametrize("n_frames, segments, audio_left, video_left", [
        (27, 4, 2720, 7),   # 1 s of audio makes 97 STFT frames: 4 segments and 17 frames over
        (12, 2, 9120, 2),   # the video runs out first; the audio of segments 3 and 4 is dropped too
    ])
    def test_reports_dropped_tails(self, workdir, tmp_path, capsys, n_frames, segments,
                                   audio_left, video_left):
        rng = np.random.default_rng(1)
        save_wav(str(tmp_path / "in.wav"), rng.uniform(-0.5, 0.5, 16000))
        save_video_frames(str(tmp_path / "frames"),
                          rng.integers(0, 255, (n_frames, 80, 80), dtype=np.uint8))
        rc = main(["enhance", str(tmp_path / "in.wav"), str(tmp_path / "frames"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert (f"enhanced {segments} segments; dropped {audio_left} trailing audio samples "
                f"({audio_left / 16000:.3f} s) and {video_left} trailing video frames") in out
        written = sorted(f for f in os.listdir(tmp_path / "o") if f.endswith(".mten"))
        assert written == [f"enhanced_{k:03d}.mten" for k in range(segments)]

    def test_one_pixel_frames_enhance(self, workdir, tmp_path):
        dots = np.random.default_rng(4).integers(0, 255, (10, 1, 1), dtype=np.uint8)
        save_video_frames(str(tmp_path / "dots"), dots)
        frames = cli._video_unit_frames(str(tmp_path / "dots"))
        assert np.array_equal(frames, np.broadcast_to(dots / 255.0, (10, 80, 80)))  # constant frames
        rc = main(["enhance", str(workdir / "noisy.wav"), str(tmp_path / "dots"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "enhanced_001.mten").exists()

    def test_dark_pgm_clip_is_scaled_by_its_maxval(self, tmp_path):
        # every pixel 0 or 1: still 8-bit values, not [0, 1] ones
        dark = np.random.default_rng(2).integers(0, 2, (5, 80, 80), dtype=np.uint8)
        save_video_frames(str(tmp_path / "dark"), dark)
        assert cli._video_unit_frames(str(tmp_path / "dark")).max() == 1 / 255

    def test_mten_video_outside_unit_range_is_input_error(self, workdir, tmp_path, capsys):
        video = tmp_path / "v.mten"
        save_mten(str(video), np.full((10, 80, 80), 200, dtype=np.float32))
        rc = main(["enhance", str(workdir / "noisy.wav"), str(video),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(video) in err and "max 200" in err

    def test_unit_range_mten_video_enhances(self, workdir, tmp_path):
        frames = np.random.default_rng(3).uniform(0.0, 1.0, (10, 80, 80)).astype(np.float32)
        save_mten(str(tmp_path / "v.mten"), frames)
        rc = main(["enhance", str(workdir / "noisy.wav"), str(tmp_path / "v.mten"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "enhanced_001.mten").exists()

    def test_missing_wav_is_input_error(self, workdir):
        rc = main(["enhance", "no-such.wav", str(workdir / "frames"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc")])
        assert rc == 2

    def test_bad_reference_wav_is_refused_before_any_output(self, workdir, tmp_path, capsys):
        clean = tmp_path / "clean.wav"
        clean.write_bytes(b"not a wav file")
        out = tmp_path / "o"
        rc = main(["enhance", str(workdir / "noisy.wav"), str(workdir / "frames"), str(clean),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(out)])
        assert rc == 2
        assert str(clean) in capsys.readouterr().err
        assert not out.exists()


class TestEvalCommand:
    def test_writes_report_csv(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path), "--snr-low", "0", "--snr-high", "0"])
        assert rc == 0
        rows = (tmp_path / "eval.csv").read_text().splitlines()
        assert rows[0].startswith("strategy,snr_db")
        assert len(rows) == 2
        assert "late" in capsys.readouterr().out

    def test_missing_checkpoint(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.mffc")]) == 2

    def test_negative_exponent_snr_scores_at_that_snr(self, workdir, tmp_path):
        rc = main(["eval", "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path), "--snr-low", "-1e1", "--snr-high", "0"])
        assert rc == 0
        with open(tmp_path / "eval.csv", newline="") as fh:
            assert sorted(float(row["snr_db"]) for row in csv.DictReader(fh)) == [-10.0, 0.0]

    @pytest.mark.parametrize("flag", ["--snr-low", "--snr-high"])
    def test_non_finite_snr_is_usage_error(self, workdir, tmp_path, capsys, flag):
        rc = main(["eval", "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path), flag, "nan"])
        assert rc == 2
        assert flag in capsys.readouterr().err


    def test_unordered_snr_range_names_both_flags(self, workdir, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path), "--snr-low", "0", "--snr-high", "-5"])
        assert rc == 2
        assert "--snr-low 0 is above --snr-high -5" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()


class TestSnrBeyondFloat64:
    """An SNR range that parses but cannot be mixed or drawn is refused by name, before any output."""

    @pytest.mark.parametrize("sub, low, high, defect", [
        ("train", "-4000", "-4000", "SNR -4000.0 dB needs a noise gain beyond float64"),
        ("eval", "-4000", "-4000", "SNR -4000.0 dB needs a noise gain beyond float64"),
        ("train", "-3200", "-3200", "SNR -3200.0 dB needs a noise gain beyond float64"),
        ("train", "-1e308", "1e308", "SNR range [-1e+308, 1e+308] is too wide for float64 to draw from"),
    ], ids=["train-underflow", "eval-underflow", "train-overflow", "train-range"])
    def test_refused_by_name(self, workdir, tmp_path, capsys, sub, low, high, defect):
        out = tmp_path / "out"
        needs = (["--checkpoint", str(workdir / "ck" / "checkpoint.mffc")] if sub == "eval" else
                 ["--steps", "0", "--batch", "1", "--width-divisor", "64"])
        assert main([sub, *needs, f"--snr-low={low}", "--snr-high", high, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {defect}\n"
        assert not out.exists()


class TestMalformedFilesNameTheDefect:
    def _checkpoint_entries(self, workdir):
        from mffcn.formats import load_checkpoint
        return load_checkpoint(str(workdir / "ck" / "checkpoint.mffc"))

    def test_bad_width_divisor_entry(self, workdir, tmp_path, capsys):
        from mffcn.formats import save_checkpoint
        entries = self._checkpoint_entries(workdir)
        entries["meta.width_divisor"] = np.array([16.7], dtype=np.float32)
        save_checkpoint(str(tmp_path / "meta.mffc"), entries)
        assert main(["eval", "--checkpoint", str(tmp_path / "meta.mffc")]) == 2
        err = capsys.readouterr().err
        assert "meta.mffc" in err and "meta.width_divisor" in err

    def _plant_nan(self, workdir, path, record):
        """Save the fixture checkpoint with a NaN as the first value of one record."""
        from mffcn.formats import save_checkpoint
        entries = self._checkpoint_entries(workdir)
        marker = np.float32(-1234.5678)
        entries[record] = entries[record].copy()
        entries[record].reshape(-1)[0] = marker
        save_checkpoint(str(path), entries)
        raw = path.read_bytes()
        assert raw.count(marker.tobytes()) == 1
        path.write_bytes(raw.replace(marker.tobytes(), np.float32(np.nan).tobytes()))

    @pytest.mark.parametrize("record", ["audio_enc.1.conv.weight", "audio_enc.1.bn.running_var"])
    def test_nan_record(self, workdir, tmp_path, capsys, record):
        self._plant_nan(workdir, tmp_path / "nan.mffc", record)
        assert main(["eval", "--checkpoint", str(tmp_path / "nan.mffc")]) == 2
        err = capsys.readouterr().err
        assert "nan.mffc" in err and record in err and "NaN or Inf" in err

    def test_undecodable_record_name(self, workdir, tmp_path, capsys):
        raw = bytearray((workdir / "ck" / "checkpoint.mffc").read_bytes())
        raw[11] = 0x85  # first byte of the first record's name
        (tmp_path / "name.mffc").write_bytes(bytes(raw))
        assert main(["eval", "--checkpoint", str(tmp_path / "name.mffc")]) == 2
        err = capsys.readouterr().err
        assert "name.mffc" in err and "record 0 name" in err

    def test_truncated_mten(self, tmp_path, capsys):
        save_mten(str(tmp_path / "s.mten"), np.ones((80, 20), dtype=np.float32))
        raw = (tmp_path / "s.mten").read_bytes()
        (tmp_path / "s.mten").write_bytes(raw[:100])
        assert main(["export-spec", str(tmp_path / "s.mten"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "s.mten" in err and "truncated tensor payload" in err

    def test_corrupted_pgm_maxval(self, tmp_path, capsys):
        (tmp_path / "s.pgm").write_bytes(b"P5\n2 2\n255\xe0\n\x01\x02\x03\x04")
        assert main(["export-spec", str(tmp_path / "s.pgm"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "s.pgm" in err and "maxval" in err

    def test_pgm_bytes_after_the_pixels(self, tmp_path, capsys):
        (tmp_path / "s.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(6))
        assert main(["export-spec", str(tmp_path / "s.pgm"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "s.pgm" in err and "2 bytes after the 2x2 pixel payload" in err

    def test_mten_rank_past_the_dims(self, tmp_path, capsys):
        save_mten(str(tmp_path / "s.mten"), np.ones((80, 20), dtype=np.float32))
        raw = bytearray((tmp_path / "s.mten").read_bytes())
        raw[5] = 7  # five payload words become dims whose product overflows int64
        (tmp_path / "s.mten").write_bytes(bytes(raw))
        assert main(["export-spec", str(tmp_path / "s.mten"), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "s.mten" in err and "truncated tensor payload" in err

    def test_wav_riff_size_disagrees(self, workdir, tmp_path, capsys):
        raw = bytearray((workdir / "noisy.wav").read_bytes())
        raw[4] ^= 0x10
        (tmp_path / "n.wav").write_bytes(bytes(raw))
        rc = main(["enhance", str(tmp_path / "n.wav"), str(workdir / "frames"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "n.wav" in err and "RIFF size" in err


class TestAblateCommand:
    def _fake_reports(self, sdr):
        return [EvalReport(s, 0.0, 0, [ItemScore(50.0, sdr, 1.0)])
                for s in ("early", "late", "mid-bottleneck", "mid-decoder",
                          "multilayer")]

    def test_writes_table_and_csv(self, monkeypatch, tmp_path, capsys):
        seen = {}

        def fake(seed, width_divisor, train_steps, train_items, batch_size,
                 learning_rate, snrs_db):
            seen.update(seed=seed, d=width_divisor, steps=train_steps,
                        snrs=tuple(snrs_db))
            return self._fake_reports(4.0)

        monkeypatch.setattr(cli, "run_ablation", fake)
        rc = main(["ablate", "--seed", "3", "--steps", "7", "--out", str(tmp_path)])
        assert rc == 0
        assert seen == {"seed": 3, "d": 8, "steps": 7, "snrs": (0.0, -5.0)}
        csv_rows = (tmp_path / "ablation.csv").read_text().splitlines()
        assert len(csv_rows) == 6
        text = (tmp_path / "ablation.txt").read_text()
        assert "multilayer" in text
        assert "strategy" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--lr", "--snr-low", "--snr-high"])
    def test_non_finite_flag_is_usage_error(self, monkeypatch, tmp_path, capsys, flag):
        monkeypatch.setattr(cli, "run_ablation", lambda **kw: pytest.fail("ablation ran"))
        assert main(["ablate", flag, "inf", "--out", str(tmp_path)]) == 2
        assert flag in capsys.readouterr().err

    def test_unordered_snr_range_names_both_flags(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "run_ablation", lambda **kw: pytest.fail("ablation ran"))
        assert main(["ablate", "--snr-low", "2.5", "--snr-high", "-2.5", "--out", str(tmp_path)]) == 2
        assert "--snr-low 2.5 is above --snr-high -2.5" in capsys.readouterr().err

    def test_nonfinite_report_is_numeric_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "run_ablation",
                            lambda **kw: self._fake_reports(float("nan")))
        rc = main(["ablate", "--out", str(tmp_path)])
        assert rc == 3


class TestExportSpec:
    def test_mten_to_images_and_back(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(80, 20)).astype(np.float32)
        save_mten(str(tmp_path / "spec.mten"), arr)
        assert main(["export-spec", str(tmp_path / "spec.mten"),
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "spec.pgm").exists()
        # the CSV side holds raw values, so it round-trips exactly at the
        # container's float32 precision
        assert main(["export-spec", str(tmp_path / "spec.csv"),
                     "--out", str(tmp_path / "back")]) == 0
        again = load_mten(str(tmp_path / "back" / "spec.mten"))
        assert np.array_equal(again, arr)

    def test_pgm_to_mten(self, tmp_path):
        arr = np.linspace(0.0, 1.0, 80 * 20).reshape(80, 20)
        save_mten(str(tmp_path / "s.mten"), arr)
        main(["export-spec", str(tmp_path / "s.mten"), "--out", str(tmp_path)])
        assert main(["export-spec", str(tmp_path / "s.pgm"),
                     "--out", str(tmp_path / "p")]) == 0
        img = load_mten(str(tmp_path / "p" / "s.mten"))
        assert img.shape == (80, 20)
        assert img.max() == 255.0

    def test_sixteen_bit_pgm_to_mten(self, tmp_path, capsys):
        (tmp_path / "w.pgm").write_bytes(b"P5\n2 1\n1000\n\x03\xe8\x01\x02")
        assert main(["export-spec", str(tmp_path / "w.pgm"), "--out", str(tmp_path)]) == 0
        assert load_mten(str(tmp_path / "w.mten")).tolist() == [[1000.0, 258.0]]
        assert "0 to the PGM's maxval" in capsys.readouterr().out

    def test_plain_p2_converts_as_its_p5_twin(self, tmp_path):
        (tmp_path / "p5").mkdir()
        (tmp_path / "p5" / "f.pgm").write_bytes(b"P5\n3 1\n1000\n\x03\xe8\x00\x07\x01\x02")
        (tmp_path / "p2").mkdir()
        (tmp_path / "p2" / "f.pgm").write_bytes(b"P2\n3 1\n1000\n1000 7\n258\n")
        for name in ("p5", "p2"):
            assert main(["export-spec", str(tmp_path / name / "f.pgm"), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "p2" / "f.mten").read_bytes() == (tmp_path / "p5" / "f.mten").read_bytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, text, defect", [
        ("empty.csv", "", "CSV holds no values"),
        ("nan.csv", "1,nan\n", "line 1, column 2: 'nan' is not a finite float32 value"),
        ("big.csv", "1,2\n3,1e39\n", "line 2, column 2: '1e39' is not a finite float32 value"),
        ("ragged.csv", "1,2\n3\n", "line 2 has 1 values, the first row 2"),
        ("alpha.csv", "1,2\n\n3,a\n", "line 3, column 2: 'a' is not a number"),
    ], ids=["empty", "nan", "big", "ragged", "alpha"])
    def test_bad_csv_refused_by_name(self, tmp_path, capsys, name, text, defect):
        path = tmp_path / name
        path.write_text(text)
        assert main(["export-spec", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {defect}\n"

    def test_csv_with_a_byte_order_mark_converts_as_without(self, tmp_path):
        # spreadsheet tools write "CSV UTF-8" with a leading byte-order mark
        table = b"1.0,2.0\r\n3.0,4.0\r\n"
        for name, raw in (("plain", table), ("bom", b"\xef\xbb\xbf" + table)):
            (tmp_path / f"{name}.csv").write_bytes(raw)
            assert main(["export-spec", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "bom" / "bom.mten").read_bytes() == (tmp_path / "plain" / "plain.mten").read_bytes()

    @pytest.mark.parametrize("raw, defect", [
        (b"\xef\xbb\xbf\xef\xbb\xbf1,2\n", "line 1, column 1: '\\ufeff1' is not a number"),
        (b"1,\xef\xbb\xbf2\n", "line 1, column 2: '\\ufeff2' is not a number"),
        (b"\xef\xbb\xbf1,\xff\n", "CSV is not valid UTF-8 (byte 5: invalid start byte)"),
    ], ids=["second-mark", "mid-file-mark", "not-utf8-after-mark"])
    def test_bad_csv_after_a_byte_order_mark_refused(self, tmp_path, capsys, raw, defect):
        path = tmp_path / "bom.csv"
        path.write_bytes(raw)
        assert main(["export-spec", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {defect}\n"

    def test_non_utf8_csv_refused_by_name(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        assert main(["export-spec", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {path}: CSV is not valid UTF-8 (byte 6: invalid start byte)\n"

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_spectrogram_of_another_rank_refused_by_name(self, tmp_path, capsys, shape):
        path = tmp_path / "s.mten"
        save_mten(str(path), np.ones(shape, dtype=np.float32))
        assert main(["export-spec", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: a spectrogram must be 2-D, got shape {shape}\n")

    def test_csv_with_blank_lines_spaces_and_quotes(self, tmp_path):
        (tmp_path / "s.csv").write_text('1.5, 2\n\n"3",-4e-3\n')
        assert main(["export-spec", str(tmp_path / "s.csv"), "--out", str(tmp_path)]) == 0
        assert load_mten(str(tmp_path / "s.mten")).tolist() == (
            np.array([[1.5, 2.0], [3.0, -4e-3]], dtype=np.float32).tolist())

    def test_unknown_extension(self, tmp_path):
        (tmp_path / "x.txt").write_text("hi")
        assert main(["export-spec", str(tmp_path / "x.txt")]) == 2


# Each float flag, with its subcommand and the arguments that subcommand requires.
FLOAT_FLAGS = [("train", "--lr", []), ("train", "--snr-low", []), ("train", "--snr-high", []),
               ("eval", "--snr-low", ["--checkpoint", "ck.mffc"]),
               ("eval", "--snr-high", ["--checkpoint", "ck.mffc"]),
               ("ablate", "--lr", []), ("ablate", "--snr-low", []), ("ablate", "--snr-high", []),
               ("gradcheck", "--tolerance", [])]


class TestFloatFlagSpellings:
    """``--flag value`` and ``--flag=value`` read alike, for negative exponent and non-finite values too.

    argparse tells a negative number from a flag by cli._Parser's private
    matcher, which these tests pin.
    """

    @pytest.mark.parametrize("sub, flag, needs", FLOAT_FLAGS)
    @pytest.mark.parametrize("value", ["-1e1", "-1.5e-3", "-1E+2"])
    def test_finite_value_parses_alike_in_both_spellings(self, sub, flag, needs, value):
        parse, dest = cli.build_parser().parse_args, flag[2:].replace("-", "_")
        apart = getattr(parse([sub, *needs, flag, value]), dest)
        joined = getattr(parse([sub, *needs, f"{flag}={value}"]), dest)
        assert apart == joined == float(value)

    @pytest.fixture()
    def nothing_runs(self, monkeypatch):
        def refuse(name):
            return lambda *args, **kwargs: pytest.fail(f"{name} ran")

        for name in ("train", "synth_dataset", "load_dataset", "load_model", "evaluate_params",
                     "run_ablation", "run_op_suite", "run_model_check"):
            monkeypatch.setattr(cli, name, refuse(name))

    @pytest.mark.parametrize("sub, flag, needs", FLOAT_FLAGS)
    @pytest.mark.parametrize("value", ["-inf", "-nan", "inf", "nan"])
    @pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
    def test_non_finite_value_is_refused_by_name(self, nothing_runs, tmp_path, capsys, sub, flag, needs,
                                                 value, joined):
        out = tmp_path / "out"
        words = [f"{flag}={value}"] if joined else [flag, value]
        outs = [] if sub == "gradcheck" else ["--out", str(out)]
        assert main([sub, *needs, *words, *outs]) == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


# Each integer flag's least allowed value, and the subcommands that take it with the arguments they require.
INT_FLAGS = {"--seed": 0, "--steps": 0, "--batch": 1, "--width-divisor": 1}
INT_FLAG_SUBS = [("gradcheck", ("--seed", "--width-divisor"), []), ("trace-shapes", ("--width-divisor",), []),
                 ("train", tuple(INT_FLAGS), []), ("eval", ("--seed",), ["--checkpoint", "ck.mffc"]),
                 ("ablate", tuple(INT_FLAGS), [])]
# The least value, one below it, 0, -1, an exponent form, inf, nan and, for the divisor, a non-divisor.
INT_CASES = [(sub, flag, needs, value) for sub, flags, needs in INT_FLAG_SUBS for flag in flags
             for value in dict.fromkeys([str(INT_FLAGS[flag]), str(INT_FLAGS[flag] - 1), "0", "-1", "1e1", "inf",
                                         "nan"] + (["3"] if flag == "--width-divisor" else []))]


class TestIntegerFlagBoundaries:
    """Every integer flag at and around its least value, in both spellings.

    Of these values only the least one is allowed: it runs to exit 0 over
    stand-ins for the heavy calls. Every other one exits 2 from the parser,
    naming the flag, before anything is written under --out.
    """

    @pytest.fixture()
    def light_runs(self, monkeypatch):
        reports = [EvalReport("late", 0.0, 0, [ItemScore(50.0, 4.0, 1.0)])]
        for name, fake in {"synth_dataset": lambda *args, **kwargs: [],
                           "train": lambda *args, **kwargs: SimpleNamespace(loss_history=[]),
                           "load_model": lambda path: None,
                           "evaluate_params": lambda params, snr_db, seed: reports[0],
                           "run_ablation": lambda **kwargs: reports,
                           "run_op_suite": lambda seeds, tol: [],
                           "run_model_check": lambda seed, width_divisor, tol: CheckResult("model", 0.0, True),
                           }.items():
            monkeypatch.setattr(cli, name, fake)

    @pytest.mark.parametrize("sub, flag, needs, value", INT_CASES)
    @pytest.mark.parametrize("joined", [False, True], ids=["apart", "joined"])
    def test_runs_or_is_refused_by_name(self, light_runs, tmp_path, capsys, sub, flag, needs, value, joined):
        out = tmp_path / "out"
        words = [f"{flag}={value}"] if joined else [flag, value]
        outs = ["--out", str(out)] if sub in ("train", "eval", "ablate") else []
        try:
            code = main([sub, *needs, *words, *outs])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        if value == str(INT_FLAGS[flag]):
            assert code == 0, err
        else:
            assert code == 2
            assert f"argument {flag}: " in err
            assert not out.exists()


class TestParserBasics:
    def test_help_exits_zero_everywhere(self, capsys):
        for sub in ("", "gradcheck", "trace-shapes", "train", "enhance", "eval",
                    "ablate", "export-spec"):
            argv = ([sub] if sub else []) + ["--help"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--" in out or "usage" in out

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", ["train", "gradcheck", "eval"])
    @pytest.mark.parametrize("value", ["-1", "2.5", "x"])
    def test_bad_seed_names_flag_and_value(self, capsys, sub, value):
        argv = [sub, "--seed", value] + (["--checkpoint", "ck.mffc"] if sub == "eval" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and repr(value) in err

    @pytest.mark.parametrize("sub", ["train", "ablate"])
    @pytest.mark.parametrize("flag, value", [
        ("--seed", "-1"), ("--steps", "-1"), ("--steps", "2.5"), ("--batch", "0"), ("--batch", "x"),
        ("--width-divisor", "3"), ("--width-divisor", "0")])
    def test_bad_integer_flag_names_flag_and_value(self, capsys, sub, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([sub, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err
        assert repr(value) in err or f"invalid choice: {value} " in err

    def test_subcommand_defaults(self):
        parse = cli.build_parser().parse_args
        t = parse(["train"])
        assert (t.seed, t.width_divisor, t.steps, t.snr_low, t.snr_high) == (0, 1, 100, -10.0, 10.0)
        a = parse(["ablate"])
        assert (a.width_divisor, a.steps, a.snr_low, a.snr_high) == (8, 50, -5.0, 0.0)
        e = parse(["eval", "--checkpoint", "ck.mffc"])
        assert (e.snr_low, e.snr_high) == (-5.0, 0.0)
        assert parse(["gradcheck"]).width_divisor == 16
        assert parse(["trace-shapes"]).width_divisor == 1

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
