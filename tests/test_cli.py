"""Command-line behavior: flags, files, exit codes."""

import os

import numpy as np
import pytest

from mffcn import cli
from mffcn.cli import main
from mffcn.dsp import mix_at_snr
from mffcn.formats import load_loss_csv, load_mten, save_mten, save_video_frames, save_wav
from mffcn.gradcheck import CheckResult
from mffcn.metrics import EvalReport, ItemScore
from mffcn.train import _clean_voice, _interference, _mouth_video


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A noisy WAV, a clean WAV, a frame directory, and a tiny checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    clean, env = _clean_voice(rng)
    mix = mix_at_snr(clean, _interference(rng), 0.0)
    save_wav(str(root / "noisy.wav"), mix.clip.samples)
    save_wav(str(root / "clean.wav"), clean.samples * mix.peak_scale)
    video = _mouth_video(rng, env)
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
        assert "64x5x1" in capsys.readouterr().out


class TestGradcheckCommand:
    @pytest.fixture()
    def fake_suites(self, monkeypatch):
        calls = {}

        def fake_ops(seeds, tol):
            calls["seeds"] = tuple(seeds)
            calls["tol"] = tol
            return [CheckResult("add", 1e-9, True),
                    CheckResult("conv2d", 3e-5, True)]

        def fake_model(seed, width_divisor, tol):
            calls["model"] = (seed, width_divisor, tol)
            return CheckResult(f"model[d={width_divisor}]", 5e-5, True)

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

    def test_zero_tolerance_fails_everything(self, fake_suites, capsys):
        assert main(["gradcheck", "--tolerance", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out.count("FAIL") == 3
        assert "worst offender" in captured.err

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
        assert load_loss_csv(str(out / "loss.csv")) != []

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

    def test_invalid_lr_is_usage_error(self):
        assert main(["train", "--lr", "-1", "--width-divisor", "16"]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numeric_error(self, tmp_path):
        rc = main(["train", "--lr", "1e12", "--steps", "5", "--batch", "2",
                   "--width-divisor", "16", "--strategy", "late",
                   "--out", str(tmp_path)])
        assert rc == 3


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

    def test_missing_wav_is_input_error(self, workdir):
        rc = main(["enhance", "no-such.wav", str(workdir / "frames"),
                   "--checkpoint", str(workdir / "ck" / "checkpoint.mffc")])
        assert rc == 2


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

    def test_unknown_extension(self, tmp_path):
        (tmp_path / "x.txt").write_text("hi")
        assert main(["export-spec", str(tmp_path / "x.txt")]) == 2


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

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
