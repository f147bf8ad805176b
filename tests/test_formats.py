"""Round-trip and rejection tests for the binary file formats."""

import struct

import numpy as np
import pytest

from mffcn.dsp import AudioClip
from mffcn.formats import (
    FormatError,
    decode_mten,
    encode_mten,
    export_spectrogram,
    load_checkpoint,
    load_loss_csv,
    load_mten,
    load_pgm,
    load_video,
    load_video_frames,
    load_wav,
    save_checkpoint,
    save_loss_csv,
    save_mten,
    save_pgm,
    save_video_frames,
    save_wav,
)


class TestMten:
    def test_round_trip_preserves_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        p = str(tmp_path / "t.mten")
        save_mten(p, arr)
        back = load_mten(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_header_layout(self):
        blob = encode_mten(np.zeros((2, 3), dtype=np.float32))
        assert blob[:4] == b"MTEN"
        version, rank = struct.unpack_from("<BB", blob, 4)
        assert (version, rank) == (1, 2)
        assert struct.unpack_from("<2I", blob, 6) == (2, 3)
        assert len(blob) == 4 + 2 + 8 + 24

    def test_rejects_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mten"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_mten(str(p))

    def test_rejects_truncated_payload(self, tmp_path):
        blob = encode_mten(np.ones(8, dtype=np.float32))
        p = tmp_path / "cut.mten"
        p.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_mten(str(p))

    def test_rejects_trailing_garbage(self, tmp_path):
        p = tmp_path / "extra.mten"
        p.write_bytes(encode_mten(np.ones(2, dtype=np.float32)) + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_mten(str(p))

    def test_rejects_nonfinite(self):
        with pytest.raises(FormatError):
            encode_mten(np.array([np.nan], dtype=np.float32))

    def test_decode_offset_chain(self):
        a = np.arange(4, dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        buf = encode_mten(a) + encode_mten(b)
        first, pos = decode_mten(buf)
        second, end = decode_mten(buf, pos)
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)
        assert end == len(buf)


class TestCheckpoint:
    def test_round_trip_order_and_bits(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = {
            "audio_enc.1.conv.weight": rng.normal(size=(4, 1, 5, 5)).astype(np.float32),
            "audio_enc.1.conv.bias": np.zeros(4, dtype=np.float32),
            "meta.width_divisor": np.array([16.0], dtype=np.float32),
        }
        p = str(tmp_path / "model.mffc")
        save_checkpoint(p, entries)
        back = load_checkpoint(p)
        assert list(back) == list(entries)
        for k in entries:
            assert np.array_equal(back[k], entries[k])

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "x.mffc"
        p.write_bytes(b"XXXX\x01\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="checkpoint"):
            load_checkpoint(str(p))

    def test_rejects_duplicate_names(self, tmp_path):
        blob = encode_mten(np.ones(1, dtype=np.float32))
        rec = struct.pack("<H", 4) + b"name" + blob
        p = tmp_path / "dup.mffc"
        p.write_bytes(b"MFFC" + struct.pack("<BI", 1, 2) + rec + rec)
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(str(p))


class TestWav:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        x = (rng.uniform(-0.9, 0.9, size=1600)).astype(np.float64)
        p = str(tmp_path / "a.wav")
        save_wav(p, x)
        back = load_wav(p)
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) < 1.0 / 32000.0

    def test_full_scale_negative_pcm_clamps_to_minus_one(self, tmp_path):
        pcm = np.array([-32768, -32767, 0, 32767], dtype="<i2")
        fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
        data = pcm.tobytes()
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        p = tmp_path / "clipped.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        x = load_wav(str(p))
        assert np.array_equal(x, [-1.0, -1.0, 0.0, 1.0])
        AudioClip(x)  # a clipped recording is a valid clip

    def test_rejects_stereo(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 2, 16000, 64000, 4, 16)
        data = b"\x00\x00" * 8
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        p = tmp_path / "st.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(FormatError, match="mono"):
            load_wav(str(p))

    def test_rejects_wrong_rate(self, tmp_path):
        fmt = struct.pack("<HHIIHH", 1, 1, 44100, 88200, 2, 16)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", 4) + b"\x00" * 4)
        p = tmp_path / "cd.wav"
        p.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(FormatError, match="16000"):
            load_wav(str(p))

    def test_rejects_non_riff(self, tmp_path):
        p = tmp_path / "n.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError, match="RIFF"):
            load_wav(str(p))

    def test_rejects_over_range_on_save(self, tmp_path):
        with pytest.raises(FormatError, match="scale"):
            save_wav(str(tmp_path / "x.wav"), np.array([1.5]))


class TestPgmAndVideo:
    def test_pgm_round_trip(self, tmp_path):
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        p = str(tmp_path / "f.pgm")
        save_pgm(p, img)
        assert np.array_equal(load_pgm(p), img)

    def test_pgm_header_comments_ok(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        assert np.array_equal(load_pgm(str(p)), [[1, 2], [3, 4]])

    def test_pgm_rejects_p2(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError, match="P5"):
            load_pgm(str(p))

    def test_video_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.integers(0, 256, size=(5, 12, 10), dtype=np.uint8)
        d = str(tmp_path / "vid")
        save_video_frames(d, stack)
        assert np.array_equal(load_video_frames(d), stack)
        assert np.array_equal(load_video(d), stack)

    def test_video_rejects_gap_in_numbering(self, tmp_path):
        d = tmp_path / "vid"
        d.mkdir()
        save_pgm(str(d / "frame_000000.pgm"), np.zeros((2, 2), dtype=np.uint8))
        save_pgm(str(d / "frame_000002.pgm"), np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(FormatError, match="contiguous"):
            load_video_frames(str(d))

    def test_video_from_tensor_file(self, tmp_path):
        arr = np.random.default_rng(4).uniform(0, 1, size=(4, 6, 6)).astype(np.float32)
        p = str(tmp_path / "v.mten")
        save_mten(p, arr)
        assert np.allclose(load_video(p), arr)


class TestCsvAndExport:
    def test_loss_history_round_trip(self, tmp_path):
        losses = [1.5, 0.25, 0.125]
        p = str(tmp_path / "loss.csv")
        save_loss_csv(p, losses)
        assert load_loss_csv(p) == losses
        with open(p) as fh:
            assert fh.readline().strip() == "step,loss"

    def test_spectrogram_export(self, tmp_path):
        s = np.linspace(-3.0, 5.0, 20).reshape(4, 5)
        pgm_path, csv_path = export_spectrogram(str(tmp_path / "spec"), s)
        img = load_pgm(pgm_path)
        assert img.shape == (4, 5)
        assert img.min() == 0 and img.max() == 255
        with open(csv_path) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        back = np.array([[float(v) for v in row] for row in rows])
        assert np.allclose(back, s)
