"""Round-trip and rejection tests for the binary file formats."""

import csv
import io
import os
import re
import struct

import numpy as np
import pytest

from mffcn import formats
from mffcn.dsp import AudioClip
from mffcn.formats import (
    FormatError,
    _mten_array,
    _read_mten,
    _write_mten,
    export_spectrogram,
    load_checkpoint,
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


def _mten_bytes(array):
    """One MTEN blob, as save_mten and save_checkpoint write it."""
    fh = io.BytesIO()
    _write_mten(fh, _mten_array(array))
    return fh.getvalue()


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
        blob = _mten_bytes(np.zeros((2, 3), dtype=np.float32))
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
        blob = _mten_bytes(np.ones(8, dtype=np.float32))
        p = tmp_path / "cut.mten"
        p.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_mten(str(p))

    @pytest.mark.parametrize("cut", [3, 9, 20])
    def test_truncated_file_error_names_the_path(self, tmp_path, cut):
        p = tmp_path / "cut.mten"
        p.write_bytes(_mten_bytes(np.ones((3, 4)))[:cut])
        with pytest.raises(FormatError, match=r"cut\.mten: truncated tensor"):
            load_mten(str(p))

    def test_rejects_trailing_garbage(self, tmp_path):
        p = tmp_path / "extra.mten"
        p.write_bytes(_mten_bytes(np.ones(2, dtype=np.float32)) + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            load_mten(str(p))

    def test_rejects_rank_beyond_numpy(self, tmp_path):
        p = tmp_path / "r65.mten"
        p.write_bytes(b"MTEN" + bytes([1, 65]) + struct.pack("<65I", *[1] * 65) + bytes(4))
        with pytest.raises(FormatError, match=r"r65\.mten: tensor rank 65 is not supported"):
            load_mten(str(p))

    def test_rejects_nonfinite(self, tmp_path):
        p = tmp_path / "nan.mten"
        with pytest.raises(FormatError, match="non-finite"):
            save_mten(str(p), np.array([np.nan], dtype=np.float32))
        assert not p.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (0,), (2, 1, 0)])
    def test_rejects_zero_extent(self, tmp_path, shape):
        # the reader refuses a zero extent, so the writer must not make one
        p = tmp_path / "empty.mten"
        with pytest.raises(FormatError, match=re.escape(f"tensor dims must be positive, got {shape}")):
            save_mten(str(p), np.zeros(shape, dtype=np.float32))
        assert not p.exists()

    def test_decode_offset_chain(self):
        # load_checkpoint reads its records back to back with _read_mten:
        # each read must stop exactly at the end of its own blob.
        a = np.arange(4, dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        buf = _mten_bytes(a) + _mten_bytes(b)
        fh = io.BytesIO(buf)
        first = _read_mten(fh, len(buf))
        assert fh.tell() == len(_mten_bytes(a))
        second = _read_mten(fh, len(buf))
        assert np.array_equal(first, a)
        assert np.array_equal(second, b)
        assert fh.tell() == len(buf)


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

    def test_overwrite_leaves_no_part_file(self, tmp_path):
        p = tmp_path / "model.mffc"
        save_checkpoint(str(p), {"a": np.zeros(3, dtype=np.float32)})
        save_checkpoint(str(p), {"b": np.ones(2, dtype=np.float32)})
        assert list(load_checkpoint(str(p))) == ["b"]
        assert os.listdir(tmp_path) == ["model.mffc"]

    @pytest.mark.parametrize("bad", ["nan", "zero extent", "long name", "io error"])
    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch, bad):
        p = tmp_path / "model.mffc"
        save_checkpoint(str(p), {"a": np.arange(3, dtype=np.float32)})
        before = p.read_bytes()
        entries = {"a": np.ones(3, dtype=np.float32), "b": np.ones((2, 2), dtype=np.float32)}
        expected, match = FormatError, None
        if bad == "nan":
            entries["b"][1, 0] = np.nan
            match = re.escape("record 1 ('b'): refusing to encode non-finite tensor values")
        elif bad == "zero extent":
            entries["b"] = np.ones((2, 0), dtype=np.float32)
            match = re.escape("record 1 ('b'): tensor dims must be positive, got (2, 0)")
        elif bad == "long name":
            entries["x" * 0x10000] = np.ones(1, dtype=np.float32)
        else:
            write = formats._write_mten

            def failing(fh, arr):
                if arr.ndim == 2:  # the second record, after the first was written
                    fh.write(b"MTEN")
                    raise OSError("no space left on device")
                write(fh, arr)

            monkeypatch.setattr(formats, "_write_mten", failing)
            expected = OSError
        with pytest.raises(expected, match=match):
            save_checkpoint(str(p), entries)
        assert p.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.mffc"]

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "x.mffc"
        p.write_bytes(b"XXXX\x01\x00\x00\x00\x00")
        with pytest.raises(FormatError, match="checkpoint"):
            load_checkpoint(str(p))

    def test_rejects_duplicate_names(self, tmp_path):
        blob = _mten_bytes(np.ones(1, dtype=np.float32))
        rec = struct.pack("<H", 4) + b"name" + blob
        p = tmp_path / "dup.mffc"
        p.write_bytes(b"MFFC" + struct.pack("<BI", 1, 2) + rec + rec)
        with pytest.raises(FormatError, match="duplicate"):
            load_checkpoint(str(p))

    def test_rejects_undecodable_name_naming_the_record(self, tmp_path):
        blob = _mten_bytes(np.ones(1, dtype=np.float32))
        good = struct.pack("<H", 4) + b"name" + blob
        bad = struct.pack("<H", 4) + b"na\x85e" + blob
        p = tmp_path / "utf.mffc"
        p.write_bytes(b"MFFC" + struct.pack("<BI", 1, 2) + good + bad)
        with pytest.raises(FormatError, match=r"utf\.mffc: record 1 name is not valid UTF-8"):
            load_checkpoint(str(p))

    def test_rejects_bad_payload_naming_the_record(self, tmp_path):
        rec = struct.pack("<H", 4) + b"name" + b"XTEN" + _mten_bytes(np.ones(1))[4:]
        p = tmp_path / "payload.mffc"
        p.write_bytes(b"MFFC" + struct.pack("<BI", 1, 1) + rec)
        with pytest.raises(FormatError, match=r"payload\.mffc: record 0 \('name'\): bad tensor magic"):
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

    @pytest.mark.parametrize("header, field", [
        (b"P5\n2x 2\n255\n", "width"),
        (b"P5\n2 +2\n255\n", "height"),
        (b"P5\n2 2\n255\xe0\n", "maxval"),
        (b"P5\n2 2\n-255\n", "maxval"),
    ])
    def test_pgm_rejects_non_decimal_field_by_name(self, tmp_path, header, field):
        p = tmp_path / "bad.pgm"
        p.write_bytes(header + b"\x01\x02\x03\x04")
        with pytest.raises(FormatError, match=rf"bad\.pgm: PGM {field} is not a decimal number"):
            load_pgm(str(p))

    def test_video_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.integers(0, 256, size=(5, 12, 10), dtype=np.uint8)
        d = str(tmp_path / "vid")
        save_video_frames(d, stack)
        assert np.array_equal(load_video_frames(d), stack)
        frames = load_video(d)
        assert frames.dtype == np.float64
        assert np.array_equal(frames, stack / 255.0)
        assert frames.min() >= 0.0 and frames.max() <= 1.0

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
        frames = load_video(p)
        assert frames.dtype == np.float64
        assert np.array_equal(frames, arr)

    def test_video_tensor_outside_unit_range_is_refused(self, tmp_path):
        p = str(tmp_path / "v.mten")
        save_mten(p, np.full((4, 6, 6), 1.5, dtype=np.float32))
        with pytest.raises(FormatError, match=r"v\.mten: video tensor values must lie in \[0, 1\]"):
            load_video(p)


class TestCsvAndExport:
    def test_loss_history_round_trip(self, tmp_path):
        losses = [1.5, 0.25, 0.125]
        p = str(tmp_path / "loss.csv")
        save_loss_csv(p, losses)
        with open(p, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["step", "loss"]
        assert [float(loss) for _, loss in rows] == losses

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


def _mten_header(blob: bytes) -> range:
    return range(6 + 4 * blob[5])


def _mffc_header(blob: bytes) -> list:
    """Offsets of the file header and every record's name and tensor header."""
    at = list(range(9))
    pos = 9
    for _ in range(struct.unpack_from("<I", blob, 5)[0]):
        (nlen,) = struct.unpack_from("<H", blob, pos)
        rank = blob[pos + 2 + nlen + 5]
        head = 2 + nlen + 6 + 4 * rank
        at += range(pos, pos + head)
        dims = struct.unpack_from(f"<{rank}I", blob, pos + 2 + nlen + 6)
        pos += head + 4 * int(np.prod(dims))
    return at


def _pgm_header(blob: bytes) -> range:
    return range(blob.index(b"255\n") + 4)


def _sweep_files(tmp_path):
    """One valid file per format: (name, bytes, loader, header byte offsets)."""
    from mffcn.model import FusionStrategy, init_params, load_model, save_model

    rng = np.random.default_rng(5)
    save_mten(str(tmp_path / "t.mten"), rng.normal(size=(3, 4, 5)))
    save_model(str(tmp_path / "m.mffc"), init_params(0, FusionStrategy.MULTILAYER, 16))
    save_wav(str(tmp_path / "a.wav"), rng.uniform(-0.5, 0.5, size=1601))
    save_pgm(str(tmp_path / "f.pgm"), rng.integers(0, 256, size=(6, 8), dtype=np.uint8))
    files = []
    for name, loader, header in (("t.mten", load_mten, _mten_header),
                                 ("m.mffc", load_model, _mffc_header),
                                 ("a.wav", load_wav, lambda blob: range(44)),
                                 ("f.pgm", load_pgm, _pgm_header)):
        blob = (tmp_path / name).read_bytes()
        files.append((name, blob, loader, list(header(blob))))
    return files


def _rejections(tmp_path, name, loader, variants):
    """Load each (label, bytes, names a record) variant; list those not
    rejected by a FormatError naming the file, and the record if asked."""
    missed = []
    for label, blob, in_record in variants:
        p = str(tmp_path / f"bad-{name}")
        with open(p, "wb") as fh:
            fh.write(blob)
        try:
            loader(p)
        except FormatError as exc:
            msg = str(exc)
            if p not in msg:
                missed.append(f"{label}: message lacks the path: {msg}")
            elif in_record and not re.search(r"record \d+", msg):
                missed.append(f"{label}: message lacks the record: {msg}")
        except Exception as exc:  # noqa: BLE001 - any other exception is the defect
            missed.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            missed.append(f"{label}: loaded without error")
    return missed


class TestMalformedSweep:
    """Deterministic truncations and header byte flips of every file format."""

    def test_truncation_at_even_offsets(self, tmp_path):
        missed = []
        for name, blob, loader, _ in _sweep_files(tmp_path):
            cuts = sorted(set(np.linspace(0, len(blob), 41, dtype=int)[:-1].tolist()))
            # a checkpoint cut past its 9-byte file header is cut inside a record
            missed += _rejections(tmp_path, name, loader,
                                  [(f"cut {c}", blob[:c], name == "m.mffc" and c >= 9)
                                   for c in cuts])
        assert not missed, "\n".join(missed)

    def test_seeded_header_byte_flips(self, tmp_path):
        rng = np.random.default_rng(8)
        missed = []
        for name, blob, loader, header in _sweep_files(tmp_path):
            variants = []
            # the first 16 header bytes, then 48 seeded others
            rest = rng.permutation(np.array(header[16:], dtype=int))[:48]
            for at in header[:16] + sorted(rest.tolist()):
                # every single-bit flip, plus two seeded multi-bit ones
                for mask in [1 << b for b in range(8)] + rng.integers(1, 256, size=2).tolist():
                    old, new = blob[at], blob[at] ^ int(mask)
                    # in a PGM header one whitespace byte is as good as another
                    if name == "f.pgm" and bytes([old]).isspace() and bytes([new]).isspace():
                        continue
                    bad = bytearray(blob)
                    bad[at] = new
                    variants.append((f"byte {at} {old:#04x}->{new:#04x}", bytes(bad), False))
            missed += _rejections(tmp_path, name, loader, variants)
        assert not missed, "\n".join(missed)
