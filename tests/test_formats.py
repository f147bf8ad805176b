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
    FRAME_NAME,
    FormatError,
    _mten_array,
    _read_mten,
    _video_frames,
    _write_mten,
    export_spectrogram,
    load_checkpoint,
    load_csv,
    load_mten,
    load_pgm,
    load_video,
    load_wav,
    save_checkpoint,
    save_loss_csv,
    save_mten,
    save_pgm,
    save_video_frames,
    save_wav,
)


def _wav_bytes(*chunks):
    """A RIFF/WAVE file of (chunk id, payload) chunks, each odd payload padded to even length."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                              for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


WAV_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")


def _extensible_fmt(guid=PCM_GUID, ext_size=22, valid_bits=16, channel_mask=4):
    """A WAVE_FORMAT_EXTENSIBLE fmt chunk for 16 kHz mono 16-bit samples."""
    return struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16,
                       ext_size, valid_bits, channel_mask) + guid


def _as_extensible(wav: bytes) -> bytes:
    """A save_wav file with its fmt chunk rewritten as WAVE_FORMAT_EXTENSIBLE PCM."""
    return _wav_bytes((b"fmt ", _extensible_fmt()), (b"data", wav[44:]))


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
            match = re.escape(f"{p}: record 2 ('{'x' * 40}'...): parameter name is 65536 UTF-8 bytes, "
                              "at most 65535") + "$"
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

    def test_extensible_pcm_reads_as_its_plain_twin(self, tmp_path):
        plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
        save_wav(str(plain), np.random.default_rng(3).uniform(-1.0, 1.0, size=1601))
        extensible.write_bytes(_as_extensible(plain.read_bytes()))
        assert load_wav(str(extensible)).tobytes() == load_wav(str(plain)).tobytes()

    @pytest.mark.parametrize("fmt, defect", [
        (_extensible_fmt(guid=b"\x03" + PCM_GUID[1:]),
         "compressed WAV (format 3) is not supported, need PCM"),
        (_extensible_fmt(guid=PCM_GUID[:15] + b"\x72"),
         "extensible WAV subformat GUID 0100000000001000800000aa00389b72 is not supported, need PCM"),
        (_extensible_fmt(valid_bits=12), "12 valid bits per sample, need 16"),
        (_extensible_fmt(ext_size=20), "extensible fmt extension size 20, need 22 to 22"),
        (_extensible_fmt(ext_size=24), "extensible fmt extension size 24, need 22 to 22"),
        (_extensible_fmt()[:38], "extensible fmt chunk holds 38 bytes, need at least 40"),
        (_extensible_fmt()[:18], "extensible fmt chunk holds 18 bytes, need at least 40"),
    ], ids=["float", "foreign-guid", "valid-bits", "short-ext", "long-ext", "short-chunk", "no-ext"])
    def test_extensible_refusals_name_the_defect(self, tmp_path, fmt, defect):
        p = tmp_path / "ext.wav"
        p.write_bytes(_wav_bytes((b"fmt ", fmt), (b"data", bytes(4))))
        with pytest.raises(FormatError) as info:
            load_wav(str(p))
        assert str(info.value) == f"{p}: {defect}"

    def test_rejects_non_riff(self, tmp_path):
        p = tmp_path / "n.wav"
        p.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(FormatError, match="RIFF"):
            load_wav(str(p))

    def test_rejects_odd_data_chunk(self, tmp_path):
        # 19 bytes and a pad byte tile the file, but hold nine and a half samples
        p = tmp_path / "odd.wav"
        p.write_bytes(_wav_bytes((b"fmt ", WAV_FMT), (b"data", bytes(19))))
        with pytest.raises(FormatError) as info:
            load_wav(str(p))
        assert str(info.value) == f"{p}: data chunk holds 19 bytes, not a whole number of 2-byte samples"

    @pytest.mark.parametrize("chunks, cid", [
        (((b"fmt ", WAV_FMT), (b"data", bytes(4)), (b"data", bytes(2))), "b'data'"),
        (((b"fmt ", WAV_FMT), (b"fmt ", WAV_FMT), (b"data", bytes(4))), "b'fmt '"),
    ], ids=["data", "fmt"])
    def test_rejects_repeated_chunk(self, tmp_path, chunks, cid):
        p = tmp_path / "twice.wav"
        p.write_bytes(_wav_bytes(*chunks))
        with pytest.raises(FormatError) as info:
            load_wav(str(p))
        assert str(info.value) == f"{p}: duplicate {cid} chunk"

    def test_other_chunks_may_repeat(self, tmp_path):
        p = tmp_path / "lists.wav"
        p.write_bytes(_wav_bytes((b"LIST", b"ab"), (b"fmt ", WAV_FMT), (b"LIST", b"c"), (b"data", bytes(4))))
        assert load_wav(str(p)).tolist() == [0.0, 0.0]

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

    @pytest.mark.parametrize("header", [
        b"P5\n2# c\n1\n255\n",
        b"P5\n2\n1# c\n255\n",
        b"P5 2#c\n1#\n255\n",
        b"P5\n2#\n#\n1 # c\n255\n",
    ])
    def test_pgm_comment_may_end_width_or_height(self, tmp_path, header):
        plain, commented = tmp_path / "plain.pgm", tmp_path / "c.pgm"
        plain.write_bytes(b"P5\n2 1\n255\n\x07\x09")
        commented.write_bytes(header + b"\x07\x09")
        assert np.array_equal(load_pgm(str(commented)), load_pgm(str(plain)))

    @pytest.mark.parametrize("image", [[[np.nan, 12.0]], [[3.0, np.inf]], [[-np.inf, 0.0]]])
    def test_pgm_save_refuses_non_finite_pixels_before_writing(self, tmp_path, image):
        p = tmp_path / "f.pgm"
        with pytest.raises(FormatError, match="PGM pixel values must be finite"):
            save_pgm(str(p), np.array(image))
        assert not p.exists()
        d = tmp_path / "vid"
        with pytest.raises(FormatError, match="PGM pixel values must be finite"):
            save_video_frames(str(d), np.array([[[1.0, 2.0]], image]))
        assert not (d / (FRAME_NAME % 1)).exists()

    @pytest.mark.parametrize("image", [[[0.6, 254.9, 1.0]], [[0.9, 0.9]], [[12.0, 3.5]]])
    def test_pgm_save_refuses_fractional_pixels_before_writing(self, tmp_path, image):
        p = tmp_path / "f.pgm"
        with pytest.raises(FormatError, match="^PGM pixel values must be whole numbers$"):
            save_pgm(str(p), np.array(image))
        assert not p.exists()
        d = tmp_path / "vid"
        with pytest.raises(FormatError, match="^PGM pixel values must be whole numbers$"):
            save_video_frames(str(d), np.array([np.ones_like(image), image]))
        assert not (d / (FRAME_NAME % 1)).exists()

    def test_refused_video_frame_leaves_nothing_on_disk(self, tmp_path):
        d = tmp_path / "vid"
        with pytest.raises(FormatError, match="^PGM pixel values must be whole numbers$"):
            save_video_frames(str(d), np.array([np.ones((1, 2)), [[0.5, 1.0]]]))
        assert not d.exists()

    def test_pgm_save_takes_whole_float_pixels(self, tmp_path):
        p = str(tmp_path / "f.pgm")
        save_pgm(p, np.array([[0.0, 255.0, 1.0]]))
        assert load_pgm(p).tolist() == [[0, 255, 1]]

    @pytest.mark.parametrize("magic", [b"P3", b"P6", b"P1"])
    def test_pgm_rejects_other_netpbm_magic(self, tmp_path, magic):
        p = tmp_path / "a.pgm"
        p.write_bytes(magic + b"\n2 2\n255\n1 2 3 4\n")
        with pytest.raises(FormatError, match=r"not a PGM \(P5 or P2\) file$"):
            load_pgm(str(p))

    @pytest.mark.parametrize("maxval", [255, 1000])
    def test_plain_p2_twin_reads_as_its_p5_frame(self, tmp_path, maxval):
        rng = np.random.default_rng(maxval)
        frame = rng.integers(0, maxval + 1, size=(6, 5))
        wide = maxval > 255
        raster = frame.astype(">u2" if wide else np.uint8).tobytes()
        rows = "\n".join(" ".join(map(str, row)) for row in frame)
        for name, data in (("p5", b"P5\n5 6\n%d\n" % maxval + raster),
                           ("p2", b"P2\n# plain\n5 6\n%d\n" % maxval + rows.encode() + b"\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / (FRAME_NAME % 0)).write_bytes(data)
        p5, p2 = (str(tmp_path / name / (FRAME_NAME % 0)) for name in ("p5", "p2"))
        assert load_pgm(p2).dtype == load_pgm(p5).dtype
        assert np.array_equal(load_pgm(p2), load_pgm(p5))
        assert np.array_equal(load_pgm(p2), frame)
        assert load_video(str(tmp_path / "p2")).tobytes() == load_video(str(tmp_path / "p5")).tobytes()

    @pytest.mark.parametrize("data, defect", [
        (b"P2\n2 2\n255\n1 2 x3 4\n", "PGM sample 2 is not a decimal number: b'x3'"),
        (b"P2\n2 2\n255\n1 -2 3 4\n", "PGM sample 1 is not a decimal number: b'-2'"),
        (b"P2\n2 2\n255\n1 2 3\n", "truncated pixel payload: 3 of 4 samples"),
        (b"P2\n2 2\n255\n", "truncated pixel payload: 0 of 4 samples"),
        (b"P2\n2 2\n255\n1 2 3 4 5 # c\n", "3 values after the 2x2 samples"),
        (b"P2\n2 2\n255\n1 2 3 256\n", "PGM sample 3 (256) exceeds maxval 255"),
        (b"P2\n2 2\n9\n1 2 3 0010\n", "PGM sample 3 (0010) exceeds maxval 9"),
        (b"P2\n1 1\n255\n" + b"7" * 5000, "PGM sample 0 (77777777777777777777) exceeds maxval 255"),
    ], ids=["alpha", "sign", "too-few", "none", "too-many", "above", "zero-padded", "huge"])
    def test_plain_p2_refusals_name_the_defect(self, tmp_path, data, defect):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        with pytest.raises(FormatError) as info:
            load_pgm(str(p))
        assert str(info.value) == f"{p}: {defect}"

    @pytest.mark.parametrize("header, field", [
        (b"P5\n2x 2\n255\n", "width"),
        (b"P5\n2 +2\n255\n", "height"),
        (b"P5\n2 2\n255\xe0\n", "maxval"),
        (b"P5\n2 2\n-255\n", "maxval"),
        (b"P5\n2 2\n255# c\n", "maxval"),
    ])
    def test_pgm_rejects_non_decimal_field_by_name(self, tmp_path, header, field):
        p = tmp_path / "bad.pgm"
        p.write_bytes(header + b"\x01\x02\x03\x04")
        with pytest.raises(FormatError, match=rf"bad\.pgm: PGM {field} is not a decimal number"):
            load_pgm(str(p))

    def test_sixteen_bit_pgm_reads_big_endian_samples(self, tmp_path):
        p = tmp_path / "w.pgm"
        p.write_bytes(b"P5\n2 1\n1000\n\x03\xe8\x01\x02")
        img = load_pgm(str(p))
        assert img.dtype == np.uint16
        assert img.tolist() == [[1000, 258]]

    @pytest.mark.parametrize("maxval", [1, 100, 255, 256, 1000, 65535])
    def test_video_scales_each_frame_by_its_maxval(self, tmp_path, maxval):
        # one scene quantized at 8 bits and at this maxval loads to the same frames within
        # both quantization steps: 1/255 from 255 on
        scene = np.random.default_rng(maxval).uniform(0.0, 1.0, size=(3, 6, 5))
        eight, other = tmp_path / "eight", tmp_path / "other"
        save_video_frames(str(eight), np.round(scene * 255).astype(np.uint8))
        other.mkdir()
        for t, frame in enumerate(np.round(scene * maxval).astype(np.int64)):
            path = other / (FRAME_NAME % t)
            if maxval > 255:
                _wide_pgm(path, frame, maxval)
            else:
                path.write_bytes(f"P5\n5 6\n{maxval}\n".encode("ascii") + frame.astype(np.uint8).tobytes())
        got = load_video(str(other))
        assert got.dtype == np.float64 and got.min() >= 0.0 and got.max() <= 1.0
        assert np.abs(got - load_video(str(eight))).max() <= max(0.5 / maxval + 0.5 / 255, 1.0 / 255)
        assert np.array_equal(got, np.round(scene * maxval) / maxval)

    def test_video_frames_of_different_maxvals(self, tmp_path):
        d = tmp_path / "vid"
        d.mkdir()
        (d / (FRAME_NAME % 0)).write_bytes(b"P5\n1 1\n255\n\xff")
        _wide_pgm(d / (FRAME_NAME % 1), np.array([[500]]), 1000)
        assert load_video(str(d)).tolist() == [[[1.0]], [[0.5]]]

    @pytest.mark.parametrize("maxval", [0, 65536, 99999])
    def test_pgm_rejects_maxval_out_of_range_by_name(self, tmp_path, maxval):
        p = tmp_path / "bad.pgm"
        p.write_bytes(f"P5\n2 2\n{maxval}\n".encode("ascii") + b"\x00" * 8)
        with pytest.raises(FormatError, match=rf"bad\.pgm: PGM maxval must be 1 to 65535, got {maxval}"):
            load_pgm(str(p))

    @pytest.mark.parametrize("header, payload", [(b"P5\n2 1\n100\n", b"\x64\x65"),
                                                 (b"P5\n2 1\n300\n", b"\x01\x2c\x01\x2d")])
    def test_pgm_rejects_sample_above_maxval(self, tmp_path, header, payload):
        p = tmp_path / "bad.pgm"
        p.write_bytes(header + payload)
        with pytest.raises(FormatError, match=r"bad\.pgm: PGM sample \d+ exceeds maxval"):
            load_pgm(str(p))

    def test_sixteen_bit_pgm_needs_two_bytes_a_sample(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n2 2\n256\n\x00\x01\x00\x02")
        with pytest.raises(FormatError, match="truncated pixel payload"):
            load_pgm(str(p))

    def test_video_directory_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.integers(0, 256, size=(5, 12, 10), dtype=np.uint8)
        d = str(tmp_path / "vid")
        save_video_frames(d, stack)
        read = _video_frames(d)
        assert [maxval for _, maxval in read] == [255] * len(stack)
        assert np.array_equal(np.stack([samples for samples, _ in read]), stack)
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
            load_video(str(d))

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

    def test_non_utf8_csv_names_the_file_byte(self, tmp_path):
        # past the text decoder's first chunk, so the offset is the file's, not the chunk's
        p = tmp_path / "latin.csv"
        p.write_bytes(b"1\n" * 5000 + b"caf\xe9\n")
        with pytest.raises(FormatError) as info:
            load_csv(str(p))
        assert str(info.value) == f"{p}: CSV is not valid UTF-8 (byte 10003: invalid continuation byte)"


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
    """The three header lines save_pgm and _wide_pgm write: magic, extents, maxval."""
    return range(sum(len(line) + 1 for line in blob.split(b"\n", 3)[:3]))


def _wide_pgm(path, samples: np.ndarray, maxval: int) -> None:
    """A PGM with two-byte big-endian samples (maxval above 255)."""
    h, w = samples.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii") + samples.astype(">u2").tobytes())


def _sweep_files(tmp_path):
    """One valid file per format: (name, bytes, loader, header byte offsets)."""
    from mffcn.model import FusionStrategy, init_params, load_model, save_model

    rng = np.random.default_rng(5)
    save_mten(str(tmp_path / "t.mten"), rng.normal(size=(3, 4, 5)))
    save_model(str(tmp_path / "m.mffc"), init_params(0, FusionStrategy.MULTILAYER, 16))
    save_wav(str(tmp_path / "a.wav"), rng.uniform(-0.5, 0.5, size=1601))
    (tmp_path / "x.wav").write_bytes(_as_extensible((tmp_path / "a.wav").read_bytes()))
    # Each PGM holds its maxval, so a flip that lowers the maxval leaves a sample above it.
    narrow = rng.integers(0, 256, size=(6, 8), dtype=np.uint8)
    narrow[0, 0] = 255
    save_pgm(str(tmp_path / "f.pgm"), narrow)
    wide = rng.integers(0, 65536, size=(6, 8))
    wide[0, 0] = 65535
    _wide_pgm(tmp_path / "w.pgm", wide, 65535)
    files = []
    for name, loader, header in (("t.mten", load_mten, _mten_header),
                                 ("m.mffc", load_model, _mffc_header),
                                 ("a.wav", load_wav, lambda blob: range(44)),
                                 # any channel mask (bytes 40-43) is valid: bits past the channels are ignored
                                 ("x.wav", load_wav, lambda blob: [*range(40), *range(44, 68)]),
                                 ("f.pgm", load_pgm, _pgm_header),
                                 ("w.pgm", load_pgm, _pgm_header)):
        blob = (tmp_path / name).read_bytes()
        files.append((name, blob, loader, list(header(blob))))
    return files


def _rejections(tmp_path, name, loader, variants):
    """Load each (label, bytes, names a record) variant; list those not
    rejected by a FormatError that starts with the file's path, and names
    the record if asked."""
    missed = []
    for label, blob, in_record in variants:
        p = str(tmp_path / f"bad-{name}")
        with open(p, "wb") as fh:
            fh.write(blob)
        try:
            loader(p)
        except FormatError as exc:
            msg = str(exc)
            if not msg.startswith(p + ": "):
                missed.append(f"{label}: message does not start with the path: {msg}")
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
                    if name.endswith(".pgm") and bytes([old]).isspace() and bytes([new]).isspace():
                        continue
                    bad = bytearray(blob)
                    bad[at] = new
                    variants.append((f"byte {at} {old:#04x}->{new:#04x}", bytes(bad), False))
            missed += _rejections(tmp_path, name, loader, variants)
        assert not missed, "\n".join(missed)


def _refusals(tmp_path):
    """(reader, its argument, the file its refusal must name first) for one malformed input per public reader."""
    from mffcn.model import load_model
    from mffcn.train import load_dataset, save_dataset, synth_dataset

    def bad(name, data):
        path = tmp_path / name
        path.write_bytes(data)
        return str(path)

    save_video_frames(str(tmp_path / "vid"), np.zeros((2, 3, 3), dtype=np.uint8))
    frame = bad(f"vid/{FRAME_NAME % 1}", b"P5\n3 3\n255\n")
    bright = str(tmp_path / "bright.mten")
    save_mten(bright, np.full((2, 3, 3), 2.0, dtype=np.float32))
    bare = str(tmp_path / "bare.mffc")
    save_checkpoint(bare, {"x": np.ones(1, dtype=np.float32)})
    save_dataset(str(tmp_path / "ds"), synth_dataset(1, 2))
    part = bad("ds/00001.video.mten", b"MTEN")
    wav = bad("a.wav", _wav_bytes((b"fmt ", WAV_FMT)))
    pgm = bad("a.pgm", b"P5\n2 2\n255\n\x00")
    mten = bad("a.mten", _mten_bytes(np.ones(3))[:-1])
    mffc = bad("a.mffc", b"MFFC\x01\x01\x00\x00\x00\x03\x00")
    table = bad("a.csv", b"1,2\n3\n")
    return {
        "load_wav": (load_wav, wav, wav),
        "load_pgm": (load_pgm, pgm, pgm),
        "load_video (directory)": (load_video, str(tmp_path / "vid"), frame),
        "load_video (tensor)": (load_video, bright, bright),
        "load_mten": (load_mten, mten, mten),
        "load_checkpoint": (load_checkpoint, mffc, mffc),
        "load_model": (load_model, bare, bare),
        "load_csv": (load_csv, table, table),
        "load_dataset": (load_dataset, str(tmp_path / "ds"), part),
    }


def test_each_reader_refusal_starts_with_the_file(tmp_path):
    cases = _refusals(tmp_path)
    starts = {}
    for name, (reader, arg, named) in cases.items():
        with pytest.raises(FormatError) as info:
            reader(arg)
        starts[name] = str(info.value).startswith(named + ": ")
    assert starts == dict.fromkeys(cases, True)
