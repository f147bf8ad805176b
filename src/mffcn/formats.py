"""File formats: tensor containers, checkpoints, WAV, PGM, and CSV helpers.

Everything here is parsed and emitted manually with struct so the on-disk
layout is pinned by this module, not by whichever codec library happens to
be installed. All multi-byte fields are little-endian.

Tensor container ("MTEN"): magic `MTEN`, u8 version=1, u8 rank, rank u32
dims, then row-major float32 payload.

Checkpoint ("MFFC"): magic `MFFC`, u8 version=1, u32 record count, then per
record a u16 name length, the UTF-8 name, and an embedded MTEN blob.

WAV: RIFF/WAVE, PCM format 1, mono, 16-bit signed samples at 16000 Hz, with
the RIFF size, byte rate and block align that agree with that, chunks that
tile the file, one fmt and one data chunk, and whole samples. PCM may also be
declared as WAVE_FORMAT_EXTENSIBLE (0xFFFE): a fmt chunk of at least 40
bytes, an extension of 22 bytes or more that fits in it, 16 valid bits, any
channel mask, and the PCM SubFormat GUID. Anything else is rejected with a
descriptive error rather than resampled.

PGM: binary P5 with any maxval from 1 to 65535, one byte per sample up to
255 and two big-endian bytes above, no sample above maxval, and nothing after
the pixels. Plain P2 has P5's header, then exactly width x height decimal
samples separated by whitespace, none above maxval, and nothing else. Video
directories hold frames named frame_000000.pgm onward, contiguously; each
frame scales to [0, 1] by its own maxval.

A refusal is a FormatError whose text is the file's path, then the defect.
Parsers state only the defect; each public reader runs inside in_file(path),
which puts the path first, so a bad frame of a video directory names the frame.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import struct
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .dsp import SAMPLE_RATE

MTEN_MAGIC = b"MTEN"
MFFC_MAGIC = b"MFFC"
FRAME_NAME = "frame_%06d.pgm"
FRAME_RE = re.compile(r"frame_(\d{6})\.pgm$")
# A WAVE_FORMAT_EXTENSIBLE SubFormat GUID is a 2-byte codec and then these 14 bytes.
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


class FormatError(ValueError):
    """A malformed or unsupported file: the text states the defect; str() puts path (see in_file) first."""

    path: Optional[str] = None

    def __str__(self) -> str:
        return super().__str__() if self.path is None else f"{self.path}: {super().__str__()}"


@contextlib.contextmanager
def in_file(path: str) -> Iterator[None]:
    """Name path in a FormatError raised inside, unless an inner in_file named its own file."""
    try:
        yield
    except FormatError as exc:
        exc.path = exc.path or path
        raise


def _utf8(raw: bytes, what: str) -> str:
    """raw decoded as UTF-8, else a refusal naming what, the byte offset and the reason."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8 (byte {exc.start}: {exc.reason})") from None


# ----------------------------------------------------------------------------
# MTEN tensor container
# ----------------------------------------------------------------------------

def _mten_array(array: np.ndarray) -> np.ndarray:
    """The float32 C-order array an MTEN blob holds; no copy of a float32 C-order input."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if arr.ndim > 255:
        raise FormatError(f"rank {arr.ndim} exceeds the u8 rank field")
    if 0 in arr.shape:
        raise FormatError(f"tensor dims must be positive, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise FormatError("refusing to encode non-finite tensor values")
    return arr


def _write_mten(fh: BinaryIO, arr: np.ndarray) -> None:
    """Write one MTEN blob of an _mten_array result: its header, then its payload in place."""
    fh.write(MTEN_MAGIC + struct.pack(f"<BB{arr.ndim}I", 1, arr.ndim, *arr.shape))
    fh.write(memoryview(arr))


def _read_mten(fh: BinaryIO, end: int) -> np.ndarray:
    """Read one MTEN blob at the stream's position; end is the stream's length.

    The payload is read straight into a fresh float32 array, so a file is
    never held twice in memory. It is not scanned for NaN/Inf here: each
    caller scans every array once (load_mten, or the Tensor constructor for
    the parameters load_model wraps).
    """
    head = fh.read(6)
    if len(head) < 6:
        raise FormatError("truncated tensor header")
    if head[:4] != MTEN_MAGIC:
        raise FormatError(f"bad tensor magic {head[:4]!r}")
    version, rank = head[4], head[5]
    if version != 1:
        raise FormatError(f"unsupported tensor container version {version}")
    if rank < 1:
        raise FormatError("tensor rank must be at least 1")
    raw = fh.read(4 * rank)
    if len(raw) < 4 * rank:
        raise FormatError("truncated tensor dims")
    dims = struct.unpack(f"<{rank}I", raw)
    if 0 in dims:
        raise FormatError(f"tensor dims must be positive, got {dims}")
    nbytes = 4 * math.prod(dims)
    have = end - fh.tell()
    if have < nbytes:
        raise FormatError(f"truncated tensor payload: want {nbytes} bytes, have {have}")
    try:
        arr = np.empty(dims, dtype="<f4")
    except ValueError as exc:  # more dims than numpy supports
        raise FormatError(f"tensor rank {rank} is not supported: {exc}") from None
    fh.readinto(arr)
    return arr


def save_mten(path: str, array: np.ndarray) -> None:
    arr = _mten_array(array)
    with open(path, "wb") as fh:
        _write_mten(fh, arr)


def load_mten(path: str) -> np.ndarray:
    with in_file(path), open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        arr = _read_mten(fh, end)
        if not np.isfinite(arr).all():
            raise FormatError("tensor payload holds NaN or Inf values")
        if fh.tell() != end:
            raise FormatError(f"{end - fh.tell()} trailing bytes after tensor payload")
    return arr


# ----------------------------------------------------------------------------
# MFFC checkpoints
# ----------------------------------------------------------------------------

def save_checkpoint(path: str, entries: Dict[str, np.ndarray]) -> None:
    """Write named tensors in insertion order, replacing path atomically.

    Every name and array is checked before anything is written; a refused
    name or array raises a FormatError naming path and its record. The
    records then stream into path + ".part", each payload straight from its
    float32 array, so no encoded copy of the entries is ever held. The part
    file replaces path only once it is complete, and is removed if anything
    fails.
    """
    records = []
    for k, (name, arr) in enumerate(entries.items()):
        raw = name.encode("utf-8")
        with in_file(path):
            if len(raw) > 0xFFFF:
                raise FormatError(f"record {k} ({name[:40]!r}...): parameter name is {len(raw)} "
                                  f"UTF-8 bytes, at most {0xFFFF}")
            try:
                arr = _mten_array(arr)
            except FormatError as exc:
                raise FormatError(f"record {k} ({name!r}): {exc}") from None
        records.append((struct.pack("<H", len(raw)) + raw, arr))
    part = path + ".part"
    try:
        with open(part, "wb") as fh:
            fh.write(MFFC_MAGIC + struct.pack("<BI", 1, len(records)))
            for head, arr in records:
                fh.write(head)
                _write_mten(fh, arr)
        os.replace(part, path)
    finally:
        if os.path.exists(part):
            os.remove(part)


def load_checkpoint(path: str) -> Dict[str, np.ndarray]:
    """Read named tensors record by record, each straight into its own array.

    Payloads are not scanned for NaN/Inf: model.load_model checks every
    array it keeps once, naming the path and the record.
    """
    with in_file(path), open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        head = fh.read(9)
        if head[:4] != MFFC_MAGIC:
            raise FormatError("not a checkpoint file")
        if len(head) < 9:
            raise FormatError("truncated checkpoint header")
        version, count = struct.unpack_from("<BI", head, 4)
        if version != 1:
            raise FormatError(f"unsupported checkpoint version {version}")
        entries: Dict[str, np.ndarray] = {}
        for k in range(count):
            raw = fh.read(2)
            if len(raw) < 2:
                raise FormatError(f"record {k}: truncated record header")
            (nlen,) = struct.unpack("<H", raw)
            raw = fh.read(nlen)
            if len(raw) < nlen:
                raise FormatError(f"record {k}: truncated record name")
            name = _utf8(raw, f"record {k} name")
            try:
                arr = _read_mten(fh, end)
            except FormatError as exc:
                raise FormatError(f"record {k} ({name!r}): {exc}") from None
            if name in entries:
                raise FormatError(f"record {k}: duplicate parameter name {name!r}")
            entries[name] = arr
        if fh.tell() != end:
            raise FormatError(f"{end - fh.tell()} trailing bytes after last record")
    return entries


# ----------------------------------------------------------------------------
# WAV (RIFF, mono, 16-bit PCM, 16 kHz)
# ----------------------------------------------------------------------------

def save_wav(path: str, samples: np.ndarray) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM at 16 kHz."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise FormatError(f"audio must be one channel, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise FormatError("refusing to write non-finite samples")
    if np.max(np.abs(x), initial=0.0) > 1.0:
        raise FormatError("samples exceed [-1, 1]; scale before writing")
    pcm = np.round(x * 32767.0).astype("<i2")
    data = pcm.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def _extensible_codec(fmt: bytes) -> int:
    """The codec a WAVE_FORMAT_EXTENSIBLE fmt chunk's SubFormat names; a PCM one needs 16 valid bits."""
    if len(fmt) < 40:
        raise FormatError(f"extensible fmt chunk holds {len(fmt)} bytes, need at least 40")
    ext_size, valid_bits = struct.unpack_from("<HH", fmt, 16)
    if not 22 <= ext_size <= len(fmt) - 18:
        raise FormatError(f"extensible fmt extension size {ext_size}, need 22 to {len(fmt) - 18}")
    if fmt[26:40] != _SUBFORMAT_TAIL:
        raise FormatError(f"extensible WAV subformat GUID {fmt[24:40].hex()} is not supported, need PCM")
    (codec,) = struct.unpack_from("<H", fmt, 24)
    if codec == 1 and valid_bits != 16:
        raise FormatError(f"{valid_bits} valid bits per sample, need 16")
    return codec


def load_wav(path: str) -> np.ndarray:
    """Read a mono 16-bit 16 kHz PCM WAV into float64 samples in [-1, 1]."""
    with in_file(path), open(path, "rb") as fh:
        buf = fh.read()
        if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
            raise FormatError("not a RIFF/WAVE file")
        pos = 12
        fmt_seen = False
        data = None
        while pos + 8 <= len(buf):
            cid = buf[pos:pos + 4]
            (size,) = struct.unpack_from("<I", buf, pos + 4)
            body = buf[pos + 8:pos + 8 + size]
            if len(body) < size:
                raise FormatError(f"truncated {cid!r} chunk")
            if (cid == b"fmt " and fmt_seen) or (cid == b"data" and data is not None):
                raise FormatError(f"duplicate {cid!r} chunk")
            if cid == b"fmt ":
                if size < 16:
                    raise FormatError("fmt chunk too short")
                codec, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", body, 0)
                if codec == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: its SubFormat GUID names the codec
                    codec = _extensible_codec(body)
                if codec != 1:
                    raise FormatError(f"compressed WAV (format {codec}) is not supported, need PCM")
                if channels != 1:
                    raise FormatError(f"{channels} channels, need mono")
                if rate != SAMPLE_RATE:
                    raise FormatError(f"sample rate {rate}, need {SAMPLE_RATE}")
                if bits != 16:
                    raise FormatError(f"{bits}-bit samples, need 16")
                if byte_rate != 2 * SAMPLE_RATE or align != 2:
                    raise FormatError(f"byte rate {byte_rate} and block align {align} "
                                      f"disagree with 16-bit mono at {SAMPLE_RATE} Hz")
                fmt_seen = True
            elif cid == b"data":
                data = body
            pos += 8 + size + (size % 2)
        if pos < len(buf):
            raise FormatError(f"truncated chunk header ({len(buf) - pos} bytes after the last chunk)")
        (riff_size,) = struct.unpack_from("<I", buf, 4)
        if riff_size != len(buf) - 8:
            raise FormatError(f"RIFF size field says {riff_size} bytes, file holds {len(buf) - 8}")
        if not fmt_seen:
            raise FormatError("missing fmt chunk")
        if data is None:
            raise FormatError("missing data chunk")
        if len(data) % 2:
            raise FormatError(f"data chunk holds {len(data)} bytes, not a whole number of 2-byte samples")
        pcm = np.frombuffer(data, dtype="<i2")
        # 32767 mirrors the writer's scale so a save/load round trip stays within
        # half a quantization step; -32768, which the writer never emits but
        # clipped recordings do, would land just below -1.0 and is clamped.
        return np.maximum(pcm.astype(np.float64) / 32767.0, -1.0)


# ----------------------------------------------------------------------------
# PGM (binary P5) and video frame directories
# ----------------------------------------------------------------------------

def _pgm_bytes(image: np.ndarray) -> bytes:
    """A 2-D image of whole 0..255 values, encoded as a binary PGM; refused otherwise."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise FormatError(f"PGM image must be 2-D, got shape {img.shape}")
    if img.dtype != np.uint8:
        if not np.all(np.isfinite(img)):
            raise FormatError("PGM pixel values must be finite, got NaN or Inf")
        if np.min(img) < 0 or np.max(img) > 255:
            raise FormatError("PGM pixel values must fit in 0..255")
        if not np.array_equal(img, np.round(img)):
            raise FormatError("PGM pixel values must be whole numbers")
        img = img.astype(np.uint8)
    h, w = img.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes(order="C")


def save_pgm(path: str, image: np.ndarray) -> None:
    data = _pgm_bytes(image)
    with open(path, "wb") as fh:
        fh.write(data)


def load_pgm(path: str) -> np.ndarray:
    """A PGM's samples: uint8 when its maxval is at most 255, else uint16."""
    return _read_pgm(path)[0]


def _read_pgm(path: str) -> Tuple[np.ndarray, int]:
    """A PGM's samples (see load_pgm) and its maxval."""
    with in_file(path), open(path, "rb") as fh:
        buf = fh.read()
        if buf[:2] not in (b"P5", b"P2"):
            raise FormatError("not a PGM (P5 or P2) file")
        # Header tokens may be separated by any whitespace and '#' comments; as in
        # libnetpbm, a '#' also ends a width or height (maxval ends at whitespace).
        pos = 2
        tokens: List[int] = []
        fields = ("width", "height", "maxval")
        while len(tokens) < 3:
            while pos < len(buf) and buf[pos:pos + 1].isspace():
                pos += 1
            if pos < len(buf) and buf[pos:pos + 1] == b"#":
                while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                    pos += 1
                continue
            start = pos
            ends_at_hash = len(tokens) < 2
            while pos < len(buf) and not buf[pos:pos + 1].isspace() and not (
                    ends_at_hash and buf[pos:pos + 1] == b"#"):
                pos += 1
            if start == pos:
                raise FormatError("truncated PGM header")
            token = buf[start:pos]
            if not token.isdigit():
                raise FormatError(f"PGM {fields[len(tokens)]} is not a decimal number: {token[:20]!r}")
            tokens.append(int(token))
        pos += 1  # single whitespace byte after maxval
        w, h, maxval = tokens
        if not 1 <= maxval <= 65535:
            raise FormatError(f"PGM maxval must be 1 to 65535, got {maxval}")
        if w < 1 or h < 1:
            raise FormatError(f"bad image extent {w}x{h}")
        wide = maxval > 255
        if buf[:2] == b"P2":
            samples = _plain_samples(buf[pos:], w, h, maxval)
        else:
            size = w * h * (2 if wide else 1)
            if len(buf) - pos < size:
                raise FormatError("truncated pixel payload")
            if len(buf) - pos > size:
                raise FormatError(f"{len(buf) - pos - size} bytes after the {w}x{h} pixel payload")
            samples = np.frombuffer(buf, dtype=">u2" if wide else np.uint8, count=w * h, offset=pos)
            if samples.max() > maxval:
                raise FormatError(f"PGM sample {samples.max()} exceeds maxval {maxval}")
        return np.array(samples, dtype=np.uint16 if wide else np.uint8).reshape(h, w), maxval


def _plain_samples(raster: bytes, w: int, h: int, maxval: int) -> List[int]:
    """The w*h whitespace-separated decimal samples of a plain (P2) PGM raster, each at most maxval."""
    n = w * h
    tokens = raster.split()
    samples = []
    for k, token in enumerate(tokens[:n]):
        if not token.isdigit():
            raise FormatError(f"PGM sample {k} is not a decimal number: {token[:20]!r}")
        value = int(token.lstrip(b"0")[:6] or b"0")  # six significant digits exceed any maxval
        if value > maxval:
            raise FormatError(f"PGM sample {k} ({token[:20].decode()}) exceeds maxval {maxval}")
        samples.append(value)
    if len(tokens) < n:
        raise FormatError(f"truncated pixel payload: {len(tokens)} of {n} samples")
    if len(tokens) > n:
        raise FormatError(f"{len(tokens) - n} values after the {w}x{h} samples")
    return samples


def save_video_frames(dirpath: str, frames: np.ndarray) -> None:
    """Write a [T,H,W] stack of 0..255 values as numbered PGM frames, or, if any frame is refused, nothing."""
    arr = np.asarray(frames)
    if arr.ndim != 3:
        raise FormatError(f"video stack must be [T,H,W], got {arr.shape}")
    encoded = [_pgm_bytes(frame) for frame in arr]
    os.makedirs(dirpath, exist_ok=True)
    for t, data in enumerate(encoded):
        with open(os.path.join(dirpath, FRAME_NAME % t), "wb") as fh:
            fh.write(data)


def _video_frames(dirpath: str) -> List[Tuple[np.ndarray, int]]:
    """(samples, maxval) of frame_000000.pgm onward (see load_pgm), all of one extent."""
    matches = (FRAME_RE.match(name) for name in os.listdir(dirpath))
    found = {int(m.group(1)): os.path.join(dirpath, m.string) for m in matches if m}
    if not found:
        raise FormatError("no frame_######.pgm files")
    indices = sorted(found)
    if indices[0] != 0 or indices[-1] != len(indices) - 1:
        raise FormatError("frame numbers must be contiguous from 0")
    frames = [_read_pgm(found[i]) for i in indices]
    shape = frames[0][0].shape
    for i, (f, _) in enumerate(frames):
        if f.shape != shape:
            raise FormatError(f"frame {i} is {f.shape}, first frame is {shape}")
    return frames


def load_video(path: str) -> np.ndarray:
    """Float64 [T,H,W] frames in [0, 1]: a directory of PGM frames, each over its own maxval, or a tensor file."""
    with in_file(path):
        if os.path.isdir(path):
            return np.stack([samples / float(maxval) for samples, maxval in _video_frames(path)], axis=0)
        arr = load_mten(path).astype(np.float64)
        if arr.ndim != 3:
            raise FormatError(f"video tensor must be [T,H,W], got {arr.shape}")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise FormatError(f"video tensor values must lie in [0, 1], got min {arr.min():g}, max {arr.max():g}")
    return arr


# ----------------------------------------------------------------------------
# CSV and spectrogram export
# ----------------------------------------------------------------------------

def save_loss_csv(path: str, losses: Sequence[float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i, value in enumerate(losses):
            writer.writerow([i, repr(float(value))])


def load_csv(path: str) -> np.ndarray:
    """A comma-separated table of numbers as a 2-D float32 array, skipping blank lines.

    The file is UTF-8; one leading byte-order mark, as spreadsheet tools
    write, is dropped, and one anywhere else is part of a value. Each value
    is parsed as a float64 and then rounded to float32, as save_mten would
    round it.
    """
    with in_file(path), open(path, "rb") as fh:
        text = _utf8(fh.read(), "CSV").removeprefix("\ufeff")
        reader = csv.reader(io.StringIO(text, newline=""))
        rows = [(reader.line_num, row) for row in reader if row]
        if not rows:
            raise FormatError("CSV holds no values")
        width = len(rows[0][1])
        values = []
        for line, row in rows:
            if len(row) != width:
                raise FormatError(f"line {line} has {len(row)} values, the first row {width}")
            for col, text in enumerate(row, start=1):
                try:
                    values.append(float(text))
                except ValueError:
                    raise FormatError(f"line {line}, column {col}: {text!r} is not a number") from None
        with np.errstate(over="ignore"):
            arr = np.array(values).reshape(len(rows), width).astype(np.float32)
        bad = np.argwhere(~np.isfinite(arr))
        if len(bad):
            r, c = bad[0]
            raise FormatError(f"line {rows[r][0]}, column {c + 1}: "
                              f"{rows[r][1][c]!r} is not a finite float32 value")
        return arr


def export_spectrogram(base_path: str, spect: np.ndarray) -> Tuple[str, str]:
    """Write a 2-D spectrogram as a min-max scaled PGM plus a raw-value CSV.

    Returns the two paths written (<base>.pgm, <base>.csv).
    """
    s = np.asarray(spect, dtype=np.float64)
    if s.ndim != 2:
        raise FormatError(f"a spectrogram must be 2-D, got shape {s.shape}")
    lo, hi = float(np.min(s)), float(np.max(s))
    if hi > lo:
        scaled = (s - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(s)
    pgm_path = base_path + ".pgm"
    csv_path = base_path + ".csv"
    save_pgm(pgm_path, np.round(scaled).astype(np.uint8))
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in s:
            writer.writerow([repr(float(v)) for v in row])
    return pgm_path, csv_path
