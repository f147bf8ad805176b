"""File formats: tensor containers, checkpoints, WAV, PGM, and CSV helpers.

Everything here is parsed and emitted manually with struct so the on-disk
layout is pinned by this module, not by whichever codec library happens to
be installed. All multi-byte fields are little-endian.

Tensor container ("MTEN"): magic `MTEN`, u8 version=1, u8 rank, rank u32
dims, then row-major float32 payload.

Checkpoint ("MFFC"): magic `MFFC`, u8 version=1, u32 record count, then per
record a u16 name length, the UTF-8 name, and an embedded MTEN blob.

WAV: RIFF/WAVE, PCM format 1, mono, 16-bit signed samples at 16000 Hz.
Anything else is rejected with a descriptive error rather than resampled.

PGM: binary P5 with maxval 255. Video directories hold frames named
frame_000000.pgm onward, contiguously.
"""

from __future__ import annotations

import csv
import os
import re
import struct
from typing import Dict, List, Sequence, Tuple

import numpy as np

MTEN_MAGIC = b"MTEN"
MFFC_MAGIC = b"MFFC"
WAV_RATE = 16000
FRAME_NAME = "frame_%06d.pgm"
FRAME_RE = re.compile(r"frame_(\d{6})\.pgm$")


class FormatError(ValueError):
    """Raised for malformed or unsupported files."""


# ----------------------------------------------------------------------------
# MTEN tensor container
# ----------------------------------------------------------------------------

def encode_mten(array: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim < 1:
        arr = arr.reshape(1)
    if arr.ndim > 255:
        raise FormatError(f"rank {arr.ndim} exceeds the u8 rank field")
    if not np.all(np.isfinite(arr)):
        raise FormatError("refusing to encode non-finite tensor values")
    head = MTEN_MAGIC + struct.pack("<BB", 1, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return head + dims + arr.tobytes(order="C")


def decode_mten(buf: bytes, offset: int = 0) -> Tuple[np.ndarray, int]:
    """Decode one MTEN blob starting at offset; returns (array, next offset)."""
    if len(buf) - offset < 6:
        raise FormatError("truncated tensor header")
    if buf[offset:offset + 4] != MTEN_MAGIC:
        raise FormatError(f"bad tensor magic {buf[offset:offset + 4]!r}")
    version, rank = struct.unpack_from("<BB", buf, offset + 4)
    if version != 1:
        raise FormatError(f"unsupported tensor container version {version}")
    if rank < 1:
        raise FormatError("tensor rank must be at least 1")
    pos = offset + 6
    if len(buf) - pos < 4 * rank:
        raise FormatError("truncated tensor dims")
    dims = struct.unpack_from(f"<{rank}I", buf, pos)
    pos += 4 * rank
    if any(d == 0 for d in dims):
        raise FormatError(f"tensor dims must be positive, got {dims}")
    count = int(np.prod(dims, dtype=np.int64))
    nbytes = 4 * count
    if len(buf) - pos < nbytes:
        raise FormatError(f"truncated tensor payload: want {nbytes} bytes, have {len(buf) - pos}")
    flat = np.frombuffer(buf, dtype="<f4", count=count, offset=pos)
    arr = flat.reshape(dims).astype(np.float32)
    if not np.all(np.isfinite(arr)):
        raise FormatError("tensor payload holds NaN or Inf values")
    return arr, pos + nbytes


def save_mten(path: str, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_mten(array))


def load_mten(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    arr, end = decode_mten(buf)
    if end != len(buf):
        raise FormatError(f"{path}: {len(buf) - end} trailing bytes after tensor payload")
    return arr


# ----------------------------------------------------------------------------
# MFFC checkpoints
# ----------------------------------------------------------------------------

def save_checkpoint(path: str, entries: Dict[str, np.ndarray]) -> None:
    """Write named tensors in insertion order."""
    out = [MFFC_MAGIC, struct.pack("<BI", 1, len(entries))]
    for name, arr in entries.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise FormatError(f"parameter name too long: {name[:40]}...")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(encode_mten(arr))
    with open(path, "wb") as fh:
        fh.write(b"".join(out))


def load_checkpoint(path: str) -> Dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 9 or buf[:4] != MFFC_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    version, count = struct.unpack_from("<BI", buf, 4)
    if version != 1:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    pos = 9
    entries: Dict[str, np.ndarray] = {}
    for _ in range(count):
        if len(buf) - pos < 2:
            raise FormatError(f"{path}: truncated record header")
        (nlen,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        name = buf[pos:pos + nlen].decode("utf-8")
        pos += nlen
        arr, pos = decode_mten(buf, pos)
        if name in entries:
            raise FormatError(f"{path}: duplicate parameter name {name!r}")
        entries[name] = arr
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes after last record")
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
    fmt = struct.pack("<HHIIHH", 1, 1, WAV_RATE, WAV_RATE * 2, 2, 16)
    body = (b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    if len(data) % 2:
        body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)


def load_wav(path: str) -> np.ndarray:
    """Read a mono 16-bit 16 kHz PCM WAV into float64 samples in [-1, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt_seen = False
    data = None
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        body = buf[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise FormatError(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk too short")
            codec, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body, 0)
            if codec != 1:
                raise FormatError(f"{path}: compressed WAV (format {codec}) is not supported, need PCM")
            if channels != 1:
                raise FormatError(f"{path}: {channels} channels, need mono")
            if rate != WAV_RATE:
                raise FormatError(f"{path}: sample rate {rate}, need {WAV_RATE}")
            if bits != 16:
                raise FormatError(f"{path}: {bits}-bit samples, need 16")
            fmt_seen = True
        elif cid == b"data":
            data = body
        pos += 8 + size + (size % 2)
    if not fmt_seen:
        raise FormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise FormatError(f"{path}: missing data chunk")
    pcm = np.frombuffer(data, dtype="<i2")
    # 32767 mirrors the writer's scale so a save/load round trip stays within
    # half a quantization step; -32768, which the writer never emits but
    # clipped recordings do, would land just below -1.0 and is clamped.
    return np.maximum(pcm.astype(np.float64) / 32767.0, -1.0)


# ----------------------------------------------------------------------------
# PGM (binary P5) and video frame directories
# ----------------------------------------------------------------------------

def save_pgm(path: str, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise FormatError(f"PGM image must be 2-D, got shape {img.shape}")
    if img.dtype != np.uint8:
        if np.min(img) < 0 or np.max(img) > 255:
            raise FormatError("PGM pixel values must fit in 0..255")
        img = img.astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes(order="C"))


def load_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # Header tokens may be separated by any whitespace and '#' comments.
    pos = 2
    tokens: List[int] = []
    while len(tokens) < 3:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(int(buf[start:pos]))
    pos += 1  # single whitespace byte after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval}, need 255")
    if w < 1 or h < 1:
        raise FormatError(f"{path}: bad image extent {w}x{h}")
    if len(buf) - pos < w * h:
        raise FormatError(f"{path}: truncated pixel payload")
    return np.frombuffer(buf, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w).copy()


def save_video_frames(dirpath: str, frames: np.ndarray) -> None:
    """Write a [T,H,W] stack of 0..255 values as numbered PGM frames."""
    arr = np.asarray(frames)
    if arr.ndim != 3:
        raise FormatError(f"video stack must be [T,H,W], got {arr.shape}")
    os.makedirs(dirpath, exist_ok=True)
    for t in range(arr.shape[0]):
        save_pgm(os.path.join(dirpath, FRAME_NAME % t), arr[t])


def load_video_frames(dirpath: str) -> np.ndarray:
    """Read frame_000000.pgm onward into a [T,H,W] uint8 stack."""
    found = {}
    for name in os.listdir(dirpath):
        m = FRAME_RE.match(name)
        if m:
            found[int(m.group(1))] = os.path.join(dirpath, name)
    if not found:
        raise FormatError(f"{dirpath}: no frame_######.pgm files")
    indices = sorted(found)
    if indices[0] != 0 or indices[-1] != len(indices) - 1:
        raise FormatError(f"{dirpath}: frame numbers must be contiguous from 0")
    frames = [load_pgm(found[i]) for i in indices]
    shape = frames[0].shape
    for i, f in enumerate(frames):
        if f.shape != shape:
            raise FormatError(f"{dirpath}: frame {i} is {f.shape}, first frame is {shape}")
    return np.stack(frames, axis=0)


def load_video(path: str) -> np.ndarray:
    """Video ingestion: a directory of PGM frames or a [T,H,W] tensor file."""
    if os.path.isdir(path):
        return load_video_frames(path)
    arr = load_mten(path)
    if arr.ndim != 3:
        raise FormatError(f"{path}: video tensor must be [T,H,W], got {arr.shape}")
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


def load_loss_csv(path: str) -> List[float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["step", "loss"]:
        raise FormatError(f"{path}: expected a 'step,loss' header")
    return [float(r[1]) for r in rows[1:]]


def export_spectrogram(base_path: str, spect: np.ndarray) -> Tuple[str, str]:
    """Write a 2-D spectrogram as a min-max scaled PGM plus a raw-value CSV.

    Returns the two paths written (<base>.pgm, <base>.csv).
    """
    s = np.asarray(spect, dtype=np.float64)
    if s.ndim != 2:
        raise FormatError(f"spectrogram must be 2-D, got {s.shape}")
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
