"""Neural-network operations built on the taped tensor engine.

Spatial ops accept [C, H, W] or [B, C, H, W] inputs and keep the layout they
were given. Convolutions are cross-correlations (no kernel flip on the
forward pass) under "same-ceil" padding: each output extent is
ceil(input / stride), the shortfall is padded with zeros split evenly, and
the odd padding element goes on the bottom/right edge.

Both convolutions are lowered to im2col + one 2-D GEMM per direction, which
reads the weights once: the kernel windows are laid out as columns
[C*kh*kw, B*Ho*Wo], the batch folded into the columns, and contracted with
the flattened weights by one matmul; the scatter direction
(conv_transpose2d forward, conv2d input gradient) is one matmul followed by
col2im. conv_transpose2d uses its weights unflipped: the spatial kernel flip
is applied as the tap order in which col2im (forward) and im2col (backward)
walk the columns. 1x1 stride-1 convolutions skip the window copy (a view at
batch 1). Columns are recomputed in backward rather than kept on the tape.

conv2d's forward builds its columns in blocks of at most COL_BLOCK_BYTES
(2 MiB): whole samples while one sample's columns fit, so a batch that fits
is a single block, else bands of output rows of one sample. Each block is one GEMM whose product goes, with the bias added,
straight into its slice of the [B, C_out, Ho, Wo] output, so peak column
memory stays at one block however large the batch (the first video conv
would otherwise take 3.2 MB of float32 columns per segment). The backward
passes still build their columns whole.

maxpool2d's forward is a running maximum over the window taps. The argmax
that routes the gradient is found in backward only, by a scan of the taps
in reading order for the first one equal to the window's maximum, so
inference never pays for it.

Finiteness needs no per-op scan: the Tensor constructor rejects NaN/Inf in
every op output, including outputs computed from corrupted operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ShapeError, Tensor, _accumulate, record, stack

LEAKY_SLOPE = 0.2
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

ACTIVATION_KINDS = ("leaky_relu", "relu", "sigmoid", "linear")

# Most bytes of GEMM columns conv2d's forward builds at once (see _col_blocks).
COL_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one convolution layer.

    padding_mode is fixed: every layer in this kit pads "same-ceil", so the
    field exists only to make the convention explicit in traces and errors.
    """

    out_channels: int
    kernel: Tuple[int, int]
    stride: Tuple[int, int] = (1, 1)
    padding_mode: str = "same-ceil"

    def __post_init__(self):
        if self.out_channels < 1:
            raise ShapeError(f"out_channels must be positive, got {self.out_channels}")
        if any(k < 1 for k in self.kernel) or len(self.kernel) != 2:
            raise ShapeError(f"kernel extents must be positive pairs, got {self.kernel}")
        if any(s < 1 for s in self.stride) or len(self.stride) != 2:
            raise ShapeError(f"stride extents must be positive pairs, got {self.stride}")
        if self.padding_mode != "same-ceil":
            raise ShapeError(f"unsupported padding mode {self.padding_mode!r}")

    def out_extents(self, in_h: int, in_w: int) -> Tuple[int, int]:
        return (math.ceil(in_h / self.stride[0]), math.ceil(in_w / self.stride[1]))

    def pads(self, in_h: int, in_w: int) -> Tuple[int, int, int, int]:
        """(top, bottom, left, right) zero padding for an input extent."""
        pt, pb = _same_ceil_pad(in_h, self.stride[0], self.kernel[0])
        pl, pr = _same_ceil_pad(in_w, self.stride[1], self.kernel[1])
        return pt, pb, pl, pr


def _same_ceil_pad(extent: int, stride: int, kernel: int) -> Tuple[int, int]:
    out = math.ceil(extent / stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    lo = total // 2
    return lo, total - lo


def _as_batched(data: np.ndarray, op: str) -> Tuple[np.ndarray, bool]:
    if data.ndim == 3:
        return data[None], False
    if data.ndim == 4:
        return data, True
    raise ShapeError(f"{op}: expected a [C,H,W] or [B,C,H,W] input, got {data.shape}")


def _pad_hw(a: np.ndarray, pt: int, pb: int, pl: int, pr: int, value: float = 0.0) -> np.ndarray:
    if pt == pb == pl == pr == 0:
        return a
    h, w = a.shape[-2:]
    out = np.full(a.shape[:-2] + (h + pt + pb, w + pl + pr), value, dtype=a.dtype)
    out[..., pt:pt + h, pl:pl + w] = a  # np.pad spends about 50 us per call in Python
    return out


def _windows(a: np.ndarray, spec: ConvSpec, pads: Tuple[int, int, int, int],
             flip: bool = False) -> np.ndarray:
    """Kernel windows of a [B,C,H,W] array: a view [B,C,Ho,Wo,kh,kw] of its padded copy.

    flip reverses the kernel taps, which turns a contraction with the
    windows into one with the spatially flipped kernel.
    """
    if spec.kernel == spec.stride == (1, 1):
        return a[..., None, None]
    (kh, kw), (sh, sw) = spec.kernel, spec.stride
    ap = _pad_hw(a, *pads)
    ho, wo = (ap.shape[2] - kh) // sh + 1, (ap.shape[3] - kw) // sw + 1
    sb, sc, sy, sx = ap.strides
    win = as_strided(ap, (a.shape[0], a.shape[1], ho, wo, kh, kw),
                     (sb, sc, sy * sh, sx * sw, sy, sx), writeable=False)
    return win[..., ::-1, ::-1] if flip else win


def _cols(win: np.ndarray) -> np.ndarray:
    """GEMM columns [C*kh*kw, B*Ho*Wo] of a window view (a view at one sample of a 1x1 window)."""
    c, kh, kw = win.shape[1], win.shape[4], win.shape[5]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, -1)


def _im2col(a: np.ndarray, spec: ConvSpec, pads: Tuple[int, int, int, int],
            flip: bool = False) -> np.ndarray:
    """Kernel windows of a [B,C,H,W] array as GEMM columns [C*kh*kw, B*Ho*Wo]."""
    return _cols(_windows(a, spec, pads, flip))


def _col_blocks(b: int, ho: int, row_bytes: int) -> List[Tuple[slice, slice]]:
    """(sample, output-row) slices whose columns fit in COL_BLOCK_BYTES each.

    row_bytes is the size of the columns of one output row of one sample.
    Blocks hold whole samples while one sample fits, so a batch that fits
    is a single block; a larger sample is cut into bands of output rows
    (at least one row per band).
    """
    per_sample = ho * row_bytes
    if per_sample <= COL_BLOCK_BYTES:
        n = COL_BLOCK_BYTES // per_sample
        return [(slice(s, min(s + n, b)), slice(None)) for s in range(0, b, n)]
    n = max(1, COL_BLOCK_BYTES // row_bytes)
    return [(slice(s, s + 1), slice(r, min(r + n, ho))) for s in range(b) for r in range(0, ho, n)]


def _col2im(cols: np.ndarray, b: int, hw: Tuple[int, int], spec: ConvSpec,
            pads: Tuple[int, int, int, int], flip: bool = False) -> np.ndarray:
    """Adjoint of _im2col (same flip): sum columns [C*kh*kw, B*Ho*Wo] back onto [B,C,H,W]."""
    (h, w), (kh, kw), (sh, sw) = hw, spec.kernel, spec.stride
    if spec.kernel == spec.stride == (1, 1):
        return _unfold_batch(cols, b, h, w)
    ho, wo = spec.out_extents(h, w)
    cols = cols.reshape(-1, kh, kw, b, ho, wo)
    if flip:
        cols = cols[:, ::-1, ::-1]
    pt, pb, pl, pr = pads
    full = np.zeros((b, cols.shape[0], h + pt + pb, w + pl + pr), dtype=cols.dtype)
    for u in range(kh):
        for v in range(kw):
            full[:, :, u:u + ho * sh:sh, v:v + wo * sw:sw] += cols[:, u, v].transpose(1, 0, 2, 3)
    return full[:, :, pt:pt + h, pl:pl + w]


def _fold_batch(a: np.ndarray) -> np.ndarray:
    """[B,C,H,W] -> [C, B*H*W]: the batch joins the GEMM columns (a view at B=1)."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _unfold_batch(m: np.ndarray, b: int, h: int, w: int) -> np.ndarray:
    """[C, B*H*W] -> C-ordered [B,C,H,W]; the inverse of _fold_batch."""
    return np.ascontiguousarray(m.reshape(-1, b, h, w).transpose(1, 0, 2, 3))


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, spec: ConvSpec) -> Tensor:
    """Strided cross-correlation with fused bias.

    x: [C_in, H, W] or [B, C_in, H, W]; weights: [C_out, C_in, kh, kw];
    bias: [C_out]. Output spatial extents are ceil(extent / stride).
    """
    xd, batched = _as_batched(x.data, "conv2d")
    wd = weights.data
    if wd.ndim != 4:
        raise ShapeError(f"conv2d: weights must be [C_out,C_in,kh,kw], got {wd.shape}")
    if wd.shape[0] != spec.out_channels:
        raise ShapeError(f"conv2d: weight axis 0 is {wd.shape[0]}, spec says {spec.out_channels} output channels")
    if (wd.shape[2], wd.shape[3]) != spec.kernel:
        raise ShapeError(f"conv2d: weight kernel axes {wd.shape[2:]} do not match spec kernel {spec.kernel}")
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"conv2d: input channel axis is {xd.shape[1]}, weights expect {wd.shape[1]}")
    if bias.dims != (spec.out_channels,):
        raise ShapeError(f"conv2d: bias must be [{spec.out_channels}], got {bias.dims}")

    b, c, h, w = xd.shape
    pads = spec.pads(h, w)
    ho, wo = spec.out_extents(h, w)
    wmat = wd.reshape(spec.out_channels, -1)
    win = _windows(xd, spec, pads)
    out = np.empty((b, spec.out_channels, ho, wo), dtype=np.result_type(xd, wd))
    for samples, rows in _col_blocks(b, ho, wmat.shape[1] * wo * xd.itemsize):
        blk = out[samples, :, rows]
        prod = wmat @ _cols(win[samples, :, rows])
        prod = prod.reshape(blk.shape[1], blk.shape[0], *blk.shape[2:]).transpose(1, 0, 2, 3)
        np.add(prod, bias.data[:, None, None], out=blk)
    result = Tensor(out if batched else out[0])

    def backward(g: np.ndarray) -> None:
        gm = _fold_batch(g if batched else g[None])
        if weights.requires_grad:
            _accumulate(weights, (gm @ _im2col(xd, spec, pads).T).reshape(wd.shape))
        if bias.requires_grad:
            _accumulate(bias, gm.sum(axis=1))
        if x.requires_grad:
            gx = _col2im(wmat.T @ gm, b, (h, w), spec, pads)
            _accumulate(x, gx if batched else gx[0])

    return record(result, (x, weights, bias), backward)


def conv_transpose2d(x: Tensor, weights: Tensor, bias: Tensor, spec: ConvSpec,
                     out_hw: Tuple[int, int]) -> Tensor:
    """Transposed convolution: the adjoint of conv2d's input map, plus bias.

    x: [C_in, H, W] or [B, C_in, H, W]; weights: [C_in, C_out, kh, kw];
    bias: [C_out]. out_hw names the target extent explicitly and must satisfy
    ceil(out / stride) == in for both axes, i.e. the extent a forward conv2d
    with the same spec would have shrunk to this input.

    Applying this op to an upstream gradient with spatially flipped forward
    kernels reproduces conv2d's input gradient exactly.
    """
    xd, batched = _as_batched(x.data, "conv_transpose2d")
    wd = weights.data
    if wd.ndim != 4:
        raise ShapeError(f"conv_transpose2d: weights must be [C_in,C_out,kh,kw], got {wd.shape}")
    if wd.shape[1] != spec.out_channels:
        raise ShapeError(f"conv_transpose2d: weight axis 1 is {wd.shape[1]}, spec says {spec.out_channels} output channels")
    if (wd.shape[2], wd.shape[3]) != spec.kernel:
        raise ShapeError(f"conv_transpose2d: weight kernel axes {wd.shape[2:]} do not match spec kernel {spec.kernel}")
    if xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"conv_transpose2d: input channel axis is {xd.shape[1]}, weights expect {wd.shape[0]}")
    if bias.dims != (spec.out_channels,):
        raise ShapeError(f"conv_transpose2d: bias must be [{spec.out_channels}], got {bias.dims}")

    b, c, h, w = xd.shape
    oh, ow = out_hw
    if spec.out_extents(oh, ow) != (h, w):
        raise ShapeError(
            f"conv_transpose2d: target extent {out_hw} with stride {spec.stride} "
            f"does not contract to the input extent ({h}, {w})")

    pads = spec.pads(oh, ow)
    wmat = wd.reshape(c, -1)  # [C_in, C_out*kh*kw]; the flip lives in the column order
    xm = _fold_batch(xd)
    out = _col2im(wmat.T @ xm, b, out_hw, spec, pads, flip=True)
    out += bias.data[None, :, None, None]
    result = Tensor(out if batched else out[0])

    def backward(g: np.ndarray) -> None:
        gb = g if batched else g[None]
        if x.requires_grad or weights.requires_grad:
            gcols = _im2col(gb, spec, pads, flip=True)
        if x.requires_grad:
            gx = _unfold_batch(wmat @ gcols, b, h, w)
            _accumulate(x, gx if batched else gx[0])
        if weights.requires_grad:
            _accumulate(weights, (xm @ gcols.T).reshape(wd.shape))
        if bias.requires_grad:
            _accumulate(bias, gb.sum(axis=(0, 2, 3)))

    return record(result, (x, weights, bias), backward)


def maxpool2d(x: Tensor, window: Tuple[int, int]) -> Tensor:
    """Non-overlapping max pooling; window doubles as the stride.

    Same-ceil padding fills with -inf, and the construction guarantees every
    window covers at least one real cell. The forward is a running maximum
    over the window taps; the argmax is found only in backward, where ties
    route the gradient to the first window element in reading order.
    """
    wh, ww = window
    if wh < 1 or ww < 1:
        raise ShapeError(f"maxpool2d: window extents must be positive, got {window}")
    xd, batched = _as_batched(x.data, "maxpool2d")
    b, c, h, w = xd.shape
    ho, wo = math.ceil(h / wh), math.ceil(w / ww)
    pt, pb = _same_ceil_pad(h, wh, wh)
    pl, pr = _same_ceil_pad(w, ww, ww)
    xp = _pad_hw(xd, pt, pb, pl, pr, value=-np.inf)  # exactly [B, C, ho*wh, wo*ww]
    out = xp[:, :, ::wh, ::ww].copy()
    for u in range(wh):
        for v in range(ww):
            if u or v:
                np.maximum(xp[:, :, u::wh, v::ww], out, out=out)  # ties keep the earlier tap
    result = Tensor(out if batched else out[0])

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gb = g if batched else g[None]
        gxp = np.zeros_like(xp)
        pending = np.ones(out.shape, dtype=bool)  # windows whose argmax is not yet found
        for u in range(wh):
            for v in range(ww):
                hit = xp[:, :, u::wh, v::ww] == out
                hit &= pending
                pending ^= hit
                np.copyto(gxp[:, :, u::wh, v::ww], gb, where=hit)
        gx = gxp[:, :, pt:pt + h, pl:pl + w]
        _accumulate(x, gx if batched else gx[0])

    return record(result, (x,), backward)


@dataclass
class BatchNormState:
    """Running per-channel statistics, updated in train mode only."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(mean=np.zeros(channels, dtype=dtype), var=np.ones(channels, dtype=dtype))

    def copy(self) -> "BatchNormState":
        return BatchNormState(self.mean.copy(), self.var.copy())


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """Per-channel batch normalization over the batch and spatial axes.

    Train mode normalizes with the biased batch statistics and folds them
    into the running state (new = 0.9 * old + 0.1 * batch). Eval mode
    normalizes with the running state and treats it as constant.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"batch_norm: mode must be 'train' or 'eval', got {mode!r}")
    xd, batched = _as_batched(x.data, "batch_norm")
    b, c, h, w = xd.shape
    if gamma.dims != (c,) or beta.dims != (c,):
        raise ShapeError(f"batch_norm: gamma/beta must be [{c}], got {gamma.dims} and {beta.dims}")
    if state.mean.shape != (c,) or state.var.shape != (c,):
        raise ShapeError(f"batch_norm: state holds {state.mean.shape}, input has {c} channels")
    n = b * h * w
    if n < 1:
        raise ShapeError("batch_norm: zero elements per channel")

    if mode == "train":
        mu = xd.mean(axis=(0, 2, 3), dtype=np.float64)
        var = xd.var(axis=(0, 2, 3), dtype=np.float64)  # biased, matches the running update
        mu = mu.astype(xd.dtype)
        var = var.astype(xd.dtype)
        state.mean[...] = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var[...] = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    else:
        mu = state.mean.astype(xd.dtype)
        var = state.var.astype(xd.dtype)

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]
    result = Tensor(out if batched else out[0])

    def backward(g: np.ndarray) -> None:
        gb = g if batched else g[None]
        g_xhat = np.einsum("bchw,bchw->c", gb, xhat, optimize=True)
        if gamma.requires_grad:
            _accumulate(gamma, g_xhat)
        if beta.requires_grad:
            _accumulate(beta, gb.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            scale = (gamma.data * inv)[None, :, None, None]
            if mode == "train":
                g_mean = gb.mean(axis=(0, 2, 3), keepdims=True)
                gx = scale * (gb - g_mean - xhat * (g_xhat / n)[None, :, None, None])
            else:
                gx = scale * gb
            _accumulate(x, gx if batched else gx[0])

    return record(result, (x, gamma, beta), backward)


def activation(x: Tensor, kind: str) -> Tensor:
    """Pointwise nonlinearity: leaky_relu (slope 0.2), relu, sigmoid, linear."""
    if kind not in ACTIVATION_KINDS:
        raise ShapeError(f"activation: unknown kind {kind!r}, expected one of {ACTIVATION_KINDS}")
    if kind == "sigmoid":
        return x.sigmoid()
    if kind == "linear":
        return x
    xd = x.data
    if kind == "relu":
        out = np.where(xd > 0, xd, xd.dtype.type(0))
        slope = 0.0
    else:
        out = np.where(xd > 0, xd, xd * xd.dtype.type(LEAKY_SLOPE))
        slope = LEAKY_SLOPE
    result = Tensor(out)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, np.where(xd > 0, g, g * slope))

    return record(result, (x,), backward)


def softmax_pair(a: Tensor, b: Tensor) -> Tuple[Tensor, Tensor]:
    """Two-way softmax across a pair of equally shaped score tensors.

    The pair case reduces to a sigmoid of the score difference, which is the
    max-subtracted form and therefore safe for large magnitudes. The weights
    sum to one by construction.
    """
    if a.dims != b.dims:
        raise ShapeError(f"softmax_pair: score shapes differ, {a.dims} vs {b.dims}")
    wa = (a - b).sigmoid()
    wb = 1.0 - wa
    return wa, wb


def fully_connected(x: Tensor, weights: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map y = W x (+ b) for [F] or [B, F] inputs; weights are [O, F]."""
    xd = x.data
    wd = weights.data
    if wd.ndim != 2:
        raise ShapeError(f"fully_connected: weights must be [out,in], got {wd.shape}")
    if xd.ndim not in (1, 2):
        raise ShapeError(f"fully_connected: input must be [F] or [B,F], got {xd.shape}")
    if xd.shape[-1] != wd.shape[1]:
        raise ShapeError(f"fully_connected: input feature axis is {xd.shape[-1]}, weights expect {wd.shape[1]}")
    if bias is not None and bias.dims != (wd.shape[0],):
        raise ShapeError(f"fully_connected: bias must be [{wd.shape[0]}], got {bias.dims}")

    out = (wd @ xd.T).T  # weights on the left: OpenBLAS is about 2x slower with a small batch as M
    if bias is not None:
        out = out + bias.data
    result = Tensor(out)
    inputs = (x, weights) if bias is None else (x, weights, bias)

    def backward(g: np.ndarray) -> None:
        if weights.requires_grad:
            if xd.ndim == 1:
                _accumulate(weights, np.outer(g, xd))
            else:
                _accumulate(weights, g.T @ xd)
        if x.requires_grad:
            _accumulate(x, g @ wd)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g if xd.ndim == 1 else g.sum(axis=0))

    return record(result, inputs, backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [C,H,W] -> [C] or [B,C,H,W] -> [B,C]."""
    xd, batched = _as_batched(x.data, "global_avg_pool")
    b, c, h, w = xd.shape
    out = xd.mean(axis=(2, 3), dtype=np.float64).astype(xd.dtype)
    result = Tensor(out if batched else out[0])

    def backward(g: np.ndarray) -> None:
        gb = g if batched else g[None]
        gx = np.broadcast_to(gb[:, :, None, None] / (h * w), xd.shape).astype(xd.dtype)
        _accumulate(x, gx if batched else gx[0])

    return record(result, (x,), backward)


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; batch and spatial extents must agree."""
    if not xs:
        raise ShapeError("concat_channels needs at least one tensor")
    first = xs[0]
    for t in xs[1:]:
        if t.ndim != first.ndim:
            raise ShapeError(f"concat_channels: rank mismatch, {first.dims} vs {t.dims}")
        if t.dims[-2:] != first.dims[-2:]:
            raise ShapeError(f"concat_channels: spatial axes differ, {first.dims} vs {t.dims}")
        if t.ndim == 4 and t.dims[0] != first.dims[0]:
            raise ShapeError(f"concat_channels: batch axis differs, {first.dims} vs {t.dims}")
    if first.ndim not in (3, 4):
        raise ShapeError(f"concat_channels: expected [C,H,W] or [B,C,H,W] inputs, got {first.dims}")
    axis = first.ndim - 3
    out = Tensor(np.concatenate([t.data for t in xs], axis=axis))
    splits = [t.dims[axis] for t in xs]

    def backward(g: np.ndarray) -> None:
        start = 0
        for t, span in zip(xs, splits):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + span)
            _accumulate(t, g[tuple(sl)])
            start += span

    return record(out, tuple(xs), backward)


def scale_channels(x: Tensor, w: Tensor) -> Tensor:
    """Multiply a feature map by per-channel weights or an equally shaped mask.

    Accepts w of shape [C] for any input, [B, C] for batched input, or the
    full input shape for elementwise gating.
    """
    xd = x.data
    wd = w.data
    if xd.ndim not in (3, 4):
        raise ShapeError(f"scale_channels: input must be [C,H,W] or [B,C,H,W], got {xd.shape}")
    c = xd.shape[-3]
    if wd.shape == xd.shape:
        expand = wd
        reduce_axes: Tuple[int, ...] = ()
    elif wd.shape == (c,):
        expand = wd[:, None, None] if xd.ndim == 3 else wd[None, :, None, None]
        reduce_axes = (1, 2) if xd.ndim == 3 else (0, 2, 3)
    elif xd.ndim == 4 and wd.shape == xd.shape[:2]:
        expand = wd[:, :, None, None]
        reduce_axes = (2, 3)
    else:
        raise ShapeError(f"scale_channels: weight shape {wd.shape} does not fit input {xd.shape}")

    out = Tensor(xd * expand)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * expand)
        if w.requires_grad:
            gw = g * xd
            if reduce_axes:
                gw = gw.sum(axis=reduce_axes)
            _accumulate(w, gw)

    return record(out, (x, w), backward)


@dataclass
class LstmGate:
    wx: Tensor
    wh: Tensor
    bias: Tensor


@dataclass
class LstmLayerParams:
    """One recurrent layer: input, forget, cell and output gates."""

    input_gate: LstmGate
    forget_gate: LstmGate
    cell_gate: LstmGate
    output_gate: LstmGate

    def gates(self) -> Tuple[Tuple[str, LstmGate], ...]:
        return (("input", self.input_gate), ("forget", self.forget_gate),
                ("cell", self.cell_gate), ("output", self.output_gate))

    @property
    def hidden_size(self) -> int:
        return self.input_gate.wx.dims[0]

    @property
    def feature_size(self) -> int:
        return self.input_gate.wx.dims[1]


def lstm_forward(seq: Tensor, params: LstmLayerParams,
                 h0: Optional[Tensor] = None, c0: Optional[Tensor] = None) -> Tensor:
    """Run one LSTM layer over a [T, F] or [B, T, F] sequence.

    Composed entirely of taped primitives, so differentiation through time
    falls out of the ordinary tape replay. Returns the hidden states for
    every step, [T, H] or [B, T, H].
    """
    if seq.ndim not in (2, 3):
        raise ShapeError(f"lstm_forward: sequence must be [T,F] or [B,T,F], got {seq.dims}")
    hidden = params.hidden_size
    feat = params.feature_size
    if seq.dims[-1] != feat:
        raise ShapeError(f"lstm_forward: feature axis is {seq.dims[-1]}, gates expect {feat}")
    for name, gate in params.gates():
        if gate.wx.dims != (hidden, feat) or gate.wh.dims != (hidden, hidden) or gate.bias.dims != (hidden,):
            raise ShapeError(f"lstm_forward: {name} gate shapes are inconsistent")

    steps = seq.dims[-2]
    state_shape = (hidden,) if seq.ndim == 2 else (seq.dims[0], hidden)
    dtype = seq.dtype
    h = h0 if h0 is not None else Tensor(np.zeros(state_shape, dtype=dtype))
    c = c0 if c0 is not None else Tensor(np.zeros(state_shape, dtype=dtype))
    if h.dims != state_shape or c.dims != state_shape:
        raise ShapeError(f"lstm_forward: initial state must be {state_shape}, got {h.dims} and {c.dims}")

    outputs = []
    for t in range(steps):
        x_t = seq.pick(axis=-2, index=t)
        z = {}
        for name, gate in params.gates():
            z[name] = fully_connected(x_t, gate.wx, gate.bias) + fully_connected(h, gate.wh)
        i = z["input"].sigmoid()
        f = z["forget"].sigmoid()
        g = z["cell"].tanh()
        o = z["output"].sigmoid()
        c = f * c + i * g
        h = o * c.tanh()
        outputs.append(h)
    return stack(outputs, axis=seq.ndim - 2)
