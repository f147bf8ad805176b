"""Neural-network operations built on the taped tensor engine.

Every op takes one layout with the batch axis first: [B, C, H, W] feature
maps and [B, F, T] sequences, features first like a map's channels. An input
without its batch axis raises a ShapeError naming the op; model.mffcn_forward
is the one entry that also takes a single [C, H, W] segment. Convolutions are
cross-correlations (no kernel flip on the forward pass) under "same-ceil"
padding: each output extent is ceil(input / stride), the shortfall is
padded with zeros split evenly, and the odd padding element goes on the
bottom/right edge. A convolution's channel counts and kernel are its
weights' axes; its ConvSpec adds only the stride.

A 1x1 stride-1 conv2d is a dense map at every pixel (Lin et al., "Network
In Network", ICLR 2014), as is every channel mix: attention.py's convs and
heads, and each LSTM gate's input projection. All run through _dense_data
and _dense_grads, a pointwise conv via _pointwise / _pointwise_grads over
its input folded to [C_in, B*H*W]. Every other convolution is lowered onto
one zero-padded phase grid, conv2d's and conv_transpose2d's alone. The big side
(conv2d's input, conv_transpose2d's output) is padded and split by stride
phase into planes [C, B*hq*wq], hq and wq being the padded extents over the
stride, rounded up: padded cell (y, x) of sample n sits in plane
(y % sh, x % sw) at column n*hq*wq + (y // sh)*wq + x // sw. Small-side
position (i, j) is grid column n*hq*wq + i*wq + j, and its kernel tap
(u, v) lies in plane (u % sh, v % sw), (u // sh)*wq + v // sw columns
further on. So every im2col row of a range of grid columns is one
contiguous run of a plane (one strided copy per phase fills them all), and
the taps col2im sums into a plane cell sit at fixed strides in the product
(one reduction per phase). Grid columns off the small side's extents are
computed and dropped, which widens the GEMMs by up to hq*wq / (ho*wo);
operands placed on the grid are zero there.

Every pass is one of two directions, each one GEMM per block with the
weights reshaped, never copied ([C_out, C_in*kh*kw] and
[C_in, C_out*kh*kw]). _gather builds each block's im2col columns once and
takes from them the product, cropped straight into its slice of the small
side (conv2d's forward, conv_transpose2d's input gradient), and/or the
weight gradient, gradient times columns summed over blocks (both ops).
_scatter, its adjoint, multiplies a grid-placed operand, sums the product
back with col2im and crops the planes once (conv2d's input gradient,
conv_transpose2d's forward). conv_transpose2d uses its weights unflipped:
the spatial flip is the tap order in which col2im (forward) and im2col
(backward) walk the columns. Columns are recomputed in backward rather
than kept on the tape.

Every pass works in blocks of at most COL_BLOCK_BYTES (2 MiB) of columns or
scatter product over ranges of grid columns: whole samples while one sample
fits, so a batch that fits is a single block, else near-equal bands of
small-side rows of one sample. Peak column memory stays at one block (a
scatter's plus its halo columns, see _col2im) however large the batch (the
first video conv would otherwise take 3.4 MB of float32 columns per
segment). For a GEMM of m < 43 output rows, _gather's row bands shrink to
m * 48 KiB, at least 256 KiB, in multiples of 16 grid columns, so they stay
in L2 (see _Grid.blocks). The forward keeps its bits; the weight gradient's
sum over blocks rounds differently. A geometry's phase tables and its
blocks are worked out once and cached, since a model meets the same
geometries on every call.

maxpool2d takes only windows that tile its input, as every network pool does.
Its forward is a running maximum over the window taps. The argmax routing the
gradient is found in backward only, by a scan of the taps in reading order for
the first one equal to the window's maximum, so inference never pays for it.

lstm_forward runs a whole recurrent layer as one taped op rather than 22
taped primitives per time step. Each gate's input projection is one
_dense_data over every step before the time loop, which then adds one
``wh @ h`` per gate and step; the backward pass is backpropagation through
time written out by hand. The four gates keep their own [H, F] / [H, H]
weight tensors (names, shapes and checkpoints unchanged) instead of being
stacked into one [4H, F] matrix: stacking would copy every gate weight on
every call, and at full width that copy costs more than the per-gate
matmuls it would merge.

Finiteness needs no per-op scan: the Tensor constructor rejects NaN/Inf in
every op output, including outputs computed from corrupted operands. The
exceptions are fused ops whose intermediates never become Tensors:
lstm_forward scans its gate pre-activations, the attention ops (attention.py)
their relu and sigmoid pre-activations; norm_leaky's rectifier keeps every
NaN and Inf. Fused ops are bit-identical to the compositions of taped
primitives they replaced, which tests/composed.py keeps as their
references, and keep only what their backward reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensor import NonFiniteError, ShapeError, Tensor, _accumulate, _sigmoid, record

LEAKY_SLOPE = 0.2
BN_EPS = 1e-5
BN_MOMENTUM = 0.1

# Most bytes of GEMM columns (or scatter product) a convolution builds at once (see _Grid.blocks).
COL_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class ConvSpec:
    """The stride of one convolution layer; its channel counts and kernel are the weights' axes.

    Every layer pads "same-ceil" (see the module docstring): each output
    extent is ceil(input / stride), whatever the kernel.
    """

    stride: Tuple[int, int] = (1, 1)

    def __post_init__(self):
        if any(s < 1 for s in self.stride) or len(self.stride) != 2:
            raise ShapeError(f"stride extents must be positive pairs, got {self.stride}")

    def out_extents(self, in_h: int, in_w: int) -> Tuple[int, int]:
        return (math.ceil(in_h / self.stride[0]), math.ceil(in_w / self.stride[1]))


def _same_ceil_pad(extent: int, out: int, stride: int, kernel: int) -> Tuple[int, int]:
    """Zeros (before, after) that let out windows at this stride cover extent; the odd one goes after."""
    total = max((out - 1) * stride + kernel - extent, 0)
    lo = total // 2
    return lo, total - lo


_LAYOUTS = {3: "[B,F,T]", 4: "[B,C,H,W]"}


def _batch_first(data: np.ndarray, rank: int, op: str) -> np.ndarray:
    """data, checked to have the op's rank: the batch axis and the _LAYOUTS axes after it."""
    if data.ndim != rank:
        raise ShapeError(f"{op}: expected a {_LAYOUTS[rank]} input, got {data.shape}")
    return data


class _Grid:
    """Phase-grid geometry of one convolution (see the module docstring).

    b, h, w are the batch and extents of the big side (conv2d's input,
    conv_transpose2d's output), ho, wo the small side's, and hq, wq the
    padded big side over the stride, rounded up. Small-side position (i, j)
    of sample n is grid column n*s + i*wq + j, s = hq*wq.
    """

    def __init__(self, kernel: Tuple[int, int], stride: Tuple[int, int], b: int, h: int, w: int):
        (kh, kw), (sh, sw) = kernel, stride
        self.kernel, self.stride, self.b, self.h, self.w = kernel, stride, b, h, w
        self.ho, self.wo = math.ceil(h / sh), math.ceil(w / sw)
        pt, pb = _same_ceil_pad(h, self.ho, sh, kh)
        pl, pr = _same_ceil_pad(w, self.wo, sw, kw)
        self.hq, self.wq = -(-(h + pt + pb) // sh), -(-(w + pl + pr) // sw)
        self.s = self.hq * self.wq
        self.ph, self.pw = min(sh, kh), min(sw, kw)  # phases that hold kernel taps
        self.span = b * self.s + (kw - 1) // sw  # plane length; the tail keeps the last taps in bounds
        # Per phase: its plane (None without taps), the big side's rows and
        # columns in it, and where the first of them sits in the plane.
        self.phases = []
        for p in range(sh):
            for q in range(sw):
                rows, cols = slice((p - pt) % sh, None, sh), slice((q - pl) % sw, None, sw)
                at = (rows.start + pt) // sh * self.wq + (cols.start + pl) // sw
                plane = p * self.pw + q if p < kh and q < kw else None
                self.phases.append((plane, rows, cols, len(range(h)[rows]), len(range(w)[cols]), at))
        # Per tapped phase: its plane and its taps' slices and extents in the kernel.
        self.gathers = [(p * self.pw + q, slice(p, None, sh), slice(q, None, sw),
                         len(range(p, kh, sh)), len(range(q, kw, sw)))
                        for p in range(self.ph) for q in range(self.pw)]
        self.halo = (kh - 1) // sh * self.wq + (kw - 1) // sw  # the farthest tap's offset
        self._blocks = {}

    def planes(self, c: int, dtype) -> np.ndarray:
        """Zeroed planes [ph*pw, c, span] of the tapped phases."""
        return np.zeros((self.ph * self.pw, c, self.span), dtype=dtype)

    def phase_views(self, planes: np.ndarray):
        """(plane view, rows, columns) per phase: the big side's cells [b, C][rows, columns]
        in that phase, viewed [C, b, ., .] on its plane (None for a phase without taps)."""
        c, span = planes.shape[1], planes.shape[2]
        for plane, rows, cols, nr, nc, at in self.phases:
            view = None if plane is None else _strided(planes, plane * c * span + at, (c, self.b, nr, nc),
                                                       (span, self.s, self.wq, 1))
            yield view, rows, cols

    def on_grid(self, a: np.ndarray) -> np.ndarray:
        """A small-side [b, C, ho, wo] operand as grid columns [C, b*s], zero off its positions."""
        out = np.zeros((a.shape[1], self.b, self.hq, self.wq), dtype=a.dtype)
        out[:, :, :self.ho, :self.wo] = a.transpose(1, 0, 2, 3)
        return out.reshape(a.shape[1], -1)

    def blocks(self, col_bytes: int, m: Optional[int] = None) -> List[Tuple[slice, slice, slice]]:
        """(samples, small-side rows, grid columns) blocks of at most COL_BLOCK_BYTES of GEMM columns.

        col_bytes is the size of the GEMM columns of one grid column. Blocks
        hold whole samples while one sample fits, so a batch that fits is a
        single block, else near-equal bands of rows of one sample (at least
        one row each). A block's columns run from its first row to the end of
        its last, the grid's margins in between included.

        m is _gather's GEMM output rows. Below 43 rows, a sample that does
        not fit is cut into bands of m * 48 KiB, at least 256 KiB, that stay
        in L2 (Goto & van de Geijn, TOMS 2008). Such bands are whole units of
        16 // gcd(wq, 16) rows, i.e. multiples of 16 grid columns, which
        OpenBLAS computes bit for bit as in one unblocked GEMM; a unit larger
        than the budget keeps the flat bands. A weight gradient summed over
        these bands rounds otherwise than over 2 MiB ones.
        """
        key = (col_bytes, COL_BLOCK_BYTES, m)
        if key not in self._blocks:
            row = self.wq * col_bytes
            if self.ho * row <= COL_BLOCK_BYTES:
                most = 1 + (COL_BLOCK_BYTES - self.ho * row) // (self.s * col_bytes)
                spans = [(s0, s1, 0, self.ho) for s0, s1 in _bands(self.b, most)]
            else:
                unit = 16 // math.gcd(self.wq, 16)
                budget = max(256 << 10, m * (48 << 10)) if m else COL_BLOCK_BYTES
                if not unit * row <= budget < COL_BLOCK_BYTES:
                    unit, budget = 1, COL_BLOCK_BYTES
                bands = _bands(-(-self.ho // unit), max(1, budget // (unit * row)))
                spans = [(n, n + 1, unit * r0, min(unit * r1, self.ho)) for n in range(self.b) for r0, r1 in bands]
            self._blocks[key] = [(slice(s0, s1), slice(r0, r1), slice(s0 * self.s + r0 * self.wq,
                                                                     (s1 - 1) * self.s + r1 * self.wq))
                                 for s0, s1, r0, r1 in spans]
        return self._blocks[key]

    def crop(self, prod: np.ndarray, samples: slice, rows: slice) -> np.ndarray:
        """View [samples, C, rows, wo] of a block's C-ordered GEMM product [C, columns]."""
        shape = (prod.shape[0], samples.stop - samples.start, rows.stop - rows.start, self.wo)
        return _strided(prod, 0, shape, (prod.shape[1], self.s, self.wq, 1)).transpose(1, 0, 2, 3)


# Built once per geometry: a model meets the same geometries on every call.
_grid = functools.lru_cache(maxsize=256)(_Grid)


def _strided(a: np.ndarray, start: int, shape: Tuple[int, ...], steps: Tuple[int, ...]) -> np.ndarray:
    """View of a C-ordered array from flat element start on, steps in elements.

    The ndarray constructor checks the view against a's buffer and costs
    about a seventh of as_strided.
    """
    it = a.itemsize
    return np.ndarray(shape, a.dtype, a, start * it, [n * it for n in steps])


def _bands(n: int, most: int) -> List[Tuple[int, int]]:
    """[0, n) as ceil(n / most) consecutive near-equal (start, stop) ranges."""
    k = -(-n // most)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _phases(a: np.ndarray, g: _Grid) -> np.ndarray:
    """A big-side [b, C, h, w] array zero-padded onto its phase planes."""
    planes = g.planes(a.shape[1], a.dtype)
    for gv, rows, cols in g.phase_views(planes):
        if gv is not None:
            gv[...] = a[:, :, rows, cols].transpose(1, 0, 2, 3)
    return planes


def _from_phases(planes: np.ndarray, g: _Grid, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """The big-side [b, C, h, w] array cropped from its phase planes, plus a per-channel bias.

    Cells in phases without taps are zero (plus the bias). Without a bias,
    the crop of a single plane is a view of it.
    """
    views = list(g.phase_views(planes))
    if bias is None and len(views) == 1:
        return views[0][0].transpose(1, 0, 2, 3)
    out = np.empty((g.b, planes.shape[1], g.h, g.w), dtype=planes.dtype)
    for gv, rows, cols in views:
        out[:, :, rows, cols] = 0 if gv is None else gv.transpose(1, 0, 2, 3)
    if bias is not None:
        out += bias[:, None, None]  # contiguous: a strided copy plus this beats one strided add
    return out


def _columns(planes: np.ndarray, g: _Grid, cols: slice, flip: bool = False) -> np.ndarray:
    """im2col: GEMM columns [C*kh*kw, n] of the n grid columns `cols`, one strided copy per phase.

    Row (c, u, v) is the contiguous run of plane (u % sh, v % sw), channel
    c, that starts (u // sh)*wq + v // sw past the first column. flip
    reverses the kernel taps.
    """
    kh, kw = g.kernel
    c, span, n = planes.shape[1], planes.shape[2], cols.stop - cols.start
    out = np.empty((c, kh, kw, n), dtype=planes.dtype)
    taps = out[:, ::-1, ::-1] if flip else out
    for plane, us, vs, nu, nv in g.gathers:
        taps[:, us, vs] = _strided(planes, plane * c * span + cols.start, (c, nu, nv, n), (span, g.wq, 1, 1))
    return out.reshape(c * kh * kw, n)


def _col2im(mat: np.ndarray, src: np.ndarray, g: _Grid, flip: bool = False) -> np.ndarray:
    """col2im(mat @ src): phase planes [ph*pw, C, span] for grid columns src [., b*s], block by block.

    The adjoint of _columns (same flip). Each block's product lands in rows
    [halo | product | halo], halo being the farthest tap's offset, where a
    phase's taps of its cells are a strided view (steps negated for flip).
    The halos are zeros, except that the left one holds the last product
    columns of a block before that ends where this one starts, and that
    block stops there: every cell sums all its taps at once, from +0.0 in
    kernel order. numpy's reduction keeps that order only while its inner
    loop is the unit-stride cell axis (a lone cell's taps it sums pairwise),
    and its short rows cost more, so a phase with no more cells per channel
    than channels adds its taps one by one. Grid columns between blocks
    add nothing, src being zero off the small side (as on_grid places it).
    """
    (kh, kw), (sh, sw), halo = g.kernel, g.stride, g.halo
    c, dtype = mat.shape[0] // (kh * kw), np.result_type(mat, src)
    planes = np.empty((g.ph * g.pw, c, g.span), dtype=dtype)  # every cell is some block's
    blocks = [cols for _, _, cols in g.blocks(mat.shape[0] * planes.itemsize)]
    buf = np.zeros((mat.shape[0], max(cols.stop - cols.start for cols in blocks) + 2 * halo), dtype=dtype)
    row, sign = buf.shape[1], -1 if flip else 1
    for k, cols in enumerate(blocks):
        n = cols.stop - cols.start
        joined = k + 1 < len(blocks) and blocks[k + 1].start == cols.stop
        m = n if joined else n + halo  # the cells this block sums
        if k:  # the block before wrote into the halos
            buf[:, :halo] = buf[:, last:last + halo] if blocks[k - 1].stop == cols.start else 0
            buf[:, halo + n:halo + m] = 0
        np.matmul(mat, src[:, cols], out=buf[:, halo:halo + n])
        for plane, us, vs, nu, nv in g.gathers:
            first = (kh - 1 - us.start) * kw + kw - 1 - vs.start if flip else us.start * kw + vs.start
            taps = _strided(buf, first * row + halo, (c, nu, nv, m),
                            (kh * kw * row, sign * sh * kw * row - g.wq, sign * sw * row - 1, 1))
            out = planes[plane, :, cols.start:cols.start + m]
            if m > c:
                np.add.reduce(taps, axis=(1, 2), out=out, initial=0.0)
            else:
                out[...] = 0.0
                for i in range(nu):
                    for j in range(nv):
                        out += taps[:, i, j]
        last = n
    return planes


def _scatter(mat: np.ndarray, src: np.ndarray, g: _Grid, flip: bool = False,
             bias: Optional[np.ndarray] = None) -> np.ndarray:
    """The big-side [b, C, h, w] crop of col2im(mat @ src), plus a per-channel bias."""
    return _from_phases(_col2im(mat, src, g, flip), g, bias)


def _gather(mat: Optional[np.ndarray], planes: np.ndarray, g: _Grid, flip: bool = False,
            bias: Optional[np.ndarray] = None,
            small: Optional[np.ndarray] = None) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """One im2col pass over the big side's planes, block by block: (out, gw).

    out is mat @ columns plus a per-channel bias, cropped to the small side
    [b, ., ho, wo]; gw is small @ columns.T summed over blocks, small being
    grid columns [., b*s]. Each is None when its operand is. A block with
    many more columns than rows takes gw's part as a transposed product:
    OpenBLAS reduces the column axis about twice as fast that way, a gain
    a short block loses to the later copy of the transposed part.
    """
    out = total = None
    m = (mat if mat is not None else small).shape[0]
    blocks = g.blocks(planes.shape[1] * math.prod(g.kernel) * planes.itemsize, m)
    if mat is not None:
        out = np.empty((g.b, mat.shape[0], g.ho, g.wo), dtype=np.result_type(mat, planes))
    for samples, rows, cols in blocks:
        columns = _columns(planes, g, cols, flip)
        if mat is not None:
            prod = mat @ columns
            if bias is not None:
                prod += bias[:, None]  # on the contiguous product: the strided crop is then a plain copy
            out[samples, :, rows] = g.crop(prod, samples, rows)
        if small is not None:
            sc = small[:, cols]
            part = (columns @ sc.T).T if columns.shape[1] > columns.shape[0] else sc @ columns.T
            total = part if total is None else np.add(total, part, out=total)
        del columns  # freed before the next block's are built: one block of columns at a time
    return out, total


def _conv_checks(op: str, xd: np.ndarray, wd: np.ndarray, bd: np.ndarray, out_axis: int) -> None:
    """Check an input, weights and bias against each other; out_axis is the weights' C_out axis."""
    if wd.ndim != 4:
        layout = "[C_out,C_in,kh,kw]" if out_axis == 0 else "[C_in,C_out,kh,kw]"
        raise ShapeError(f"{op}: weights must be {layout}, got {wd.shape}")
    if xd.shape[1] != wd.shape[1 - out_axis]:
        raise ShapeError(f"{op}: input channel axis is {xd.shape[1]}, weights expect {wd.shape[1 - out_axis]}")
    if bd.shape != (wd.shape[out_axis],):
        raise ShapeError(f"{op}: bias must be [{wd.shape[out_axis]}], got {bd.shape}")


def _fold_batch(a: np.ndarray) -> np.ndarray:
    """[B,C,H,W] -> [C, B*H*W]: the batch joins the GEMM columns (a view at B=1)."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


def _pointwise(op: str, xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """A 1x1 stride-1 conv's C-ordered [B, C_out, H, W] output for a checked [B, C_in, H, W]
    array: _dense_data over its pixels (a fresh array at batch 1). Other kernels are refused."""
    _conv_checks(op, xd, wd, bd, out_axis=0)
    if wd.shape[2:] != (1, 1):
        raise ShapeError(f"{op}: pointwise weights must be [C_out,C_in,1,1], got {wd.shape}")
    rows = _dense_data(op, _fold_batch(xd).T, wd.reshape(wd.shape[:2]), bd)
    return np.ascontiguousarray(rows.T.reshape(-1, xd.shape[0], *xd.shape[2:]).swapaxes(0, 1))


def _pointwise_grads(gr: np.ndarray, xd: np.ndarray, weights: Tensor, bias: Tensor) -> np.ndarray:
    """_pointwise's backward for gr: accumulates the weight and bias gradients, returns x's map."""
    gx = _dense_grads(_fold_batch(gr).T, _fold_batch(xd).T, weights, bias)
    return gx.T.reshape(-1, xd.shape[0], *xd.shape[2:]).swapaxes(0, 1)


def conv2d(x: Tensor, weights: Tensor, bias: Tensor, spec: ConvSpec) -> Tensor:
    """Strided cross-correlation with fused bias.

    x: [B, C_in, H, W]; weights: [C_out, C_in, kh, kw]; bias: [C_out];
    spec: the stride. Output spatial extents are ceil(extent / stride).
    """
    xd, wd = _batch_first(x.data, 4, "conv2d"), weights.data
    if wd.shape[2:] == spec.stride == (1, 1):
        out = _pointwise("conv2d", xd, wd, bias.data)

        def backward(gr: np.ndarray) -> None:
            _accumulate(x, _pointwise_grads(gr, xd, weights, bias))
    else:
        _conv_checks("conv2d", xd, wd, bias.data, out_axis=0)
        g = _grid(wd.shape[2:], spec.stride, xd.shape[0], *xd.shape[2:])
        wmat = wd.reshape(wd.shape[0], -1)  # [C_out, C_in*kh*kw]
        out = _gather(wmat, _phases(xd, g), g, bias=bias.data)[0]

        def backward(gr: np.ndarray) -> None:
            gm = g.on_grid(gr)
            if weights.requires_grad:
                _accumulate(weights, _gather(None, _phases(xd, g), g, small=gm)[1].reshape(wd.shape))
            if bias.requires_grad:
                _accumulate(bias, gm.sum(axis=1))  # zero off the output positions
            if x.requires_grad:
                _accumulate(x, _scatter(wmat.T, gm, g))

    return record(Tensor(out), (x, weights, bias), backward)


def conv_transpose2d(x: Tensor, weights: Tensor, bias: Tensor, spec: ConvSpec,
                     out_hw: Tuple[int, int]) -> Tensor:
    """Transposed convolution: the adjoint of conv2d's input map, plus bias.

    x: [B, C_in, H, W]; weights: [C_in, C_out, kh, kw]; bias: [C_out];
    spec: the stride. out_hw names the target extent explicitly and must
    satisfy ceil(out / stride) == in for both axes, i.e. the extent a
    forward conv2d with the same stride would have shrunk to this input.

    Applying this op to an upstream gradient with spatially flipped forward
    kernels reproduces conv2d's input gradient exactly.
    """
    xd, wd = _batch_first(x.data, 4, "conv_transpose2d"), weights.data
    _conv_checks("conv_transpose2d", xd, wd, bias.data, out_axis=1)
    if spec.out_extents(*out_hw) != xd.shape[2:]:
        raise ShapeError(
            f"conv_transpose2d: target extent {out_hw} with stride {spec.stride} "
            f"does not contract to the input extent {xd.shape[2:]}")

    g = _grid(wd.shape[2:], spec.stride, xd.shape[0], *out_hw)
    wmat = wd.reshape(xd.shape[1], -1)  # [C_in, C_out*kh*kw]; the flip lives in the column order
    result = Tensor(_scatter(wmat.T, g.on_grid(xd), g, flip=True, bias=bias.data))

    def backward(gb: np.ndarray) -> None:
        if x.requires_grad or weights.requires_grad:
            gx, gw = _gather(wmat if x.requires_grad else None, _phases(gb, g), g, flip=True,
                             small=g.on_grid(xd) if weights.requires_grad else None)
            if gx is not None:
                _accumulate(x, gx)
            if gw is not None:
                _accumulate(weights, gw.reshape(wd.shape))
        if bias.requires_grad:
            _accumulate(bias, gb.sum(axis=(0, 2, 3)))

    return record(result, (x, weights, bias), backward)


def maxpool2d(x: Tensor, window: Tuple[int, int]) -> Tensor:
    """Non-overlapping max pooling by a window that tiles the input; window doubles as the stride.

    The forward is a running maximum over the window taps; the argmax is
    found only in backward, where ties route the gradient to the first
    window element in reading order.
    """
    wh, ww = window
    if wh < 1 or ww < 1:
        raise ShapeError(f"maxpool2d: window extents must be positive, got {window}")
    xd = _batch_first(x.data, 4, "maxpool2d")
    if xd.shape[2] % wh or xd.shape[3] % ww:
        raise ShapeError(f"maxpool2d: window {window} does not tile the input extents {xd.shape[2:]}")
    out = xd[:, :, ::wh, ::ww].copy()
    for u in range(wh):
        for v in range(ww):
            if u or v:
                np.maximum(xd[:, :, u::wh, v::ww], out, out=out)  # ties keep the earlier tap
    result = Tensor(out)

    def backward(g: np.ndarray) -> None:
        gx = np.zeros_like(xd)
        hit = xd[:, :, ::wh, ::ww] == out
        pending = ~hit  # windows whose argmax is not yet found
        np.copyto(gx[:, :, ::wh, ::ww], g, where=hit)
        for u in range(wh):
            for v in range(ww):
                if u or v:
                    np.equal(xd[:, :, u::wh, v::ww], out, out=hit)
                    hit &= pending
                    pending ^= hit
                    np.copyto(gx[:, :, u::wh, v::ww], g, where=hit)
        _accumulate(x, gx)

    return record(result, (x,), backward)


@dataclass
class BatchNormState:
    """Running per-channel statistics, updated in train mode only."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def initial(cls, channels: int, dtype=np.float32) -> "BatchNormState":
        return cls(mean=np.zeros(channels, dtype=dtype), var=np.ones(channels, dtype=dtype))


def _batch_stats(xd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-channel float64 mean and biased variance of a [B, C, H, W] array.

    numpy's mean and var steps with the mean taken once: one float64 sum
    with kept dims over batch and space, divided by the count, then the
    squared deviations summed and divided. Bit-identical to
    ``xd.mean(axis=(0, 2, 3), dtype=np.float64)`` and ``xd.var(...)``.
    """
    axes = (0, 2, 3)
    n = xd.shape[0] * xd.shape[2] * xd.shape[3]
    mean = np.add.reduce(xd, axis=axes, dtype=np.float64, keepdims=True)
    np.true_divide(mean, n, out=mean)
    dev = xd - mean
    np.square(dev, out=dev)
    var = np.add.reduce(dev, axis=axes, dtype=np.float64)
    np.true_divide(var, n, out=var)
    return mean.reshape(-1), var


def norm_leaky(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """Per-channel batch normalization, then leaky relu (max(y, 0.2 y)), as one taped op.

    Batch norm normalizes over the batch and spatial axes (Ioffe & Szegedy,
    ICML 2015). Train mode uses the biased batch statistics (_batch_stats)
    and folds them into the running state (new = 0.9 * old + 0.1 * batch);
    eval mode reads a copy of the running state and treats it as constant,
    so it normalizes as one scale and shift, x * s + t with
    s = gamma / sqrt(var + eps) and t = beta - s * mean: gamma * x-hat + beta
    up to rounding, bit for bit where gamma = 1 and mean = 0 (as init_params
    leaves every layer). The op keeps its output, whose sign (the
    pre-activation's) routes the gradient as max(sign(y), 0.2), and
    recomputes x-hat for batch norm's backward. That backward's per-channel
    dot of the gradient and x-hat is the one stacked matmul that
    ``np.einsum("bchw,bchw->c", optimize=True)`` plans and runs; at one
    element per channel einsum multiplies, keeping a zero product's sign,
    and so does this.
    """
    if mode not in ("train", "eval"):
        raise ShapeError(f"norm_leaky: mode must be 'train' or 'eval', got {mode!r}")
    xd = _batch_first(x.data, 4, "norm_leaky")
    c = xd.shape[1]
    if gamma.dims != (c,) or beta.dims != (c,):
        raise ShapeError(f"norm_leaky: gamma/beta must be [{c}], got {gamma.dims} and {beta.dims}")
    if state.mean.shape != (c,) or state.var.shape != (c,):
        raise ShapeError(f"norm_leaky: state holds {state.mean.shape}, input has {c} channels")
    if mode == "train":
        mu, var = _batch_stats(xd)
        mu = mu.astype(xd.dtype)
        var = var.astype(xd.dtype)
        state.mean[...] = (1.0 - BN_MOMENTUM) * state.mean + BN_MOMENTUM * mu
        state.var[...] = (1.0 - BN_MOMENTUM) * state.var + BN_MOMENTUM * var
    else:
        mu = state.mean.astype(xd.dtype)  # a copy: backward keeps this forward's mean, whatever updates the state
        var = state.var.astype(xd.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    if mode == "train":
        # one expression, so numpy reuses the x-hat temporary for both later steps
        y = (gamma.data[None, :, None, None] * ((xd - mu[None, :, None, None]) * inv[None, :, None, None])
             + beta.data[None, :, None, None])
    else:  # a fixed per-channel affine map: x * s + t
        s = gamma.data * inv
        y = xd * s[None, :, None, None]
        y += (beta.data - s * mu)[None, :, None, None]
    out = np.maximum(y, y * y.dtype.type(LEAKY_SLOPE))

    def backward(g: np.ndarray) -> None:
        gb = g * np.maximum(np.sign(out), LEAKY_SLOPE)
        xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
        n = gb.size // c
        g_xhat = (gb * xhat).reshape(c) if n == 1 else np.matmul(
            gb.transpose(1, 0, 2, 3).reshape(c, 1, n), xhat.transpose(1, 0, 2, 3).reshape(c, n, 1)).reshape(c)
        g_sum = np.add.reduce(gb, axis=(0, 2, 3))
        if gamma.requires_grad:
            _accumulate(gamma, g_xhat)
        if beta.requires_grad:
            _accumulate(beta, g_sum)
        if x.requires_grad:
            scale = (gamma.data * inv)[None, :, None, None]
            if mode == "train":
                gx = scale * (gb - (g_sum / n)[None, :, None, None] - xhat * (g_xhat / n)[None, :, None, None])
            else:
                gx = scale * gb
            _accumulate(x, gx)

    return record(Tensor(out), (x, gamma, beta), backward)


def _dense_data(op: str, xd: np.ndarray, wd: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """x W^T + b for a checked [B, F] array and [O, F] weights."""
    if wd.ndim != 2:
        raise ShapeError(f"{op}: weights must be [out,in], got {wd.shape}")
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError(f"{op}: input feature axis is {xd.shape[1]}, weights expect {wd.shape[1]}")
    if bd.shape != (wd.shape[0],):
        raise ShapeError(f"{op}: bias must be [{wd.shape[0]}], got {bd.shape}")
    out = (wd @ xd.T).T  # weights on the left: OpenBLAS is about 2x slower with a small batch as M
    return np.add(out, bd, out=out)


def _dense_grads(g: np.ndarray, xd: np.ndarray, weights: Tensor, bias: Tensor) -> np.ndarray:
    """A dense map's backward for g: accumulates the weight and bias gradients, returns x's.

    g and xd are [N, O] and [N, F] rows: a batch, or a 1x1 conv's pixels (its
    weights' unit axes read as [O, F]). Both products are taken transposed, as
    _dense_data's is: OpenBLAS sums many pixels up to 3x faster as (xd^T g)^T
    than as g^T xd, and x's gradient comes back channel-major, like x's map.
    """
    if weights.requires_grad:
        _accumulate(weights, (xd.T @ g).T.reshape(weights.dims))
    if bias.requires_grad:
        _accumulate(bias, g.sum(axis=0))
    return (weights.data.reshape(g.shape[1], xd.shape[1]).T @ g.T).T


def concat_channels(xs: Sequence[Tensor]) -> Tensor:
    """Concatenate [B, C_k, H, W] maps along the channel axis; batch and spatial extents must agree."""
    if not xs:
        raise ShapeError("concat_channels needs at least one tensor")
    first = xs[0]
    for t in xs:
        _batch_first(t.data, 4, "concat_channels")
        if t.dims[2:] != first.dims[2:]:
            raise ShapeError(f"concat_channels: spatial axes differ, {first.dims} vs {t.dims}")
        if t.dims[0] != first.dims[0]:
            raise ShapeError(f"concat_channels: batch axis differs, {first.dims} vs {t.dims}")
    out = Tensor(np.concatenate([t.data for t in xs], axis=1))

    def backward(g: np.ndarray) -> None:
        start = 0
        for t in xs:
            _accumulate(t, g[:, start:start + t.dims[1]])
            start += t.dims[1]

    return record(out, tuple(xs), backward)


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


def lstm_forward(seq: Tensor, params: LstmLayerParams) -> Tensor:
    """Run one LSTM layer over a features-first [B, F, T] sequence as one taped op.

    Returns the hidden states for every step, [B, H, T], from zero initial
    hidden and cell states; the op works on step-major views of its input
    and output. Each gate's input projection plus bias is one _dense_data
    over all B*T rows before the time loop; each step then adds one
    ``wh @ h`` per gate. The backward pass is backpropagation through time
    written out by hand: its only per-step matmuls are the four ``dz @ wh``;
    then per gate one _dense_grads over all steps (wx, bias, input) and one GEMM (wh).

    The four gates keep their own weight tensors, so parameter names,
    shapes and checkpoints are those of the per-gate layout. They are not
    stacked into one [4H, F] / [4H, H] matrix per call: at full width
    (H = F = 1024, float32, 2-core OpenBLAS box) copying the four 4 MB gate
    matrices into one takes about 2 ms, while one gate's [1024, 1024] gemv
    takes 0.07-0.14 ms. A non-finite gate pre-activation raises
    NonFiniteError.
    """
    xd = _batch_first(seq.data, 3, "lstm_forward")
    hidden = params.hidden_size
    feat = params.feature_size
    if xd.shape[1] != feat:
        raise ShapeError(f"lstm_forward: feature axis is {xd.shape[1]}, gates expect {feat}")
    for name, gate in params.gates():
        if gate.wx.dims != (hidden, feat) or gate.wh.dims != (hidden, hidden) or gate.bias.dims != (hidden,):
            raise ShapeError(f"lstm_forward: {name} gate shapes are inconsistent")

    # The three sigmoid gates first, so one call activates them together.
    gates = (params.input_gate, params.forget_gate, params.output_gate, params.cell_gate)
    tensors = tuple(t for gate in gates for t in (gate.wx, gate.wh, gate.bias))
    b, _, steps = xd.shape
    xs = xd.transpose(0, 2, 1).reshape(b * steps, feat)
    dtype = np.result_type(xd, *(t.data for t in tensors))

    z = np.empty((4, b, steps, hidden), dtype=dtype)  # pre-activations, gate-major
    for k, gate in enumerate(gates):
        z[k] = _dense_data("lstm_forward", xs, gate.wx.data, gate.bias.data).reshape(b, steps, hidden)
    act = np.empty_like(z)  # i, f, o, g
    cell = np.empty((b, steps, hidden), dtype=dtype)
    tanh_c = np.empty_like(cell)
    out = np.empty_like(cell)
    c = np.zeros((b, hidden), dtype=dtype)
    for t in range(steps):
        zt, at = z[:, :, t], act[:, :, t]
        if t:  # h is zero at t = 0
            for k, gate in enumerate(gates):
                zt[k] += (gate.wh.data @ out[:, t - 1].T).T
        at[:3] = _sigmoid(zt[:3])
        np.tanh(zt[3], out=at[3])
        i, f, o, g = at
        c = f * c + i * g
        cell[:, t] = c
        np.tanh(c, out=tanh_c[:, t])
        np.multiply(o, tanh_c[:, t], out=out[:, t])
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("lstm_forward: a gate pre-activation is NaN or Inf")
    result = Tensor(out.transpose(0, 2, 1))

    def backward(gh: np.ndarray) -> None:
        gh = gh.transpose(0, 2, 1)
        dz = np.empty_like(act)
        for t in range(steps - 1, -1, -1):
            i, f, o, g = act[:, :, t]
            tc = tanh_c[:, t]
            dzt = dz[:, :, t]
            dh = gh[:, t] if t == steps - 1 else gh[:, t] + dh_next
            dc = dh * o * (1.0 - tc * tc)
            if t < steps - 1:
                dc += dc_next
            np.multiply(dc, g, out=dzt[0])
            if t:
                np.multiply(dc, cell[:, t - 1], out=dzt[1])
            else:
                dzt[1] = 0.0
            np.multiply(dh, tc, out=dzt[2])
            sig = act[:3, :, t]
            dzt[:3] *= sig
            dzt[:3] *= 1.0 - sig
            np.multiply(dc * i, 1.0 - g * g, out=dzt[3])
            dc_next = dc * f
            if t:
                dh_next = dzt[0] @ gates[0].wh.data
                for k in range(1, 4):
                    dh_next += dzt[k] @ gates[k].wh.data

        dzs = dz.reshape(4, b * steps, hidden)
        h_prev = np.zeros_like(out)
        h_prev[:, 1:] = out[:, :-1]
        hs = h_prev.reshape(b * steps, hidden)
        gx = None
        for k, gate in enumerate(gates):
            part = _dense_grads(dzs[k], xs, gate.wx, gate.bias)
            gx = part if gx is None else np.add(gx, part, out=gx)
            if gate.wh.requires_grad:
                _accumulate(gate.wh, dzs[k].T @ hs)
        _accumulate(seq, gx.reshape(b, steps, feat).transpose(0, 2, 1))

    return record(result, (seq,) + tensors, backward)
