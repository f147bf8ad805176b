"""conv2d / conv_transpose2d (phase-grid im2col + GEMM) and maxpool2d against naive loop references.

The references pad by the documented same-ceil rule, walk every output
position and kernel tap, and contract only the channel axes, all in float64.
Forward values and all three gradients must agree to 1e-10.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mffcn import ops
from mffcn.ops import (ConvSpec, _col2im, _columns, _from_phases, _Grid, _phases, _scatter, conv2d,
                       conv_transpose2d, maxpool2d)
from mffcn.tensor import Tape, Tensor, no_grad

KERNELS = [(1, 1), (3, 2), (5, 5)]
STRIDES = [(1, 1), (2, 1), (2, 2)]
BATCHES = [1, 3, 4]             # by two-sample blocks, 3 splits 1 + 2 and 4 splits 2 + 2
HW = (8, 7)                     # odd totals: (3,2) and (5,5) pad asymmetrically
C_IN, C_OUT = 3, 2
ATOL = 1e-10


def _pads(extent, stride, kernel):
    out = math.ceil(extent / stride)
    total = max((out - 1) * stride + kernel - extent, 0)
    return total // 2, total - total // 2


def _padded_geometry(hw, kernel, stride):
    (pt, pb), (pl, pr) = (_pads(hw[i], stride[i], kernel[i]) for i in range(2))
    out = tuple(math.ceil(hw[i] / stride[i]) for i in range(2))
    return (pt, pb, pl, pr), out


def _taps(out_hw, kernel, stride):
    for i in range(out_hw[0]):
        for j in range(out_hw[1]):
            for u in range(kernel[0]):
                for v in range(kernel[1]):
                    yield i, j, u, v, i * stride[0] + u, j * stride[1] + v


def ref_conv2d(x, w, b, g, kernel, stride):
    """Forward and (gx, gw, gb) for upstream g; x [B,S,H,W], w [D,S,kh,kw]."""
    hw = x.shape[2:]
    (pt, pb, pl, pr), out_hw = _padded_geometry(hw, kernel, stride)
    xp = np.pad(x, [(0, 0), (0, 0), (pt, pb), (pl, pr)])
    y = np.zeros((x.shape[0], w.shape[0]) + out_hw)
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i, j, u, v, r, c in _taps(out_hw, kernel, stride):
        y[:, :, i, j] += xp[:, :, r, c] @ w[:, :, u, v].T
        gxp[:, :, r, c] += g[:, :, i, j] @ w[:, :, u, v]
        gw[:, :, u, v] += g[:, :, i, j].T @ xp[:, :, r, c]
    y += b[None, :, None, None]
    gx = gxp[:, :, pt:pt + hw[0], pl:pl + hw[1]]
    return y, gx, gw, g.sum(axis=(0, 2, 3))


def ref_conv_transpose2d(x, w, b, g, kernel, stride, out_hw):
    """Forward and (gx, gw, gb); x [B,S,Ho,Wo], w [S,D,kh,kw] applied flipped."""
    (pt, pb, pl, pr), in_hw = _padded_geometry(out_hw, kernel, stride)
    assert in_hw == x.shape[2:]
    wf = w[:, :, ::-1, ::-1]
    full = (x.shape[0], w.shape[1], out_hw[0] + pt + pb, out_hw[1] + pl + pr)
    yp = np.zeros(full)
    gp = np.pad(g, [(0, 0), (0, 0), (pt, pb), (pl, pr)])
    gx = np.zeros_like(x)
    gwf = np.zeros_like(w)
    for i, j, u, v, r, c in _taps(in_hw, kernel, stride):
        yp[:, :, r, c] += x[:, :, i, j] @ wf[:, :, u, v]
        gx[:, :, i, j] += gp[:, :, r, c] @ wf[:, :, u, v].T
        gwf[:, :, u, v] += x[:, :, i, j].T @ gp[:, :, r, c]
    y = yp[:, :, pt:pt + out_hw[0], pl:pl + out_hw[1]] + b[None, :, None, None]
    return y, gx, gwf[:, :, ::-1, ::-1], g.sum(axis=(0, 2, 3))


def _run(op, x, w, b, g):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        y = op(xt, wt, bt)
        tape.backward((y * Tensor(g)).sum())
    return y.data, xt.grad, wt.grad, bt.grad


def _assert_close(got, want):
    names = ("forward", "input grad", "weight grad", "bias grad")
    for name, gv, wv in zip(names, got, want):
        assert gv.shape == wv.shape, name
        np.testing.assert_allclose(gv, wv, rtol=0, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_conv2d_matches_loop_reference(kernel, stride, batch):
    rng = np.random.default_rng([*kernel, *stride, batch])
    spec = ConvSpec(stride)
    x = rng.normal(size=(batch, C_IN) + HW)
    w = rng.normal(size=(C_OUT, C_IN) + kernel)
    b = rng.normal(size=C_OUT)
    g = rng.normal(size=(batch, C_OUT) + spec.out_extents(*HW))
    got = _run(lambda xt, wt, bt: conv2d(xt, wt, bt, spec), x, w, b, g)
    want = ref_conv2d(x, w, b, g, kernel, stride)
    _assert_close(got, want)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_conv_transpose2d_matches_loop_reference(kernel, stride, batch):
    rng = np.random.default_rng([*kernel, *stride, batch, 1])
    spec = ConvSpec(stride)
    x = rng.normal(size=(batch, C_IN) + spec.out_extents(*HW))
    w = rng.normal(size=(C_IN, C_OUT) + kernel)
    b = rng.normal(size=C_OUT)
    g = rng.normal(size=(batch, C_OUT) + HW)
    got = _run(lambda xt, wt, bt: conv_transpose2d(xt, wt, bt, spec, HW), x, w, b, g)
    want = ref_conv_transpose2d(x, w, b, g, kernel, stride, HW)
    _assert_close(got, want)


def test_grid_exercises_asymmetric_padding():
    odd = [(k, s) for k in KERNELS for s in STRIDES
           if any(lo != hi for lo, hi in (_pads(HW[i], s[i], k[i]) for i in range(2)))]
    assert len(odd) >= 4


# Model geometries the grid above lacks: a 2x2 kernel at stride (1, 5) leaves
# three of five column phases without taps (and, over one column, without
# input cells); at stride (2, 1) the 5-row map pads one row at the bottom.
MODEL_GEOMETRIES = [((2, 2), (1, 5), (5, 1)), ((2, 2), (1, 5), (5, 5)), ((2, 2), (2, 1), (5, 1))]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("kernel, stride, hw", MODEL_GEOMETRIES)
def test_model_geometries_match_loop_reference(kernel, stride, hw, transpose, batch):
    rng = np.random.default_rng([*kernel, *stride, *hw, transpose, batch, 7])
    spec = ConvSpec(stride)
    small = spec.out_extents(*hw)
    b = rng.normal(size=C_OUT)
    if transpose:
        x = rng.normal(size=(batch, C_IN) + small)
        w = rng.normal(size=(C_IN, C_OUT) + kernel)
        g = rng.normal(size=(batch, C_OUT) + hw)
        got = _run(lambda xt, wt, bt: conv_transpose2d(xt, wt, bt, spec, hw), x, w, b, g)
        want = ref_conv_transpose2d(x, w, b, g, kernel, stride, hw)
    else:
        x = rng.normal(size=(batch, C_IN) + hw)
        w = rng.normal(size=(C_OUT, C_IN) + kernel)
        g = rng.normal(size=(batch, C_OUT) + small)
        got = _run(lambda xt, wt, bt: conv2d(xt, wt, bt, spec), x, w, b, g)
        want = ref_conv2d(x, w, b, g, kernel, stride)
    _assert_close(got, want)


def _fold(a):
    """[B,C,H,W] -> [C, B*H*W]."""
    return a.transpose(1, 0, 2, 3).reshape(a.shape[1], -1)


@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in, c_out, hw", [(3, 4, (5, 4)), (24, 16, (2, 3))], ids=["N>C", "N<C"])
def test_pointwise_conv2d_is_a_dense_map_bitwise(c_in, c_out, hw, dtype, batch):
    """A 1x1 stride-1 conv2d on the folded maps X [C_in, N] and G [C_out, N], N = B*H*W:
    forward W @ X + b, weight gradient (X @ G.T).T, bias gradient G summed over N and
    input gradient W.T @ G, each viewed back to its [B, C, H, W] or weight shape, byte for byte."""
    rng = np.random.default_rng([c_in, c_out, batch, np.dtype(dtype).itemsize])
    x = rng.normal(size=(batch, c_in) + hw).astype(dtype)
    w = rng.normal(size=(c_out, c_in, 1, 1)).astype(dtype)
    b = rng.normal(size=c_out).astype(dtype)
    g = rng.normal(size=(batch, c_out) + hw).astype(dtype)
    y, gx, gw, gb = _run(lambda xt, wt, bt: conv2d(xt, wt, bt, ConvSpec()), x, w, b, g)
    X, G, W = _fold(x), _fold(g), w.reshape(c_out, c_in)

    def unfold(a):
        return np.ascontiguousarray(a.reshape(-1, batch, *hw).transpose(1, 0, 2, 3))

    assert y.tobytes() == unfold(W @ X + b[:, None]).tobytes()
    assert gw.tobytes() == np.ascontiguousarray((X @ G.T).T).reshape(w.shape).tobytes()
    assert gb.tobytes() == G.sum(axis=1).tobytes()
    assert gx.tobytes() == unfold(W.T @ G).tobytes()
    xt, wt, bt = Tensor(x), Tensor(w), Tensor(b)
    with no_grad():
        out = conv2d(xt, wt, bt, ConvSpec()).data
    assert out.flags.c_contiguous and out.dtype == dtype
    assert not any(np.shares_memory(out, t.data) for t in (xt, wt, bt))


def test_no_pointwise_geometry_reaches_the_grid(monkeypatch):
    """One d=16 multilayer train step lowers only its spatial convolutions onto a phase grid."""
    from mffcn.model import FusionStrategy, init_params, mffcn_forward

    params = init_params(0, FusionStrategy.MULTILAYER, 16)
    kernels = [t.dims[2:] for _, t in params.named if t.data.ndim == 4]
    spatial = sum(k != (1, 1) for k in kernels)
    assert 0 < spatial < len(kernels)
    seen, grid = [], ops._grid

    def spy(kernel, stride, b, h, w):
        seen.append((tuple(kernel), tuple(stride)))
        return grid(kernel, stride, b, h, w)

    monkeypatch.setattr(ops, "_grid", spy)
    rng = np.random.default_rng(8)
    y = Tensor(rng.normal(size=(2, 1, 80, 20)).astype(np.float32))
    v = Tensor(rng.uniform(size=(2, 5, 80, 80)).astype(np.float32))
    with Tape() as tape:
        tape.backward(mffcn_forward(y, v, params, mode="train").sum())
    assert ((1, 1), (1, 1)) not in seen
    assert len(seen) == spatial


def _whole_grid(g):
    """The grid columns of a one-block lowering: every column any block reads."""
    return slice(0, (g.b - 1) * g.s + g.ho * g.wq)


def _identity_product(c, g):
    """(mat, src) whose product is the one-block columns c, on grid columns [., b*s]."""
    src = np.zeros((c.shape[0], g.b * g.s))
    src[:, :c.shape[1]] = c
    return np.eye(c.shape[0]), src


ADJOINT_GEOMETRIES = [(k, s, HW) for k in KERNELS for s in STRIDES] + MODEL_GEOMETRIES


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("kernel, stride, hw", ADJOINT_GEOMETRIES)
def test_col2im_is_the_adjoint_of_im2col(kernel, stride, hw, flip):
    """As the ops compose them: x -> phase planes -> columns, and back -> cropped x."""
    rng = np.random.default_rng([*kernel, *stride, *hw, flip])
    g = _Grid(kernel, stride, 2, *hw)
    x = rng.normal(size=(2, C_IN) + hw)
    cols = _columns(_phases(x, g), g, _whole_grid(g), flip=flip)
    assert cols.shape == (C_IN * kernel[0] * kernel[1], g.s + g.ho * g.wq)
    c = rng.normal(size=cols.shape)
    planes = _col2im(*_identity_product(c, g), g, flip=flip)
    np.testing.assert_allclose(np.vdot(c, cols), np.vdot(_from_phases(planes, g), x), rtol=1e-12)


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("kernel, stride, hw", ADJOINT_GEOMETRIES)
def test_im2col_col2im_adjoint_over_whole_grid(kernel, stride, hw, flip):
    """Between arbitrary phase planes (padding, margins and tail included) and columns."""
    rng = np.random.default_rng([*kernel, *stride, *hw, flip, 8])
    g = _Grid(kernel, stride, 3, *hw)
    planes = rng.normal(size=g.planes(C_IN, np.float64).shape)
    cols = _columns(planes, g, _whole_grid(g), flip=flip)
    c = rng.normal(size=cols.shape)
    back = _col2im(*_identity_product(c, g), g, flip=flip)
    assert back.shape == planes.shape
    np.testing.assert_allclose(np.vdot(c, cols), np.vdot(back, planes), rtol=1e-12)


def add_columns(cols, planes, g, start, flip=False):
    """Per-tap col2im: add GEMM columns [C*kh*kw, n] of the grid columns from start onto phase planes.

    One shifted contiguous add per tap, in kernel order: the reference the
    per-phase reductions of ops._col2im must equal bit for bit.
    """
    (kh, kw), (sh, sw) = g.kernel, g.stride
    c, n = planes.shape[1], cols.shape[1]
    taps = cols.reshape(c, kh, kw, n)
    if flip:
        taps = taps[:, ::-1, ::-1]
    for u in range(kh):
        for v in range(kw):
            at = start + (u // sh) * g.wq + v // sw
            planes[(u % sh) * g.pw + v % sw, :, at:at + n] += taps[:, u, v]


def _wide_range(rng, shape, dtype):
    """Values of either sign from 1e-6 to 1e6 in magnitude, one in twenty of them -0.0."""
    a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
    a[rng.uniform(size=shape) < 0.05] = -0.0
    return a.astype(dtype)


# Every kernel and stride over three extents, the model geometries, and
# eight taps per phase over a one-column grid: one-row bands there own a
# single cell per channel, whose taps numpy would reduce in its own order.
SCATTER_GEOMETRIES = ([(k, s, hw) for k in KERNELS for s in STRIDES for hw in (HW, (40, 10), (80, 20))]
                      + MODEL_GEOMETRIES + [((8, 2), (1, 2), (12, 2))])


@pytest.mark.parametrize("kernel, stride, hw", SCATTER_GEOMETRIES)
def test_col2im_matches_per_tap_reference_bitwise(kernel, stride, hw, monkeypatch):
    """_col2im and _scatter equal add_columns over the same blocked GEMM products, byte for byte.

    The reference gathers each block's product into one array of the whole
    grid's columns and adds it back tap by tap, so every plane cell sums its
    taps in kernel order, as _col2im does across band boundaries. Small
    budgets force row bands, down to one row. At batch 1, 24 output
    channels take the path for phases with no more cells than channels.
    """
    multi = 0
    for (batch, c_out), dtype, flip, bias, budget in itertools.product(
            ((1, 24), (3, C_OUT)), (np.float32, np.float64), (False, True), (False, True),
            (ops.COL_BLOCK_BYTES, 4000, 700, 50)):
        rng = np.random.default_rng([*kernel, *stride, *hw, batch, flip, bias, budget, c_out])
        g = _Grid(kernel, stride, batch, *hw)
        mat = _wide_range(rng, (c_out * kernel[0] * kernel[1], C_IN), dtype)
        src = g.on_grid(_wide_range(rng, (batch, C_IN, g.ho, g.wo), dtype))
        b = _wide_range(rng, (c_out,), dtype) if bias else None
        monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
        blocks = g.blocks(mat.shape[0] * np.dtype(dtype).itemsize)
        multi += len(blocks) > 1
        whole = np.zeros((mat.shape[0], _whole_grid(g).stop), dtype=dtype)
        for _, _, cols in blocks:
            whole[:, cols] = mat @ src[:, cols]
        want = g.planes(c_out, dtype)
        add_columns(whole, want, g, 0, flip=flip)
        assert _col2im(mat, src, g, flip).tobytes() == want.tobytes()
        assert _scatter(mat, src, g, flip, b).tobytes() == _from_phases(want, g, b).tobytes()
    assert multi >= 16  # at least every budget of 50 bytes bands the grid


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_rows_match_batch_one(kernel, stride, transpose):
    """Folding the batch into the GEMM columns leaves every row's result alone."""
    rng = np.random.default_rng([*kernel, *stride, transpose, 2])
    spec = ConvSpec(stride)
    small = spec.out_extents(*HW)
    if transpose:
        shapes = (C_IN,) + small, (C_IN, C_OUT) + kernel, (C_OUT,) + HW
        op = lambda xt, wt, bt: conv_transpose2d(xt, wt, bt, spec, HW)
    else:
        shapes = (C_IN,) + HW, (C_OUT, C_IN) + kernel, (C_OUT,) + small
        op = lambda xt, wt, bt: conv2d(xt, wt, bt, spec)
    x = rng.normal(size=(3,) + shapes[0])
    w = rng.normal(size=shapes[1])
    b = rng.normal(size=C_OUT)
    g = rng.normal(size=(3,) + shapes[2])
    y3, gx3, gw3, gb3 = _run(op, x, w, b, g)
    rows = [_run(op, x[i:i + 1], w, b, g[i:i + 1]) for i in range(3)]
    for i, (y1, gx1, _, _) in enumerate(rows):
        np.testing.assert_allclose(y3[i:i + 1], y1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx3[i:i + 1], gx1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gw3, sum(r[2] for r in rows), rtol=0, atol=1e-10)
    np.testing.assert_allclose(gb3, sum(r[3] for r in rows), rtol=0, atol=1e-10)


def ref_maxpool2d(x, g, window):
    """Forward and input grad by walking each window's cells in reading order."""
    wh, ww = window
    ho, wo = x.shape[2] // wh, x.shape[3] // ww
    y = np.empty(x.shape[:2] + (ho, wo))
    gx = np.zeros_like(x)
    for bi in range(x.shape[0]):
        for ci in range(x.shape[1]):
            for i in range(ho):
                for j in range(wo):
                    best = None
                    for r in range(i * wh, (i + 1) * wh):
                        for c in range(j * ww, (j + 1) * ww):
                            if best is None or x[bi, ci, r, c] > y[bi, ci, i, j]:
                                best, y[bi, ci, i, j] = (r, c), x[bi, ci, r, c]
                    gx[(bi, ci) + best] += g[bi, ci, i, j]
    return y, gx


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("window", [(2, 2), (2, 4), (3, 3), (1, 2), (1, 5)])
def test_maxpool2d_matches_loop_reference(window, batch):
    """Ties (integer-valued input) go to the first cell.

    The extents are three by two windows: maxpool2d takes only windows that
    tile its input.
    """
    rng = np.random.default_rng([*window, batch, 3])
    hw = (3 * window[0], 2 * window[1])
    x = rng.integers(-2, 2, size=(batch, C_IN) + hw).astype(np.float64)
    x[x == 0] = rng.choice([-0.0, 0.0], size=int((x == 0).sum()))  # signed-zero ties
    g = rng.normal(size=(batch, C_IN, 3, 2))
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = maxpool2d(xt, window)
        tape.backward((y * Tensor(g)).sum())
    want_y, want_gx = ref_maxpool2d(x, g, window)
    assert y.data.tobytes() == want_y.tobytes()  # bitwise: the first of tied zeros wins
    np.testing.assert_array_equal(xt.grad, want_gx)


# Column blocks of the conv2d forward. The grid's 8x7 extents make ragged
# blocks: for C_IN = 3, one grid row of one sample has C_IN*kh*kw * wq columns.
def _col_bytes(kernel, dtype):
    return C_IN * kernel[0] * kernel[1] * np.dtype(dtype).itemsize


BLOCKINGS = {
    "samples": lambda g, col: g.ho * g.wq * col + g.s * col,  # two whole samples per block: 1 + 2, 2 + 2
    "rows": lambda g, col: 3 * g.wq * col,                    # bands of at most 3 rows: Ho = 8 is 2 + 3 + 3
    "one row": lambda g, col: 1,                              # less than a row: one row per block
}


def _forward_at_budget(monkeypatch, budget, *args):
    monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
    with no_grad():
        return conv2d(*args).data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("blocking", sorted(BLOCKINGS))
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_blocked_conv2d_forward_matches_single_block(kernel, stride, batch, blocking, dtype, monkeypatch):
    """Every sample/row block lands in its place; only GEMM rounding may differ.

    A block is a narrower GEMM, and OpenBLAS rounds the columns of a GEMM
    whose width is not a multiple of its 8/16-column tile with other edge
    kernels, so on these ragged widths the two results agree to the
    rounding bound of a length-K dot product, not bit for bit. The model's
    own geometry is bitwise (test_blocked_model_forward_is_bitwise below).
    """
    rng = np.random.default_rng([*kernel, *stride, batch, 4])
    spec = ConvSpec(stride)
    x = rng.normal(size=(batch, C_IN) + HW).astype(dtype)
    w = rng.normal(size=(C_OUT, C_IN) + kernel).astype(dtype)
    b = rng.normal(size=C_OUT).astype(dtype)
    g = _Grid(kernel, stride, batch, *HW)
    col = _col_bytes(kernel, dtype)
    budget = BLOCKINGS[blocking](g, col)
    monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
    blocks = g.blocks(col)
    assert len(blocks) > 1 or (blocking == "samples" and batch == 1)

    whole = _forward_at_budget(monkeypatch, 1 << 40, Tensor(x), Tensor(w), Tensor(b), spec)
    blocked = _forward_at_budget(monkeypatch, budget, Tensor(x), Tensor(w), Tensor(b), spec)
    magnitude = _forward_at_budget(monkeypatch, 1 << 40, Tensor(np.abs(x)), Tensor(np.abs(w)),
                                   Tensor(np.abs(b)), spec)
    assert blocked.dtype == whole.dtype == dtype
    assert blocked.shape == whole.shape
    k = C_IN * kernel[0] * kernel[1]
    bound = 2 * (k + 1) * np.finfo(dtype).eps * magnitude
    assert (np.abs(blocked - whole) <= bound).all()


@pytest.mark.parametrize("dtype, width_divisor, batch, rows", [
    (np.float32, 8, 4, 8), (np.float32, 8, 1, 8), (np.float64, 8, 3, 4), (np.float64, 16, None, 20)])
def test_blocked_model_forward_is_bitwise(dtype, width_divisor, batch, rows, monkeypatch):
    """The first video conv (5x5 over 5x80x80, 64 / width_divisor output
    channels) runs in bands of phase-grid rows: one grid column takes 500
    bytes of float32 columns (1,000 in float64) and one 84-column grid row
    42,000 (84,000), so one sample exceeds COL_BLOCK_BYTES. At d=8 its GEMM
    has 8 rows, so the budget drops to 384 KiB: 8-row bands in float32,
    4-row ones (one unit of 336 grid columns) in float64. At d=16 the 256 KiB
    budget holds no float64 unit, so the 2 MiB budget's 20-row bands stay.
    The eval-mode forward runs those bands and is bit-identical to one block
    per conv. Batch None feeds mffcn_forward one [C,H,W] segment."""
    from mffcn.model import FusionStrategy, init_params, mffcn_forward

    params = init_params(0, FusionStrategy.MULTILAYER, width_divisor, dtype=dtype)
    rng = np.random.default_rng(6)
    lead = () if batch is None else (batch,)
    y = Tensor(rng.normal(size=lead + (1, 80, 20)).astype(dtype))
    v = Tensor(rng.uniform(size=lead + (5, 80, 80)).astype(dtype))
    assert 5 * 5 * 5 * 80 * 80 * np.dtype(dtype).itemsize > ops.COL_BLOCK_BYTES
    widths, columns = [], ops._columns

    def spy(planes, g, cols, flip=False):
        if (g.kernel, g.w) == ((5, 5), 80):  # not the audio branch's 5x5 over 80x20
            widths.append(cols.stop - cols.start)
        return columns(planes, g, cols, flip)

    monkeypatch.setattr(ops, "_columns", spy)
    outs, bands = [], None
    for budget in (ops.COL_BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
        with no_grad():
            outs.append(mffcn_forward(y, v, params, mode="eval").data)
        bands = bands or widths[:]
    assert bands == [rows * 84] * (80 // rows) * (batch or 1)
    assert outs[0].tobytes() == outs[1].tobytes()


def _model_gathers(width_divisor, batch, dtype):
    """{(grid, col_bytes, GEMM rows)} of every _gather in a train-mode forward and backward of the model."""
    from mffcn.model import FusionStrategy, init_params, mffcn_forward

    seen, gather = set(), ops._gather

    def spy(mat, planes, g, flip=False, bias=None, small=None):
        seen.add((g, planes.shape[1] * math.prod(g.kernel) * planes.itemsize,
                  (mat if mat is not None else small).shape[0]))
        return gather(mat, planes, g, flip, bias, small)

    params = init_params(0, FusionStrategy.MULTILAYER, width_divisor, dtype=dtype)
    rng = np.random.default_rng(8)
    y = Tensor(rng.normal(size=(batch, 1, 80, 20)).astype(dtype))
    v = Tensor(rng.uniform(size=(batch, 5, 80, 80)).astype(dtype))
    ops._gather = spy
    try:
        with Tape() as tape:
            tape.backward(mffcn_forward(y, v, params, mode="train").sum())
    finally:
        ops._gather = gather
    return seen


def test_gemm_rows_size_only_the_bands_of_split_geometries():
    """Every _gather geometry of d=8 and d=16 at batch 1 and 4 in both dtypes,
    plus d=1's first video conv (64 output channels) at batch 1 and 8.

    Geometries whose samples fit whole (a batch that fits is one block),
    and GEMMs of 64 or more rows, keep the flat-budget blocks. The rest are
    row bands of a multiple of 16 grid columns within COL_BLOCK_BYTES,
    covering every row of every sample once; those of d=16 float64 keep the
    flat bands, as one 4-row unit exceeds their 256 KiB budget.
    """
    geometries = set()
    for (d, batch), dtype in itertools.product(itertools.product((8, 16), (1, 4)), (np.float32, np.float64)):
        geometries |= _model_gathers(d, batch, dtype)
    geometries |= {(_Grid((5, 5), (1, 1), b, 80, 80), 125 * it, 64) for b in (1, 8) for it in (4, 8)}
    rebanded = 0
    for g, col, m in geometries:
        flat, blocks = g.blocks(col), g.blocks(col, m)
        if m >= 64 or g.ho * g.wq * col <= ops.COL_BLOCK_BYTES:
            assert blocks == flat, (g.kernel, g.b, g.h, g.w, col, m)
            continue
        rebanded += blocks != flat
        seen = np.zeros((g.b, g.ho), dtype=int)
        for samples, rows, cols in blocks:
            seen[samples, rows] += 1
            assert (cols.stop - cols.start) % 16 == 0
            assert (cols.stop - cols.start) * col <= ops.COL_BLOCK_BYTES
        assert (seen == 1).all()
    assert rebanded == 6  # the first video conv (forward and gw alike) at batch 1 and 4: d=8, d=16 float32


# A 3x3 stride-1 conv over 4x3 maps pads one cell on every side: a 6x5 grid
# (s = 30 columns per sample) whose first 4 rows hold the outputs. At one
# byte per grid column, one sample's block spans 4*5 = 20 bytes.
BLOCK_GRID = _Grid((3, 3), (1, 1), 5, 4, 3)


def _block(s0, s1, r0, r1):
    return slice(s0, s1), slice(r0, r1), slice(s0 * 30 + r0 * 5, (s1 - 1) * 30 + r1 * 5)


@pytest.mark.parametrize("budget, want", [
    (1000, [_block(0, 5, 0, 4)]),                                          # the whole batch fits
    (80, [_block(0, 2, 0, 4), _block(2, 5, 0, 4)]),                        # at most 3 samples: 2 + 3
    (15, [_block(n, n + 1, r, r + 2) for n in range(5) for r in (0, 2)]),  # at most 3 rows: 2 + 2
    (3, [_block(n, n + 1, r, r + 1) for n in range(5) for r in range(4)]),  # less than a row
])
def test_col_blocks_cover_every_sample_row_once(budget, want, monkeypatch):
    """Batch 5, 4 output rows of 5 grid columns: samples first, then near-equal row bands."""
    monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
    g = BLOCK_GRID
    assert (g.ho, g.wo, g.hq, g.wq, g.s) == (4, 3, 6, 5, 30)
    blocks = g.blocks(1)
    assert blocks == want
    seen = np.zeros((5, 4), dtype=int)
    for samples, rows, cols in blocks:
        seen[samples, rows] += 1
        assert cols.stop - cols.start <= max(budget, g.wq)
        assert cols.start == samples.start * g.s + rows.start * g.wq  # the block's first output
        assert cols.stop - g.wq == (samples.stop - 1) * g.s + (rows.stop - 1) * g.wq  # its last row
    assert (seen == 1).all()


def test_blocked_columns_bound_peak_memory():
    """A batch-4 5x5 conv over (5, 80, 80) would build 12.8 MB of columns unblocked."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(size=(4, 5, 80, 80)).astype(np.float32))
    w = Tensor(rng.normal(size=(8, 5, 5, 5)).astype(np.float32))
    b = Tensor(np.zeros(8, dtype=np.float32))
    spec = ConvSpec()
    unblocked = 5 * 5 * 5 * 4 * 80 * 80 * 4
    assert unblocked == 12_800_000
    with no_grad():
        tracemalloc.start()
        try:
            conv2d(x, w, b, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < unblocked / 2


def test_blocked_weight_gradient_bounds_peak_memory():
    """The first video conv's weight gradient: 12.8 MB of columns at batch 4 if built whole."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(size=(4, 5, 80, 80)).astype(np.float32))
    w = Tensor(rng.normal(size=(8, 5, 5, 5)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
    g = Tensor(rng.normal(size=(4, 8, 80, 80)).astype(np.float32))
    spec = ConvSpec()
    whole = 5 * 5 * 5 * 4 * 80 * 80 * 4
    with Tape() as tape:
        loss = (conv2d(x, w, b, spec) * g).sum()
        tracemalloc.start()
        try:
            tape.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert w.grad is not None and x.grad is None
    assert peak < whole / 2


def test_blocked_transpose_forward_bounds_peak_memory():
    """A batch-8 4x4 deconv (64, 40x10) -> 64 would scatter a 13.1 MB product built whole."""
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(8, 64, 40, 10)).astype(np.float32))
    w = Tensor(rng.normal(size=(64, 64, 4, 4)).astype(np.float32))
    b = Tensor(np.zeros(64, dtype=np.float32))
    spec = ConvSpec()
    whole = 64 * 4 * 4 * 8 * 40 * 10 * 4
    assert whole == 13_107_200
    with no_grad():
        tracemalloc.start()
        try:
            conv_transpose2d(x, w, b, spec, (40, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < whole / 2
