"""conv2d / conv_transpose2d (im2col + GEMM) and maxpool2d against naive loop references.

The references pad by the documented same-ceil rule, walk every output
position and kernel tap, and contract only the channel axes, all in float64.
Forward values and all three gradients must agree to 1e-10.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mffcn import ops
from mffcn.ops import ConvSpec, _col2im, _col_blocks, _im2col, conv2d, conv_transpose2d, maxpool2d
from mffcn.tensor import Tape, Tensor, no_grad

KERNELS = [(1, 1), (3, 2), (5, 5)]
STRIDES = [(1, 1), (2, 1), (2, 2)]
BATCHES = [None, 1, 3]          # None: unbatched [C,H,W] input
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


def _lead(batch):
    return () if batch is None else (batch,)


def _run(op, x, w, b, g):
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        y = op(xt, wt, bt)
        tape.backward((y * Tensor(g)).sum())
    return y.data, xt.grad, wt.grad, bt.grad


def _batched(a, batch):
    return a[None] if batch is None else a


def _assert_close(got, want, batch):
    names = ("forward", "input grad", "weight grad", "bias grad")
    for name, gv, wv, squeeze in zip(names, got, want, (True, True, False, False)):
        if squeeze and batch is None:
            wv = wv[0]
        assert gv.shape == wv.shape, name
        np.testing.assert_allclose(gv, wv, rtol=0, atol=ATOL, err_msg=name)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_conv2d_matches_loop_reference(kernel, stride, batch):
    rng = np.random.default_rng([*kernel, *stride, batch or 0])
    spec = ConvSpec(out_channels=C_OUT, kernel=kernel, stride=stride)
    x = rng.normal(size=_lead(batch) + (C_IN,) + HW)
    w = rng.normal(size=(C_OUT, C_IN) + kernel)
    b = rng.normal(size=C_OUT)
    g = rng.normal(size=_lead(batch) + (C_OUT,) + spec.out_extents(*HW))
    got = _run(lambda xt, wt, bt: conv2d(xt, wt, bt, spec), x, w, b, g)
    want = ref_conv2d(_batched(x, batch), w, b, _batched(g, batch), kernel, stride)
    _assert_close(got, want, batch)


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_conv_transpose2d_matches_loop_reference(kernel, stride, batch):
    rng = np.random.default_rng([*kernel, *stride, batch or 0, 1])
    spec = ConvSpec(out_channels=C_OUT, kernel=kernel, stride=stride)
    x = rng.normal(size=_lead(batch) + (C_IN,) + spec.out_extents(*HW))
    w = rng.normal(size=(C_IN, C_OUT) + kernel)
    b = rng.normal(size=C_OUT)
    g = rng.normal(size=_lead(batch) + (C_OUT,) + HW)
    got = _run(lambda xt, wt, bt: conv_transpose2d(xt, wt, bt, spec, HW), x, w, b, g)
    want = ref_conv_transpose2d(_batched(x, batch), w, b, _batched(g, batch), kernel, stride, HW)
    _assert_close(got, want, batch)


def test_grid_exercises_asymmetric_padding():
    odd = [(k, s) for k in KERNELS for s in STRIDES
           if any(lo != hi for lo, hi in (_pads(HW[i], s[i], k[i]) for i in range(2)))]
    assert len(odd) >= 4


def test_one_by_one_stride_one_columns_are_a_view():
    x = np.random.default_rng(0).normal(size=(2, 3, 5, 4))
    spec = ConvSpec(out_channels=1, kernel=(1, 1))
    cols = _im2col(x, spec, (0, 0, 0, 0))
    assert cols.shape == (3, 2 * 20)  # [C, B*H*W]: the batch is folded into the columns
    np.testing.assert_array_equal(cols.reshape(3, 2, 5, 4), x.transpose(1, 0, 2, 3))
    one = _im2col(x[1:], spec, (0, 0, 0, 0))
    assert one.shape == (3, 20)
    assert np.shares_memory(one, x)


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_col2im_is_the_adjoint_of_im2col(kernel, stride, flip):
    rng = np.random.default_rng([*kernel, *stride, flip])
    spec = ConvSpec(out_channels=1, kernel=kernel, stride=stride)
    pads = spec.pads(*HW)
    x = rng.normal(size=(2, C_IN) + HW)
    cols = _im2col(x, spec, pads, flip=flip)
    n_out = math.prod(spec.out_extents(*HW))
    assert cols.shape == (C_IN * kernel[0] * kernel[1], 2 * n_out)
    c = rng.normal(size=cols.shape)
    np.testing.assert_allclose(np.vdot(c, cols), np.vdot(_col2im(c, 2, HW, spec, pads, flip=flip), x),
                               rtol=1e-12)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("stride", STRIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_batch_rows_match_batch_one(kernel, stride, transpose):
    """Folding the batch into the GEMM columns leaves every row's result alone."""
    rng = np.random.default_rng([*kernel, *stride, transpose, 2])
    spec = ConvSpec(out_channels=C_OUT, kernel=kernel, stride=stride)
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
    """Forward and input grad by walking each window's real cells in reading order."""
    wh, ww = window
    _, _, h, w = x.shape
    pt, _ = _pads(h, wh, wh)
    pl, _ = _pads(w, ww, ww)
    ho, wo = math.ceil(h / wh), math.ceil(w / ww)
    y = np.full(x.shape[:2] + (ho, wo), -np.inf)
    gx = np.zeros_like(x)
    for bi in range(x.shape[0]):
        for ci in range(x.shape[1]):
            for i in range(ho):
                for j in range(wo):
                    best = None
                    for r in range(i * wh - pt, (i + 1) * wh - pt):
                        for c in range(j * ww - pl, (j + 1) * ww - pl):
                            real = 0 <= r < h and 0 <= c < w
                            if real and (best is None or x[bi, ci, r, c] > y[bi, ci, i, j]):
                                best, y[bi, ci, i, j] = (r, c), x[bi, ci, r, c]
                    gx[(bi, ci) + best] += g[bi, ci, i, j]
    return y, gx


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("window", [(2, 2), (2, 4), (3, 3), (1, 2)])
def test_maxpool2d_matches_loop_reference(window, batch):
    """Ties (integer-valued input) go to the first cell; edges are padded with -inf."""
    rng = np.random.default_rng([*window, batch or 0, 3])
    x = rng.integers(-2, 2, size=_lead(batch) + (C_IN,) + HW).astype(np.float64)
    x[x == 0] = rng.choice([-0.0, 0.0], size=int((x == 0).sum()))  # signed-zero ties
    ho, wo = (math.ceil(HW[i] / window[i]) for i in range(2))
    g = rng.normal(size=_lead(batch) + (C_IN, ho, wo))
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        y = maxpool2d(xt, window)
        tape.backward((y * Tensor(g)).sum())
    want_y, want_gx = ref_maxpool2d(_batched(x, batch), _batched(g, batch), window)
    if batch is None:
        want_y, want_gx = want_y[0], want_gx[0]
    assert y.data.tobytes() == want_y.tobytes()  # bitwise: the first of tied zeros wins
    np.testing.assert_array_equal(xt.grad, want_gx)


# Column blocks of the conv2d forward. The grid's 8x7 extents make ragged
# blocks: for C_IN = 3, one output row of one sample has C_IN*kh*kw * Wo columns.
def _row_bytes(kernel, stride, dtype):
    return C_IN * kernel[0] * kernel[1] * ConvSpec(1, kernel, stride).out_extents(*HW)[1] * np.dtype(dtype).itemsize


BLOCKINGS = {
    "samples": lambda ho, row: 2 * ho * row,   # two whole samples per block: batch 3 is 2 + 1
    "rows": lambda ho, row: 3 * row,           # bands of 3 rows: Ho = 8 or 4 leaves a ragged band
    "one row": lambda ho, row: 1,              # less than a row: one row per block
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
    rng = np.random.default_rng([*kernel, *stride, batch or 0, 4])
    spec = ConvSpec(out_channels=C_OUT, kernel=kernel, stride=stride)
    x = rng.normal(size=_lead(batch) + (C_IN,) + HW).astype(dtype)
    w = rng.normal(size=(C_OUT, C_IN) + kernel).astype(dtype)
    b = rng.normal(size=C_OUT).astype(dtype)
    ho = spec.out_extents(*HW)[0]
    row = _row_bytes(kernel, stride, dtype)
    budget = BLOCKINGS[blocking](ho, row)
    monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
    blocks = _col_blocks(batch or 1, ho, row)
    assert len(blocks) > 1 or (blocking == "samples" and batch != 3)

    whole = _forward_at_budget(monkeypatch, 1 << 40, Tensor(x), Tensor(w), Tensor(b), spec)
    blocked = _forward_at_budget(monkeypatch, budget, Tensor(x), Tensor(w), Tensor(b), spec)
    magnitude = _forward_at_budget(monkeypatch, 1 << 40, Tensor(np.abs(x)), Tensor(np.abs(w)),
                                   Tensor(np.abs(b)), spec)
    assert blocked.dtype == whole.dtype == dtype
    assert blocked.shape == whole.shape
    k = C_IN * kernel[0] * kernel[1]
    bound = 2 * (k + 1) * np.finfo(dtype).eps * magnitude
    assert (np.abs(blocked - whole) <= bound).all()


@pytest.mark.parametrize("dtype, width_divisor, batch", [
    (np.float32, 8, 4), (np.float32, 8, 1), (np.float64, 16, 3), (np.float64, 16, None)])
def test_blocked_model_forward_is_bitwise(dtype, width_divisor, batch, monkeypatch):
    """At the default budget the first video conv (5x5 over 5x80x80, 3.2 MB of
    float32 columns per sample) runs in bands of 80-wide output rows; the
    eval-mode forward is bit-identical to one block per conv."""
    from mffcn.model import FusionStrategy, init_params, mffcn_forward

    params = init_params(0, FusionStrategy.MULTILAYER, width_divisor, dtype=dtype)
    rng = np.random.default_rng(6)
    lead = _lead(batch)
    y = Tensor(rng.normal(size=lead + (1, 80, 20)).astype(dtype))
    v = Tensor(rng.uniform(size=lead + (5, 80, 80)).astype(dtype))
    assert 5 * 5 * 5 * 80 * 80 * np.dtype(dtype).itemsize > ops.COL_BLOCK_BYTES
    outs = []
    for budget in (ops.COL_BLOCK_BYTES, 1 << 40):
        monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
        with no_grad():
            outs.append(mffcn_forward(y, v, params, mode="eval").data)
    assert outs[0].tobytes() == outs[1].tobytes()


@pytest.mark.parametrize("budget, want", [
    (1000, [(slice(0, 5), slice(None))]),                                   # the whole batch fits
    (40, [(slice(0, 2), slice(None)), (slice(2, 4), slice(None)), (slice(4, 5), slice(None))]),
    (15, [(slice(s, s + 1), rows) for s in range(5) for rows in (slice(0, 3), slice(3, 4))]),
    (3, [(slice(s, s + 1), slice(r, r + 1)) for s in range(5) for r in range(4)]),
])
def test_col_blocks_cover_every_sample_row_once(budget, want, monkeypatch):
    """Batch 5, 4 output rows of 5 bytes: samples first, then row bands, a ragged last block."""
    monkeypatch.setattr(ops, "COL_BLOCK_BYTES", budget)
    blocks = _col_blocks(5, 4, 5)
    assert blocks == want
    seen = np.zeros((5, 4), dtype=int)
    for samples, rows in blocks:
        seen[samples, rows] += 1
        assert seen[samples, rows].size * 5 <= max(budget, 5)
    assert (seen == 1).all()


def test_blocked_columns_bound_peak_memory():
    """A batch-4 5x5 conv over (5, 80, 80) would build 12.8 MB of columns unblocked."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(size=(4, 5, 80, 80)).astype(np.float32))
    w = Tensor(rng.normal(size=(8, 5, 5, 5)).astype(np.float32))
    b = Tensor(np.zeros(8, dtype=np.float32))
    spec = ConvSpec(out_channels=8, kernel=(5, 5))
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
