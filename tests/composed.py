"""The taped primitives the fused ops replaced, composed into their references.

The program tapes the LSTM layer, the norm-rectifier and both attention
blocks as one op each, with a hand-written backward (ops.lstm_forward,
ops.norm_leaky, attention.channel_attention, attention.spectral_attention).
This module rebuilds each of them from primitives that record one step each
on the tape, so the tape differentiates them and referees the fused ops:
lstm, norm_leaky, channel_attention and spectral_attention below. The
primitives compute their own statistics, products and rectifiers (batch
norm's mean and variance are numpy's own) in the order the fused ops
compute theirs, so outputs and gradients agree bit for bit while no line
of arithmetic is shared.

OP_ROWS holds the finite-difference rows of these primitives. check_row
draws and projects each one as gradcheck.check_op does its rows, and hands
the loss to the public check_gradients.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from mffcn import ops
from mffcn.attention import FusionParams, SpectralParams
from mffcn.gradcheck import (
    REL_TOL,
    Draw,
    _away_from_zero,
    _elementwise,
    _normal,
    _rand_shape,
    _rng,
    _unary,
    check_gradients,
    projected_loss,
    random_projection,
)
from mffcn.ops import BN_EPS, LEAKY_SLOPE, BatchNormState, ConvSpec, LstmLayerParams
from mffcn.tensor import ShapeError, Tensor, _accumulate, record

# ----------------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """a + b for a same-shape tensor or a scalar b."""
    if not isinstance(b, Tensor):
        s = float(b)

        def backward_s(g):
            _accumulate(a, g)

        return record(Tensor(a.data + s), (a,), backward_s)
    a._binary_shapes(b, "add")

    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return record(Tensor(a.data + b.data), (a, b), backward)


def rsub(s: float, x: Tensor) -> Tensor:
    """The scalar s minus x."""
    def backward(g):
        _accumulate(x, -g)

    return record(Tensor(float(s) - x.data), (x,), backward)


def neg(x: Tensor) -> Tensor:
    def backward(g):
        _accumulate(x, -g)

    return record(Tensor(-x.data), (x,), backward)


def pick(x: Tensor, axis: int, index: int) -> Tensor:
    """One index along an axis, removing that axis."""
    out = Tensor(np.take(x.data, index, axis=axis))

    def backward(g):
        buf = np.zeros_like(x.data)
        sl = [slice(None)] * x.ndim
        sl[axis] = index
        buf[tuple(sl)] = g
        _accumulate(x, buf)

    return record(out, (x,), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Same-shape tensors joined along a new axis."""
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))

    def backward(g):
        for t, gp in zip(tensors, np.moveaxis(g, axis, 0)):
            _accumulate(t, gp)

    return record(out, tuple(tensors), backward)


def sigmoid(x: Tensor) -> Tensor:
    """The logistic, 1 / (1 + e^-x) written with e = exp(-|x|) so it cannot
    overflow, clamped to [tiny, the largest value below one] of x's dtype."""
    e = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0, e) / (1.0 + e)
    y = np.clip(y, np.finfo(y.dtype).tiny, np.nextafter(y.dtype.type(1.0), y.dtype.type(0.0)))

    def backward(g):
        _accumulate(x, g * y * (1.0 - y))

    return record(Tensor(y), (x,), backward)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - y * y))

    return record(Tensor(y), (x,), backward)


def _rectifier(x: Tensor, out: np.ndarray, slope: float) -> Tensor:
    """The rectifier with this output: its backward multiplies g by max(sign(x), slope)."""
    def backward(g):
        _accumulate(x, g * np.maximum(np.sign(x.data), slope))

    return record(Tensor(out), (x,), backward)


def leaky_relu(x: Tensor) -> Tensor:
    return _rectifier(x, np.maximum(x.data, x.data * x.dtype.type(LEAKY_SLOPE)), LEAKY_SLOPE)


def relu(x: Tensor) -> Tensor:
    return _rectifier(x, np.maximum(x.data, 0), 0.0)


def _per_channel(a: np.ndarray) -> np.ndarray:
    """A [C] array viewed [1, C, 1, 1], to broadcast over a [B, C, H, W] map."""
    return a[None, :, None, None]


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """Per-channel batch normalization, as norm_leaky normalizes: gamma * x-hat + beta
    in train mode, x * s + t with s = gamma * inv and t = beta - s * mean in eval mode.

    Train mode takes numpy's float64 mean and variance over batch and space,
    cast to the map's dtype, and moves the state 0.1 of the way to them.
    The backward runs einsum, sum and mean.
    """
    xd = x.data
    if mode == "train":
        mu = xd.mean(axis=(0, 2, 3), dtype=np.float64).astype(xd.dtype)
        var = xd.var(axis=(0, 2, 3), dtype=np.float64).astype(xd.dtype)
        state.mean[...] = 0.9 * state.mean + 0.1 * mu
        state.var[...] = 0.9 * state.var + 0.1 * var
    else:
        mu, var = state.mean.astype(xd.dtype), state.var.astype(xd.dtype)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (xd - _per_channel(mu)) * _per_channel(inv)
    if mode == "train":
        out = _per_channel(gamma.data) * xhat + _per_channel(beta.data)
    else:
        s = gamma.data * inv
        out = xd * _per_channel(s) + _per_channel(beta.data - s * mu)

    def backward(gb):
        g_xhat = np.einsum("bchw,bchw->c", gb, xhat, optimize=True)
        if gamma.requires_grad:
            _accumulate(gamma, g_xhat)
        if beta.requires_grad:
            _accumulate(beta, gb.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            scale = _per_channel(gamma.data * inv)
            if mode == "train":
                n = gb.shape[0] * gb.shape[2] * gb.shape[3]
                g_mean = gb.mean(axis=(0, 2, 3), keepdims=True)
                gx = scale * (gb - g_mean - xhat * _per_channel(g_xhat / n))
            else:
                gx = scale * gb
            _accumulate(x, gx)

    return record(Tensor(out), (x, gamma, beta), backward)


def softmax_pair(a: Tensor, b: Tensor) -> Tuple[Tensor, Tensor]:
    """Two-way softmax of a pair of score tensors: sigmoid(a - b) and its complement."""
    wa = sigmoid(a - b)
    return wa, rsub(1.0, wa)


def fully_connected(x: Tensor, weights: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """x W^T (+ b) of a [B, F] input; weights are [O, F], or a 1x1 convolution's [O, F, 1, 1]."""
    xd, wd = x.data, weights.data.reshape(weights.dims[0], -1)
    out = (wd @ xd.T).T  # weights on the left, as the fused ops multiply
    if bias is not None:
        out = out + bias.data

    def backward(g):
        if weights.requires_grad:
            _accumulate(weights, (g.T @ xd).reshape(weights.dims))
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=0))
        _accumulate(x, g @ wd)

    return record(Tensor(out), (x, weights) if bias is None else (x, weights, bias), backward)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes: [B, C, H, W] -> [B, C]."""
    xd = x.data
    h, w = xd.shape[2:]

    def backward(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), xd.shape).astype(xd.dtype))

    return record(Tensor(xd.mean(axis=(2, 3), dtype=np.float64).astype(xd.dtype)), (x,), backward)


def scale_channels(x: Tensor, w: Tensor) -> Tensor:
    """x times per-channel weights [B, C] or an x-shaped mask."""
    xd, wd = x.data, w.data
    if wd.shape == xd.shape:
        expand, reduce_axes = wd, ()
    elif wd.shape == xd.shape[:2]:
        expand, reduce_axes = wd[:, :, None, None], (2, 3)
    else:
        raise ShapeError(f"scale_channels: weight shape {wd.shape} does not fit input {xd.shape}")

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g * expand)
        if w.requires_grad:
            gw = g * xd
            _accumulate(w, gw.sum(axis=reduce_axes) if reduce_axes else gw)

    return record(Tensor(xd * expand), (x, w), backward)


# ----------------------------------------------------------------------------
# References of the fused ops
# ----------------------------------------------------------------------------


def lstm(seq: Tensor, params: LstmLayerParams) -> Tensor:
    """ops.lstm_forward, one cell step at a time: [B, F, T] in, [B, H, T] out."""
    state_shape = (seq.dims[0], params.hidden_size)
    h = Tensor(np.zeros(state_shape, dtype=seq.dtype))
    c = Tensor(np.zeros(state_shape, dtype=seq.dtype))
    outputs = []
    for t in range(seq.dims[2]):
        x_t = pick(seq, 2, t)
        z = {name: add(fully_connected(x_t, gate.wx, gate.bias), fully_connected(h, gate.wh))
             for name, gate in params.gates()}
        i = sigmoid(z["input"])
        f = sigmoid(z["forget"])
        g = tanh(z["cell"])
        o = sigmoid(z["output"])
        c = add(f * c, i * g)
        h = o * tanh(c)
        outputs.append(h)
    return stack(outputs, axis=2)


def norm_leaky(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               mode: str = "train") -> Tensor:
    """ops.norm_leaky: batch_norm, then leaky_relu."""
    return leaky_relu(batch_norm(x, gamma, beta, state, mode))


def channel_attention(v: Tensor, a: Tensor, params: FusionParams, return_weights: bool = False):
    """attention.channel_attention; with return_weights, the weights come back taped.

    The descriptor is the 1x1 concat-reduce weight applied to the spatial
    means of both modalities.
    """
    pooled = global_avg_pool(ops.concat_channels([v, a]))
    descriptor = fully_connected(pooled, params.concat_reduce.weight, params.concat_reduce.bias)
    score_v = fully_connected(descriptor, params.fc_v.weight, params.fc_v.bias)
    score_a = fully_connected(descriptor, params.fc_a.weight, params.fc_a.bias)
    w_v, w_a = softmax_pair(score_v, score_a)
    fused = ops.conv2d(ops.concat_channels([scale_channels(v, w_v), scale_channels(a, w_a)]),
                       params.post_weight.weight, params.post_weight.bias, ConvSpec())
    return (fused, w_v, w_a) if return_weights else fused


def spectral_attention(x: Tensor, params: SpectralParams, return_mask: bool = False):
    """attention.spectral_attention; with return_mask, the mask comes back taped."""
    hidden = relu(ops.conv2d(x, params.hidden.weight, params.hidden.bias, ConvSpec()))
    mask = sigmoid(ops.conv2d(hidden, params.mask.weight, params.mask.bias, ConvSpec()))
    gated = scale_channels(x, mask)
    return (gated, mask) if return_mask else gated


def fusion_block(v: Tensor, a: Tensor, params: FusionParams) -> Tensor:
    return spectral_attention(channel_attention(v, a, params), params.spectral)


# ----------------------------------------------------------------------------
# Finite-difference rows of the primitives
# ----------------------------------------------------------------------------

def _off_zero(fn) -> Draw:
    """gradcheck._unary, with the input drawn by _away_from_zero."""
    def draw(rng, seed):
        return [_away_from_zero(rng, _rand_shape(rng))], lambda args: fn(args[0])
    return draw


def _draw_pick(rng, seed):
    shape = tuple(int(rng.integers(1, 7)) for _ in range(3))
    axis = int(rng.integers(0, 3))
    index = int(rng.integers(0, shape[axis]))
    return [_normal(rng, shape)], lambda args: pick(args[0], axis, index)


def _draw_stack(rng, seed):
    shape = tuple(int(rng.integers(1, 7)) for _ in range(2))
    return [_normal(rng, shape) for _ in range(3)], lambda args: stack(args, axis=0)


def _draw_batch_norm_train(rng, seed):
    c = int(rng.integers(1, 5))
    shape = (3, c, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    inputs = [_normal(rng, shape), Tensor(rng.uniform(0.5, 1.5, size=c)), _normal(rng, (c,))]
    return inputs, lambda args: batch_norm(*args, BatchNormState.initial(c, dtype=np.float64), "train")


def _draw_batch_norm_eval(rng, seed):
    c = int(rng.integers(1, 5))
    inputs = [_normal(rng, (2, c, 3, 3)), Tensor(rng.uniform(0.5, 1.5, size=c)),
              _normal(rng, (c,))]
    mean, var = rng.standard_normal(c), rng.uniform(0.5, 2.0, size=c)
    return inputs, lambda args: batch_norm(*args, BatchNormState(mean.copy(), var.copy()), "eval")


def _draw_softmax_pair(rng, seed):
    n = int(rng.integers(1, 7))
    return [_normal(rng, (n,)), _normal(rng, (n,))], lambda args: softmax_pair(*args)


def _draw_fully_connected(rng, seed):
    fin, fout = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    n = 3 if seed % 2 == 0 else 1
    inputs = [_normal(rng, (n, fin)), _normal(rng, (fout, fin)), _normal(rng, (fout,))]
    return inputs, lambda args: fully_connected(*args)


def _draw_global_avg_pool(rng, seed):
    c = int(rng.integers(1, 6))
    x = _normal(rng, (1, c, int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    return [x], lambda args: global_avg_pool(args[0])


def _draw_scale_channels(rng, seed):
    c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = _normal(rng, (1, c, h, w))
    weight_shape = [(1, c), (1, c, h, w)][seed % 2]
    return [x, _normal(rng, weight_shape)], lambda args: scale_channels(*args)


OP_ROWS: Dict[str, Draw] = {
    "add": _elementwise(add),
    "scalar_mix": _unary(lambda x: add(rsub(1.5, neg(x) * Tensor(np.full(x.dims, 0.75))), 0.25)),
    "pick": _draw_pick,
    "stack": _draw_stack,
    "sigmoid": _unary(sigmoid),
    "tanh": _unary(tanh),
    "leaky_relu": _off_zero(leaky_relu),
    "relu": _off_zero(relu),
    "batch_norm_train": _draw_batch_norm_train,
    "batch_norm_eval": _draw_batch_norm_eval,
    "softmax_pair": _draw_softmax_pair,
    "fully_connected": _draw_fully_connected,
    "global_avg_pool": _draw_global_avg_pool,
    "scale_channels": _draw_scale_channels,
}


def check_row(name: str, seed: int, tol: float = REL_TOL) -> float:
    """Gradient-check one OP_ROWS row at one seed; returns the worst relative error.

    Output k (softmax_pair has two) is projected on
    random_projection(seed + 9000 + k) and the projections are added.
    """
    inputs, op = OP_ROWS[name](_rng(seed), seed)

    def outputs(args):
        out = op(args)
        return out if isinstance(out, tuple) else (out,)

    directions = [random_projection(seed + 9000 + k, out.dims) for k, out in enumerate(outputs(inputs))]

    def loss(args):
        terms = [projected_loss(out, d) for out, d in zip(outputs(args), directions)]
        total = terms[0]
        for term in terms[1:]:
            total = add(total, term)
        return total

    return check_gradients(loss, inputs, tol=tol)
