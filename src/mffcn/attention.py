"""Fusion attention blocks: channel-wise modality weighting plus a spectral mask.

A fusion block takes same-shaped video and audio feature maps. Channel
attention first squeezes a concat-reduce convolution of both modalities into
a per-channel descriptor, scores it with two independent linear heads, and
softmaxes the pair into modality weights that always sum to one per channel.
The squeeze is the spatial mean of a 1x1 convolution, and both are linear:
the descriptor is the reduce weight, read as [C, 2C], applied to the two
modalities' spatial means, so no full-size reduced map is ever built.
The reweighted modalities are merged back to C channels. Spectral attention
then gates that merged map elementwise with a sigmoid mask in (0, 1).

All convolutions in these blocks are 1x1: the only job here is channel
mixing, never spatial filtering. Convolutions and heads alike run through
ops' dense pair (convolutions via _pointwise), which refuses a spatial kernel.

Each attention is one taped op with a hand-written backward, as
ops.lstm_forward is, in place of the 12 and 5 taped primitives it composed
(tests/composed.py keeps both compositions as references).
Both repeat their arithmetic and the order in which their gradients reach
each input, so outputs and gradients are bit-identical to the composition.
Each scans the pre-activations that feed a sigmoid or a relu, which would
squash an Inf; any other non-finite value reaches one of those or the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .ops import _batch_first, _dense_data, _dense_grads, _pointwise, _pointwise_grads
from .tensor import NonFiniteError, ShapeError, Tensor, _accumulate, _sigmoid, record


@dataclass
class ConvParams:
    """A weight and its bias: a convolution's, whose channels and kernel are
    the weight's axes, or a dense head's [out, in] matrix."""

    weight: Tensor
    bias: Tensor


@dataclass
class SpectralParams:
    """Two pointwise convolutions: relu hidden layer, then the sigmoid mask."""

    hidden: ConvParams
    mask: ConvParams


@dataclass
class FusionParams:
    """Everything one fusion block owns.

    concat_reduce and post_weight map 2C -> C; the two dense heads and the
    spectral convolutions map C -> C.
    """

    concat_reduce: ConvParams
    fc_v: ConvParams
    fc_a: ConvParams
    post_weight: ConvParams
    spectral: SpectralParams


def channel_attention(v: Tensor, a: Tensor, params: FusionParams,
                      return_weights: bool = False
                      ) -> Union[Tensor, Tuple[Tensor, Tensor, Tensor]]:
    """Merge two same-shaped modality maps under learned per-channel weights.

    Pipeline: squeeze Conv1x1(concat[v, a]) to C channels and pool it to a
    channel descriptor, computed as the reduce weight, read as [C, 2C], times
    the [B, 2C] spatial means of v and a (accumulated in float64); score with
    the two dense heads, softmax the pair into (w_v, w_a), then merge
    Conv1x1(concat[v * w_v, a * w_a]) back to C. With return_weights the
    per-channel [B, C] weights come back too, as constants: gradients flow
    through the merged map only.

    It keeps only [B, C] and [B, 2C] arrays. Backward recomputes the merge's
    concatenation; the squeeze's input gradient is its [B, 2C] gradient over
    h * w, spread evenly over space. The reduce weight must be [C, 2C, 1, 1].
    A NaN or Inf score difference (the sigmoid's input) raises NonFiniteError.
    """
    if v.dims != a.dims:
        raise ShapeError(f"channel_attention: modality shapes differ, {v.dims} vs {a.dims}")
    vd, ad = _batch_first(v.data, 4, "channel_attention"), a.data
    op, c, (h, w) = "channel_attention", vd.shape[1], vd.shape[2:]
    reduce, fc_v, fc_a, post = params.concat_reduce, params.fc_v, params.fc_a, params.post_weight
    if reduce.weight.dims != (c, 2 * c, 1, 1):
        raise ShapeError(f"{op}: concat-reduce weights must be [{c},{2 * c},1,1], got {reduce.weight.dims}")
    pooled = np.concatenate([np.add.reduce(m, axis=(2, 3), dtype=np.float64) for m in (vd, ad)], axis=1)
    pooled = (pooled / (h * w)).astype(vd.dtype)
    descriptor = _dense_data(op, pooled, reduce.weight.data.reshape(c, 2 * c), reduce.bias.data)
    diff = (_dense_data(op, descriptor, fc_v.weight.data, fc_v.bias.data)
            - _dense_data(op, descriptor, fc_a.weight.data, fc_a.bias.data))
    if not np.isfinite(diff).all():
        raise NonFiniteError("channel_attention: a score difference is NaN or Inf")
    w_v = _sigmoid(diff)
    w_a = 1.0 - w_v

    def scaled() -> np.ndarray:
        return np.concatenate([vd * w_v[:, :, None, None], ad * w_a[:, :, None, None]], axis=1)

    fused = _pointwise(op, scaled(), post.weight.data, post.bias.data)

    def backward(g: np.ndarray) -> None:
        g_cat = np.ascontiguousarray(_pointwise_grads(g, scaled(), post.weight, post.bias))
        g_sv, g_sa = g_cat[:, :c], g_cat[:, c:]
        _accumulate(a, g_sa * w_a[:, :, None, None])
        g_wa = (g_sa * ad).sum(axis=(2, 3))
        _accumulate(v, g_sv * w_v[:, :, None, None])
        g_wv = (g_sv * vd).sum(axis=(2, 3)) + -g_wa
        g_diff = g_wv * w_v * (1.0 - w_v)
        g_desc = _dense_grads(-g_diff, descriptor, fc_a.weight, fc_a.bias)
        g_desc += _dense_grads(g_diff, descriptor, fc_v.weight, fc_v.bias)
        g_pooled = _dense_grads(g_desc, pooled, reduce.weight, reduce.bias) / (h * w)
        _accumulate(a, np.broadcast_to(g_pooled[:, c:, None, None], ad.shape))
        _accumulate(v, np.broadcast_to(g_pooled[:, :c, None, None], vd.shape))

    tensors = (v, a) + tuple(t for p in (reduce, fc_v, fc_a, post) for t in (p.weight, p.bias))
    result = record(Tensor(fused), tensors, backward)
    if return_weights:
        return result, Tensor(w_v), Tensor(w_a)
    return result


def spectral_attention(x: Tensor, params: SpectralParams,
                       return_mask: bool = False
                       ) -> Union[Tensor, Tuple[Tensor, Tensor]]:
    """Gate a feature map with a learned elementwise mask in (0, 1).

    The mask is sigmoid(Conv1x1(relu(Conv1x1(x)))); with return_mask it comes
    back too, as a constant. It keeps the relu output and the mask for backward.
    A NaN or Inf relu or sigmoid pre-activation raises NonFiniteError.
    """
    op, hidden_p, mask_p = "spectral_attention", params.hidden, params.mask
    xd = _batch_first(x.data, 4, op)
    pre = _pointwise(op, xd, hidden_p.weight.data, hidden_p.bias.data)
    if not np.isfinite(pre).all():
        raise NonFiniteError("spectral_attention: a hidden pre-activation is NaN or Inf")
    hidden = np.maximum(pre, 0)
    pre = _pointwise(op, hidden, mask_p.weight.data, mask_p.bias.data)
    if not np.isfinite(pre).all():
        raise NonFiniteError("spectral_attention: a mask pre-activation is NaN or Inf")
    mask = _sigmoid(pre)
    gated = xd * mask

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            _accumulate(x, g * mask)
        g_hidden = np.ascontiguousarray(_pointwise_grads(g * xd * mask * (1.0 - mask), hidden,
                                                         mask_p.weight, mask_p.bias))
        # relu's derivative read off its output: max(sign(relu(z)), 0) is max(sign(z), 0) bit for bit
        _accumulate(x, _pointwise_grads(g_hidden * np.maximum(np.sign(hidden), 0.0), xd,
                                        hidden_p.weight, hidden_p.bias))

    result = record(Tensor(gated), (x, hidden_p.weight, hidden_p.bias, mask_p.weight, mask_p.bias), backward)
    if return_mask:
        return result, Tensor(mask)
    return result


def fusion_block(v: Tensor, a: Tensor, params: FusionParams) -> Tensor:
    """Channel attention followed by spectral attention."""
    return spectral_attention(channel_attention(v, a, params), params.spectral)
