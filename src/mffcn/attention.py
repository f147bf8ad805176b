"""Fusion attention blocks: channel-wise modality weighting plus a spectral mask.

A fusion block takes same-shaped video and audio feature maps. Channel
attention first squeezes a concat-reduce convolution of both modalities into
a per-channel descriptor, scores it with two independent linear heads, and
softmaxes the pair into modality weights that always sum to one per channel.
The reweighted modalities are merged back to C channels. Spectral attention
then gates that merged map elementwise with a sigmoid mask in (0, 1).

All convolutions in these blocks are 1x1: the only job here is channel
mixing, never spatial filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from .ops import (
    ConvSpec,
    activation,
    concat_channels,
    conv2d,
    fully_connected,
    global_avg_pool,
    scale_channels,
    softmax_pair,
)
from .tensor import ShapeError, Tensor


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

    Pipeline: squeeze Conv1x1(concat[v, a]) to C channels, pool it to a
    channel descriptor, score with the two dense heads, softmax the pair
    into (w_v, w_a), then merge Conv1x1(concat[v * w_v, a * w_a]) back to C.
    With return_weights the per-channel weights come back too.
    """
    if v.dims != a.dims:
        raise ShapeError(f"channel_attention: modality shapes differ, {v.dims} vs {a.dims}")
    merged = conv2d(concat_channels([v, a]), params.concat_reduce.weight,
                    params.concat_reduce.bias, ConvSpec())
    descriptor = global_avg_pool(merged)
    score_v = fully_connected(descriptor, params.fc_v.weight, params.fc_v.bias)
    score_a = fully_connected(descriptor, params.fc_a.weight, params.fc_a.bias)
    w_v, w_a = softmax_pair(score_v, score_a)
    fused = conv2d(
        concat_channels([scale_channels(v, w_v), scale_channels(a, w_a)]),
        params.post_weight.weight, params.post_weight.bias, ConvSpec())
    if return_weights:
        return fused, w_v, w_a
    return fused


def spectral_attention(x: Tensor, params: SpectralParams,
                       return_mask: bool = False
                       ) -> Union[Tensor, Tuple[Tensor, Tensor]]:
    """Gate a feature map with a learned elementwise mask in (0, 1)."""
    hidden = activation(conv2d(x, params.hidden.weight, params.hidden.bias, ConvSpec()), "relu")
    mask = activation(conv2d(hidden, params.mask.weight, params.mask.bias, ConvSpec()), "sigmoid")
    gated = scale_channels(x, mask)
    if return_mask:
        return gated, mask
    return gated


def fusion_block(v: Tensor, a: Tensor, params: FusionParams) -> Tensor:
    """Channel attention followed by spectral attention."""
    return spectral_attention(channel_attention(v, a, params), params.spectral)
