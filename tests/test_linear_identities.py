"""The two linear identities inference's fused ops rely on.

Channel attention squeezes the 1x1 concat-reduce convolution of both
modalities by a spatial mean. Both are linear, so the mean of the
convolution is the convolution's weight, read as [C, 2C], applied to the
modalities' means: attention.channel_attention computes it that way, and the
weights it gives must equal the old definition's over every fusion block of
the network. Eval-mode batch norm is a fixed per-channel affine map, which
ops.norm_leaky applies as x * s + t: it must equal gamma * x-hat + beta up to
rounding, and bit for bit where gamma = 1 and the running mean is 0.
"""

import numpy as np
import pytest

from mffcn import attention, ops
from mffcn.model import AUDIO_IN, VIDEO_IN, FusionStrategy, init_params, mffcn_forward
from mffcn.ops import BatchNormState, ConvSpec, norm_leaky
from mffcn.tensor import Tensor, _sigmoid


@pytest.fixture(scope="module")
def fusion_inputs():
    """(v, a, params) of each channel attention in a float64 multilayer d=8 forward."""
    rng = np.random.default_rng(5)
    params = init_params(0, FusionStrategy.MULTILAYER, 8, dtype=np.float64)
    for name, t in params.named:
        if name.startswith("fusion.") and name.endswith(".bias"):
            t.data[...] = rng.uniform(-0.05, 0.05, size=t.dims)
    seen = []
    original = attention.channel_attention

    def spy(v, a, p, return_weights=False):
        seen.append((v, a, p))
        return original(v, a, p, return_weights)

    attention.channel_attention = spy
    try:
        mffcn_forward(Tensor(rng.standard_normal((1,) + AUDIO_IN)),
                      Tensor(rng.uniform(0.0, 1.0, size=(1,) + VIDEO_IN)), params, mode="eval")
    finally:
        attention.channel_attention = original
    return seen


def test_every_fusion_block_is_seen(fusion_inputs):
    assert len(fusion_inputs) == 10
    assert all(v.dtype == np.float64 for v, _, _ in fusion_inputs)


@pytest.mark.parametrize("block", range(10))
def test_modality_weights_equal_the_pooled_concat_reduce_conv(fusion_inputs, block):
    v, a, p = fusion_inputs[block]
    _, w_v, w_a = attention.channel_attention(v, a, p, return_weights=True)
    merged = ops.conv2d(ops.concat_channels([v, a]), p.concat_reduce.weight, p.concat_reduce.bias,
                        ConvSpec()).data
    descriptor = merged.mean(axis=(2, 3))
    scores = [descriptor @ head.weight.data.T + head.bias.data for head in (p.fc_v, p.fc_a)]
    want = _sigmoid(scores[0] - scores[1])
    np.testing.assert_allclose(w_v.data, want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w_a.data, 1.0 - want, rtol=1e-12, atol=0)


def _norm_then_rectify(xd, gamma, beta, state):
    """gamma * x-hat + beta under the running statistics, then leaky relu (slope 0.2 below zero)."""
    def per_channel(a):
        return a[None, :, None, None]

    xhat = (xd - per_channel(state.mean)) * per_channel(1.0 / np.sqrt(state.var + ops.BN_EPS))
    y = per_channel(gamma) * xhat + per_channel(beta)
    return np.where(y > 0, y, 0.2 * y)


@pytest.mark.parametrize("seed", range(5))
def test_eval_norm_leaky_is_the_normalized_affine_map(seed):
    rng = np.random.default_rng(seed)
    c = 6
    xd = rng.normal(scale=3.0, size=(2, c, 5, 4))
    gamma, beta = rng.uniform(0.5, 1.5, size=c), rng.normal(size=c)
    state = BatchNormState(rng.normal(size=c), rng.uniform(0.2, 3.0, size=c))
    got = norm_leaky(Tensor(xd), Tensor(gamma), Tensor(beta), state, "eval").data
    want = _norm_then_rectify(xd, gamma, beta, state)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_norm_leaky_is_bitwise_at_unit_gamma_and_zero_mean(dtype):
    rng = np.random.default_rng(9)
    c = 5
    xd = rng.normal(size=(3, c, 4, 6)).astype(dtype)
    gamma, beta = np.ones(c, dtype=dtype), rng.normal(size=c).astype(dtype)
    state = BatchNormState(np.zeros(c, dtype=dtype), rng.uniform(0.2, 3.0, size=c).astype(dtype))
    got = norm_leaky(Tensor(xd), Tensor(gamma), Tensor(beta), state, "eval").data
    assert got.tobytes() == _norm_then_rectify(xd, gamma, beta, state).tobytes()
