"""The fusion network: twin encoders, attention bottleneck, deconv decoder.

Layer schedule (10 layers, both branches):

    filters   64   64  128  128  256  256  512  512 1024 1024
    kernel   5x5  4x4  4x4  4x4  2x2  2x2  2x2  2x2  2x2  2x2
    audio s  2,2  1,1  2,2  1,1  2,1  1,1  2,1  1,1  1,5  1,1
    video p  2,4  1,2  2,2  1,1  2,1  1,1  2,1  1,1  1,5  1,1

Audio layers are strided convolutions; video layers are stride-1
convolutions followed by the pooling tuple. Batch norm and leaky relu close
every encoder layer. Both traces end at (1024, 5, 1); the branches agree on
spatial extents everywhere except video layer 1, which a pooling alignment
step shrinks before fusion.

The decoder inverts the audio trace with transposed convolutions, layer j
undoing encoder layer 11-j; the last layer emits one channel, linear, so
the output is again an 80x20 spectrogram patch.

Five wiring strategies cover the ablation grid: fuse once right after layer
1, fuse once after layer 10, plain concatenation into the bottleneck, fusion
into every decoder layer, and the full one-fusion-block-per-encoder-layer
topology whose fused maps also serve as decoder skips.

All channel widths (and the bottleneck LSTM width) divide by a constructor
parameter so a width-16 clone stays small enough for finite-difference
verification of the whole graph.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (
    ConvParams,
    DenseParams,
    FusionParams,
    SpectralParams,
    channel_attention,
    fusion_block,
    spectral_attention,
)
from .dsp import MelSegment, VideoSegment
from .formats import FormatError, load_checkpoint, save_checkpoint
from .ops import (
    BatchNormState,
    ConvSpec,
    LstmGate,
    LstmLayerParams,
    activation,
    batch_norm,
    concat_channels,
    conv2d,
    conv_transpose2d,
    lstm_forward,
    maxpool2d,
)
from .tensor import Tensor, no_grad

FILTERS = (64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024)
KERNELS = ((5, 5), (4, 4), (4, 4), (4, 4),
           (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2))
AUDIO_STRIDES = ((2, 2), (1, 1), (2, 2), (1, 1), (2, 1),
                 (1, 1), (2, 1), (1, 1), (1, 5), (1, 1))
VIDEO_POOLS = ((2, 4), (1, 2), (2, 2), (1, 1), (2, 1),
               (1, 1), (2, 1), (1, 1), (1, 5), (1, 1))
N_LAYERS = 10
# Most segments per inference forward: the batch whose memory the full-width
# benchmark measures.
INFER_CHUNK = 8
AUDIO_IN = (1, 80, 20)
VIDEO_IN = (5, 80, 80)


class ModelError(ValueError):
    pass


def _trace(start_hw: Tuple[int, int], steps: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    out = [start_hw]
    h, w = start_hw
    for sh, sw in steps:
        h, w = math.ceil(h / sh), math.ceil(w / sw)
        out.append((h, w))
    return tuple(out)


# Entry i is the spatial extent after layer i; entry 0 is the input.
AUDIO_HW_TRACE = _trace(AUDIO_IN[1:], AUDIO_STRIDES)
VIDEO_HW_TRACE = _trace(VIDEO_IN[1:], VIDEO_POOLS)


class FusionStrategy(enum.Enum):
    """Where the video stream meets the audio stream."""

    EARLY = "early"
    LATE = "late"
    INTERMEDIATE_BOTTLENECK = "mid-bottleneck"
    INTERMEDIATE_DECODER = "mid-decoder"
    MULTILAYER = "multilayer"

    @classmethod
    def from_name(cls, name: str) -> "FusionStrategy":
        for member in cls:
            if member.value == name:
                return member
        options = ", ".join(m.value for m in cls)
        raise ModelError(f"unknown fusion strategy {name!r}; options: {options}")


STRATEGY_CODES = {s: i for i, s in enumerate(FusionStrategy)}
CODE_STRATEGIES = {i: s for s, i in STRATEGY_CODES.items()}


@dataclass
class NormParams:
    gamma: Tensor
    beta: Tensor
    state: BatchNormState


@dataclass
class EncoderLayerParams:
    conv: ConvParams
    norm: NormParams


@dataclass
class DecoderLayerParams:
    deconv: ConvParams
    norm: Optional[NormParams]
    skip_reduce: Optional[ConvParams] = None


@dataclass
class MffcnParams:
    strategy: FusionStrategy
    width_divisor: int
    audio_enc: List[EncoderLayerParams]
    video_enc: List[EncoderLayerParams]
    fusion: Dict[int, FusionParams]
    bottleneck_attn: SpectralParams
    bottleneck_lstm: List[LstmLayerParams]
    ib_reduce: Optional[ConvParams]
    decoder: List[DecoderLayerParams]
    decoder_fusion: Optional[List[FusionParams]]
    named: List[Tuple[str, Tensor]] = field(default_factory=list, repr=False)
    named_states: List[Tuple[str, BatchNormState]] = field(default_factory=list, repr=False)


def scaled_filters(width_divisor: int) -> Tuple[int, ...]:
    if width_divisor < 1 or FILTERS[0] % width_divisor != 0:
        raise ModelError(
            f"width divisor must divide {FILTERS[0]}, got {width_divisor}")
    return tuple(f // width_divisor for f in FILTERS)


def _fusion_layers(strategy: FusionStrategy) -> Tuple[int, ...]:
    return {
        FusionStrategy.EARLY: (1,),
        FusionStrategy.LATE: (N_LAYERS,),
        FusionStrategy.INTERMEDIATE_BOTTLENECK: (),
        FusionStrategy.INTERMEDIATE_DECODER: (),
        FusionStrategy.MULTILAYER: tuple(range(1, N_LAYERS + 1)),
    }[strategy]


def _video_layer_count(strategy: FusionStrategy) -> int:
    return 1 if strategy is FusionStrategy.EARLY else N_LAYERS


def _build(strategy: FusionStrategy, width_divisor: int,
           tensor_factory: Optional[Callable[[str, tuple, str], Optional[Tensor]]],
           state_factory: Optional[Callable[[str, int], Optional[BatchNormState]]],
           ) -> Tuple[MffcnParams, List[Tuple[str, tuple, str]], List[Tuple[str, int]]]:
    """Single definition of the parameter topology.

    The factories may be None, in which case only the recorded name/shape
    lists are meaningful (symbolic mode for counting and validation). Kinds:
    'conv' and 'deconv' and 'fc' are fan-in-initialized weights, 'zeros' and
    'ones' are constant-initialized vectors.
    """
    widths = scaled_filters(width_divisor)
    recorded: List[Tuple[str, tuple, str]] = []
    states_recorded: List[Tuple[str, int]] = []
    named: List[Tuple[str, Tensor]] = []
    named_states: List[Tuple[str, BatchNormState]] = []

    def tensor(name: str, shape: tuple, kind: str) -> Optional[Tensor]:
        recorded.append((name, shape, kind))
        if tensor_factory is None:
            return None
        t = tensor_factory(name, shape, kind)
        named.append((name, t))
        return t

    def state(name: str, channels: int) -> Optional[BatchNormState]:
        states_recorded.append((name, channels))
        if state_factory is None:
            return None
        st = state_factory(name, channels)
        named_states.append((name, st))
        return st

    def conv_p(prefix: str, c_out: int, c_in: int, kernel: Tuple[int, int]) -> ConvParams:
        return ConvParams(
            weight=tensor(f"{prefix}.weight", (c_out, c_in) + kernel, "conv"),
            bias=tensor(f"{prefix}.bias", (c_out,), "zeros"))

    def deconv_p(prefix: str, c_in: int, c_out: int, kernel: Tuple[int, int]) -> ConvParams:
        return ConvParams(
            weight=tensor(f"{prefix}.weight", (c_in, c_out) + kernel, "deconv"),
            bias=tensor(f"{prefix}.bias", (c_out,), "zeros"))

    def dense_p(prefix: str, c_out: int, c_in: int) -> DenseParams:
        return DenseParams(
            weight=tensor(f"{prefix}.weight", (c_out, c_in), "fc"),
            bias=tensor(f"{prefix}.bias", (c_out,), "zeros"))

    def norm_p(prefix: str, channels: int) -> NormParams:
        return NormParams(
            gamma=tensor(f"{prefix}.gamma", (channels,), "ones"),
            beta=tensor(f"{prefix}.beta", (channels,), "zeros"),
            state=state(prefix, channels))

    def fusion_p(prefix: str, c: int) -> FusionParams:
        return FusionParams(
            concat_reduce=conv_p(f"{prefix}.concat_reduce", c, 2 * c, (1, 1)),
            fc_v=dense_p(f"{prefix}.fc_v", c, c),
            fc_a=dense_p(f"{prefix}.fc_a", c, c),
            post_weight=conv_p(f"{prefix}.post_weight", c, 2 * c, (1, 1)),
            spectral=SpectralParams(
                hidden=conv_p(f"{prefix}.spectral_hidden", c, c, (1, 1)),
                mask=conv_p(f"{prefix}.spectral_mask", c, c, (1, 1))))

    def lstm_p(prefix: str, hidden: int, feat: int) -> LstmLayerParams:
        gates = []
        for gate_name in ("input", "forget", "cell", "output"):
            bias_kind = "ones" if gate_name == "forget" else "zeros"
            gates.append(LstmGate(
                wx=tensor(f"{prefix}.{gate_name}.wx", (hidden, feat), "fc"),
                wh=tensor(f"{prefix}.{gate_name}.wh", (hidden, hidden), "fc"),
                bias=tensor(f"{prefix}.{gate_name}.bias", (hidden,), bias_kind)))
        return LstmLayerParams(*gates)

    audio_enc = []
    for i in range(1, N_LAYERS + 1):
        c_in = AUDIO_IN[0] if i == 1 else widths[i - 2]
        audio_enc.append(EncoderLayerParams(
            conv=conv_p(f"audio_enc.{i}.conv", widths[i - 1], c_in, KERNELS[i - 1]),
            norm=norm_p(f"audio_enc.{i}.bn", widths[i - 1])))

    video_enc = []
    for i in range(1, _video_layer_count(strategy) + 1):
        c_in = VIDEO_IN[0] if i == 1 else widths[i - 2]
        video_enc.append(EncoderLayerParams(
            conv=conv_p(f"video_enc.{i}.conv", widths[i - 1], c_in, KERNELS[i - 1]),
            norm=norm_p(f"video_enc.{i}.bn", widths[i - 1])))

    fusion = {i: fusion_p(f"fusion.{i}", widths[i - 1]) for i in _fusion_layers(strategy)}

    bottleneck_c = widths[-1]
    bottleneck_attn = SpectralParams(
        hidden=conv_p("bottleneck.attn.spectral_hidden", bottleneck_c, bottleneck_c, (1, 1)),
        mask=conv_p("bottleneck.attn.spectral_mask", bottleneck_c, bottleneck_c, (1, 1)))
    bottleneck_lstm = [lstm_p(f"bottleneck.lstm.{k}", bottleneck_c, bottleneck_c)
                       for k in (1, 2)]

    ib_reduce = None
    if strategy is FusionStrategy.INTERMEDIATE_BOTTLENECK:
        ib_reduce = conv_p("ib_reduce", bottleneck_c, 2 * bottleneck_c, (1, 1))

    decoder = []
    decoder_fusion: Optional[List[FusionParams]] = (
        [] if strategy is FusionStrategy.INTERMEDIATE_DECODER else None)
    for j in range(1, N_LAYERS + 1):
        enc_i = N_LAYERS + 1 - j
        c_here = widths[enc_i - 1]
        c_out = AUDIO_IN[0] if enc_i == 1 else widths[enc_i - 2]
        skip_reduce = None
        if strategy is FusionStrategy.MULTILAYER:
            skip_reduce = conv_p(f"decoder.{j}.skip_reduce", c_here, 2 * c_here, (1, 1))
        if decoder_fusion is not None:
            decoder_fusion.append(fusion_p(f"decoder_fusion.{j}", c_here))
        decoder.append(DecoderLayerParams(
            deconv=deconv_p(f"decoder.{j}.deconv", c_here, c_out, KERNELS[enc_i - 1]),
            norm=None if enc_i == 1 else norm_p(f"decoder.{j}.bn", c_out),
            skip_reduce=skip_reduce))

    params = MffcnParams(
        strategy=strategy,
        width_divisor=width_divisor,
        audio_enc=audio_enc,
        video_enc=video_enc,
        fusion=fusion,
        bottleneck_attn=bottleneck_attn,
        bottleneck_lstm=bottleneck_lstm,
        ib_reduce=ib_reduce,
        decoder=decoder,
        decoder_fusion=decoder_fusion,
        named=named,
        named_states=named_states)
    return params, recorded, states_recorded


def parameter_shapes(strategy: FusionStrategy, width_divisor: int = 1
                     ) -> List[Tuple[str, tuple, str]]:
    """Ordered (name, shape, kind) for every trainable tensor, no allocation."""
    _, recorded, _ = _build(strategy, width_divisor, None, None)
    return recorded


def parameter_count(strategy: FusionStrategy, width_divisor: int = 1) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_shapes(strategy, width_divisor))


def _fan_in(shape: tuple, kind: str) -> int:
    if kind == "conv":
        return int(np.prod(shape[1:]))
    if kind == "deconv":
        return shape[0] * int(np.prod(shape[2:]))
    if kind == "fc":
        return shape[1]
    raise ModelError(f"kind {kind!r} has no fan-in")


def init_params(seed: int, strategy: FusionStrategy = FusionStrategy.MULTILAYER,
                width_divisor: int = 1, dtype=np.float32) -> MffcnParams:
    """Deterministic initialization.

    Weights draw uniform(-b, b) with b = sqrt(6 / fan_in); biases start at
    zero except LSTM forget gates (one, the usual keep-everything start) and
    batch-norm gains (one).
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def tensor_factory(name: str, shape: tuple, kind: str) -> Tensor:
        if kind in ("conv", "deconv", "fc"):
            bound = math.sqrt(6.0 / _fan_in(shape, kind))
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "ones":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        return Tensor(data.astype(dtype), requires_grad=True)

    def state_factory(name: str, channels: int) -> BatchNormState:
        return BatchNormState.initial(channels, dtype=dtype)

    params, _, _ = _build(strategy, width_divisor, tensor_factory, state_factory)
    return params


# ----------------------------------------------------------------------------
# Forward graph
# ----------------------------------------------------------------------------

def _spatial(t: Tensor) -> Tuple[int, int]:
    return t.dims[-2], t.dims[-1]


def encoder_layer_audio(x: Tensor, layer_idx: int, layer: EncoderLayerParams,
                        mode: str = "train") -> Tensor:
    """Strided conv, batch norm, leaky relu."""
    expected = AUDIO_HW_TRACE[layer_idx - 1]
    if _spatial(x) != expected:
        raise ModelError(
            f"trace violation: audio layer {layer_idx} expects spatial {expected}, got {_spatial(x)}")
    spec = ConvSpec(out_channels=layer.conv.weight.dims[0],
                    kernel=KERNELS[layer_idx - 1],
                    stride=AUDIO_STRIDES[layer_idx - 1])
    x = conv2d(x, layer.conv.weight, layer.conv.bias, spec)
    x = batch_norm(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)
    return activation(x, "leaky_relu")


def encoder_layer_video(x: Tensor, layer_idx: int, layer: EncoderLayerParams,
                        mode: str = "train") -> Tensor:
    """Stride-1 conv, max pool by the layer's tuple, batch norm, leaky relu."""
    expected = VIDEO_HW_TRACE[layer_idx - 1]
    if _spatial(x) != expected:
        raise ModelError(
            f"trace violation: video layer {layer_idx} expects spatial {expected}, got {_spatial(x)}")
    spec = ConvSpec(out_channels=layer.conv.weight.dims[0],
                    kernel=KERNELS[layer_idx - 1], stride=(1, 1))
    x = conv2d(x, layer.conv.weight, layer.conv.bias, spec)
    pool = VIDEO_POOLS[layer_idx - 1]
    if pool != (1, 1):
        x = maxpool2d(x, pool)
    x = batch_norm(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)
    return activation(x, "leaky_relu")


def align_to_audio(v_feat: Tensor, layer_idx: int) -> Tensor:
    """Pool a video feature down to the audio branch's extent at this layer.

    The two traces only disagree at layer 1 (video keeps twice the width);
    the ratio is always an exact integer, so a max pool closes the gap.
    """
    vh, vw = VIDEO_HW_TRACE[layer_idx]
    ah, aw = AUDIO_HW_TRACE[layer_idx]
    if (vh, vw) == (ah, aw):
        return v_feat
    if vh % ah or vw % aw:
        raise ModelError(
            f"video extent {(vh, vw)} is not an integer multiple of audio extent {(ah, aw)}")
    return maxpool2d(v_feat, (vh // ah, vw // aw))


def bottleneck(x: Tensor, attn: SpectralParams, lstms: Sequence[LstmLayerParams]) -> Tensor:
    """Self-attention gate, then two stacked LSTMs along the frequency axis.

    By layer 10 the time axis is a single column, so the only sequence left
    to aggregate is the 5-step frequency axis; hidden size equals the channel
    count, which keeps the output shape equal to the input shape.
    """
    c = x.dims[-3]
    if _spatial(x) != AUDIO_HW_TRACE[-1]:
        raise ModelError(
            f"bottleneck expects spatial {AUDIO_HW_TRACE[-1]}, got {_spatial(x)}")
    if lstms[0].hidden_size != c or lstms[0].feature_size != c:
        raise ModelError(
            f"bottleneck LSTM is sized {lstms[0].hidden_size}, input has {c} channels")
    y = spectral_attention(x, attn)
    steps = x.dims[-2]
    if y.ndim == 3:
        seq = y.reshape(c, steps).permute(1, 0)
    else:
        b = y.dims[0]
        seq = y.reshape(b, c, steps).permute(0, 2, 1)
    for layer in lstms:
        seq = lstm_forward(seq, layer)
    if y.ndim == 3:
        return seq.permute(1, 0).reshape(c, steps, 1)
    return seq.permute(0, 2, 1).reshape(b, c, steps, 1)


def run_decoder(x: Tensor, layers: Sequence[DecoderLayerParams],
                skips: Optional[Sequence[Optional[Tensor]]] = None,
                fusion_inputs: Optional[Sequence[Optional[Tuple[Tensor, FusionParams]]]] = None,
                mode: str = "train") -> Tensor:
    """Invert the audio trace. Layer j undoes encoder layer 11-j.

    skips holds one entry per encoder layer (index i-1 for layer i) and is
    concatenated + 1x1-reduced before the matching deconv. fusion_inputs
    holds per-decoder-layer (video feature, block params) pairs applied to
    the running feature before the deconv. The last layer is linear with a
    single output channel.
    """
    for j, layer in enumerate(layers, start=1):
        enc_i = N_LAYERS + 1 - j
        if skips is not None and skips[enc_i - 1] is not None:
            skip = skips[enc_i - 1]
            if skip.dims != x.dims:
                raise ModelError(
                    f"decoder layer {j}: skip shape {skip.dims} does not match feature {x.dims}")
            if layer.skip_reduce is None:
                raise ModelError(f"decoder layer {j} was built without skip parameters")
            x = conv2d(concat_channels([x, skip]), layer.skip_reduce.weight,
                       layer.skip_reduce.bias, layer.skip_reduce.spec())
        if fusion_inputs is not None and fusion_inputs[j - 1] is not None:
            v_feat, f_params = fusion_inputs[j - 1]
            x = fusion_block(v_feat, x, f_params)
        spec = ConvSpec(out_channels=layer.deconv.weight.dims[1],
                        kernel=KERNELS[enc_i - 1],
                        stride=AUDIO_STRIDES[enc_i - 1])
        x = conv_transpose2d(x, layer.deconv.weight, layer.deconv.bias, spec,
                             out_hw=AUDIO_HW_TRACE[enc_i - 1])
        if layer.norm is not None:
            x = batch_norm(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)
            x = activation(x, "leaky_relu")
    return x


def _check_model_inputs(y: Tensor, v: Tensor) -> None:
    if y.ndim not in (3, 4) or v.ndim not in (3, 4) or y.ndim != v.ndim:
        raise ModelError(
            f"inputs must both be [C,H,W] or [B,C,H,W], got {y.dims} and {v.dims}")
    if y.dims[-3:] != AUDIO_IN:
        raise ModelError(f"audio input must be {AUDIO_IN}, got {y.dims[-3:]}")
    if v.dims[-3:] != VIDEO_IN:
        raise ModelError(f"video input must be {VIDEO_IN}, got {v.dims[-3:]}")
    if y.ndim == 4 and y.dims[0] != v.dims[0]:
        raise ModelError(f"batch mismatch: audio {y.dims[0]} vs video {v.dims[0]}")


def mffcn_forward(y: Tensor, v: Tensor, params: MffcnParams,
                  mode: str = "train",
                  strategy: Optional[FusionStrategy] = None) -> Tensor:
    """Run the network under its wiring strategy; output matches y's shape."""
    if strategy is not None and strategy is not params.strategy:
        raise ModelError(
            f"parameters were built for {params.strategy.value}, not {strategy.value}")
    strategy = params.strategy
    _check_model_inputs(y, v)

    if strategy is FusionStrategy.MULTILAYER:
        a, vv = y, v
        fused: List[Tensor] = []
        for i in range(1, N_LAYERS + 1):
            a = encoder_layer_audio(a, i, params.audio_enc[i - 1], mode)
            vv = encoder_layer_video(vv, i, params.video_enc[i - 1], mode)
            fused.append(fusion_block(align_to_audio(vv, i), a, params.fusion[i]))
        x = bottleneck(fused[-1], params.bottleneck_attn, params.bottleneck_lstm)
        return run_decoder(x, params.decoder, skips=fused, mode=mode)

    if strategy is FusionStrategy.EARLY:
        a = encoder_layer_audio(y, 1, params.audio_enc[0], mode)
        vv = encoder_layer_video(v, 1, params.video_enc[0], mode)
        a = fusion_block(align_to_audio(vv, 1), a, params.fusion[1])
        for i in range(2, N_LAYERS + 1):
            a = encoder_layer_audio(a, i, params.audio_enc[i - 1], mode)
        x = bottleneck(a, params.bottleneck_attn, params.bottleneck_lstm)
        return run_decoder(x, params.decoder, mode=mode)

    if strategy is FusionStrategy.LATE:
        a, vv = y, v
        for i in range(1, N_LAYERS + 1):
            a = encoder_layer_audio(a, i, params.audio_enc[i - 1], mode)
            vv = encoder_layer_video(vv, i, params.video_enc[i - 1], mode)
        o = fusion_block(align_to_audio(vv, N_LAYERS), a, params.fusion[N_LAYERS])
        x = bottleneck(o, params.bottleneck_attn, params.bottleneck_lstm)
        return run_decoder(x, params.decoder, mode=mode)

    if strategy is FusionStrategy.INTERMEDIATE_BOTTLENECK:
        a, vv = y, v
        for i in range(1, N_LAYERS + 1):
            a = encoder_layer_audio(a, i, params.audio_enc[i - 1], mode)
            vv = encoder_layer_video(vv, i, params.video_enc[i - 1], mode)
        merged = conv2d(concat_channels([a, align_to_audio(vv, N_LAYERS)]),
                        params.ib_reduce.weight, params.ib_reduce.bias,
                        params.ib_reduce.spec())
        x = bottleneck(merged, params.bottleneck_attn, params.bottleneck_lstm)
        return run_decoder(x, params.decoder, mode=mode)

    # Fusion into every decoder layer: audio encodes alone, the video trace
    # is kept around and injected in front of each deconv.
    a, vv = y, v
    video_feats: List[Tensor] = []
    for i in range(1, N_LAYERS + 1):
        a = encoder_layer_audio(a, i, params.audio_enc[i - 1], mode)
        vv = encoder_layer_video(vv, i, params.video_enc[i - 1], mode)
        video_feats.append(align_to_audio(vv, i))
    x = bottleneck(a, params.bottleneck_attn, params.bottleneck_lstm)
    pairs = [(video_feats[N_LAYERS - j], params.decoder_fusion[j - 1])
             for j in range(1, N_LAYERS + 1)]
    return run_decoder(x, params.decoder, fusion_inputs=pairs, mode=mode)


def enhance_segments(noisy: Sequence[MelSegment], videos: Sequence[VideoSegment],
                     params: MffcnParams) -> List[MelSegment]:
    """Typed batched inference: eval-mode batch norm, no taping.

    The aligned segments run as [B,1,80,20] / [B,5,80,80] batches, one
    forward per chunk of at most INFER_CHUNK segments, so memory stays that
    of a batch-8 forward however long the input is. Returns one enhanced
    segment per input, in order, each labelled with its input's origin.
    """
    if len(noisy) != len(videos):
        raise ModelError(f"{len(noisy)} audio segments but {len(videos)} video segments")
    if not noisy:
        raise ModelError("no segments to enhance")
    enhanced: List[MelSegment] = []
    for lo in range(0, len(noisy), INFER_CHUNK):
        chunk = range(lo, min(lo + INFER_CHUNK, len(noisy)))
        y = Tensor(np.stack([noisy[k].values[None] for k in chunk], dtype=np.float32))
        v = Tensor(np.stack([videos[k].frames for k in chunk], dtype=np.float32))
        with no_grad():
            out = mffcn_forward(y, v, params, mode="eval")
        enhanced += [MelSegment(o[0], origin=f"enhanced({noisy[k].origin})")
                     for k, o in zip(chunk, out.data)]
    return enhanced


def enhance_segment(noisy: MelSegment, video: VideoSegment, params: MffcnParams) -> MelSegment:
    """Typed single-segment inference: enhance_segments on one segment."""
    return enhance_segments([noisy], [video], params)[0]


# ----------------------------------------------------------------------------
# Shape trace (symbolic, no tensor allocation)
# ----------------------------------------------------------------------------

def shape_trace(width_divisor: int = 1) -> dict:
    """Layer-by-layer shape tables derived purely from the schedule."""
    widths = scaled_filters(width_divisor)
    audio = [AUDIO_IN[:1] + AUDIO_HW_TRACE[0]]
    video = [VIDEO_IN[:1] + VIDEO_HW_TRACE[0]]
    for i in range(1, N_LAYERS + 1):
        audio.append((widths[i - 1],) + AUDIO_HW_TRACE[i])
        video.append((widths[i - 1],) + VIDEO_HW_TRACE[i])
    decoder = []
    for j in range(1, N_LAYERS + 1):
        enc_i = N_LAYERS + 1 - j
        c_out = AUDIO_IN[0] if enc_i == 1 else widths[enc_i - 2]
        decoder.append((c_out,) + AUDIO_HW_TRACE[enc_i - 1])
    return {
        "width_divisor": width_divisor,
        "audio": audio,
        "video": video,
        "decoder": decoder,
        "kernels": list(KERNELS),
        "audio_strides": list(AUDIO_STRIDES),
        "video_pools": list(VIDEO_POOLS),
        "parameter_counts": {
            s.value: parameter_count(s, width_divisor) for s in FusionStrategy
        },
    }


# ----------------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------------

def save_model(path: str, params: MffcnParams) -> None:
    """Write parameters, running statistics, and build metadata."""
    entries: Dict[str, np.ndarray] = {
        "meta.width_divisor": np.array([params.width_divisor], dtype=np.float32),
        "meta.strategy": np.array([STRATEGY_CODES[params.strategy]], dtype=np.float32),
    }
    for name, t in params.named:
        entries[name] = t.data.astype(np.float32, copy=False)
    for name, st in params.named_states:
        entries[f"{name}.running_mean"] = st.mean.astype(np.float32, copy=False)
        entries[f"{name}.running_var"] = st.var.astype(np.float32, copy=False)
    save_checkpoint(path, entries)


def load_model(path: str) -> MffcnParams:
    """Rebuild a model from a checkpoint, validating the full name set."""
    entries = load_checkpoint(path)
    try:
        width_divisor = int(entries.pop("meta.width_divisor")[0])
        code = int(entries.pop("meta.strategy")[0])
    except KeyError as missing:
        raise FormatError(f"{path}: checkpoint lacks the {missing} metadata entry")
    if code not in CODE_STRATEGIES:
        raise FormatError(f"{path}: unknown strategy code {code}")
    strategy = CODE_STRATEGIES[code]

    def tensor_factory(name: str, shape: tuple, kind: str) -> Tensor:
        if name not in entries:
            raise FormatError(f"{path}: checkpoint is missing parameter {name!r}")
        arr = entries.pop(name)
        if arr.shape != shape:
            raise FormatError(
                f"{path}: parameter {name!r} has shape {arr.shape}, expected {shape}")
        return Tensor(arr, requires_grad=True)

    def state_factory(name: str, channels: int) -> BatchNormState:
        mean = entries.pop(f"{name}.running_mean", None)
        var = entries.pop(f"{name}.running_var", None)
        if mean is None or var is None or mean.shape != (channels,) or var.shape != (channels,):
            raise FormatError(f"{path}: checkpoint lacks valid running stats for {name!r}")
        return BatchNormState(mean=mean.copy(), var=var.copy())

    params, _, _ = _build(strategy, width_divisor, tensor_factory, state_factory)
    if entries:
        extra = ", ".join(sorted(entries)[:5])
        raise FormatError(f"{path}: checkpoint holds unknown entries: {extra}")
    return params
