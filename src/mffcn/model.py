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
topology. WIRINGS is the one place a wiring is defined; the parameter builder
and the forward both read it. Under early and late fusion the fused map
replaces the audio stream. Under multilayer fusion the audio stream continues
unfused while each layer's fused map feeds its decoder skip (and, at layer 10,
the bottleneck).

All channel widths (and the bottleneck LSTM width) divide by a constructor
parameter so a width-16 clone stays small enough for finite-difference
verification of the whole graph.

Shapes are checked once, at mffcn_forward's entry (_check_model_inputs);
from there the fixed schedule fixes every intermediate shape, so the layer
helpers check nothing themselves, and each op still refuses an input it
cannot take with a ShapeError naming the op. shape_trace reads its tables
off the same schedule, with no tensor allocated.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .attention import (
    ConvParams,
    FusionParams,
    SpectralParams,
    fusion_block,
    spectral_attention,
)
from .dsp import N_MELS, SEG_FRAMES, SEG_VIDEO_FRAMES, VIDEO_HW, MelSegment, VideoSegment
from .formats import FormatError, in_file, load_checkpoint, save_checkpoint
from .ops import (
    BatchNormState,
    ConvSpec,
    LstmGate,
    LstmLayerParams,
    concat_channels,
    conv2d,
    conv_transpose2d,
    lstm_forward,
    maxpool2d,
    norm_leaky,
)
from .tensor import NonFiniteError, Tensor, active_tape, no_grad

FILTERS = (64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024)
WIDTH_DIVISORS = tuple(d for d in range(1, FILTERS[0] + 1) if FILTERS[0] % d == 0)
KERNELS = ((5, 5), (4, 4), (4, 4), (4, 4),
           (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2))
AUDIO_STRIDES = ((2, 2), (1, 1), (2, 2), (1, 1), (2, 1),
                 (1, 1), (2, 1), (1, 1), (1, 5), (1, 1))
# Built once: each layer call passes its spec rather than constructing one.
AUDIO_SPECS = tuple(ConvSpec(s) for s in AUDIO_STRIDES)
UNIT_SPEC = ConvSpec()
VIDEO_POOLS = ((2, 4), (1, 2), (2, 2), (1, 1), (2, 1),
               (1, 1), (2, 1), (1, 1), (1, 5), (1, 1))
N_LAYERS = 10
# Most segments per inference forward: the batch whose memory the full-width
# benchmark measures.
INFER_CHUNK = 8
AUDIO_IN = (1, N_MELS, SEG_FRAMES)
VIDEO_IN = (SEG_VIDEO_FRAMES,) + VIDEO_HW


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
    fusion: Optional[FusionParams] = None


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
    named: List[Tuple[str, Tensor]] = field(default_factory=list, repr=False)
    named_states: List[Tuple[str, BatchNormState]] = field(default_factory=list, repr=False)


def scaled_filters(width_divisor: int) -> Tuple[int, ...]:
    if width_divisor not in WIDTH_DIVISORS:
        raise ModelError(
            f"width divisor must divide {FILTERS[0]}, got {width_divisor}")
    return tuple(f // width_divisor for f in FILTERS)


@dataclass(frozen=True)
class Wiring:
    """One strategy's topology as plain data.

    fuse: encoder layers followed by a fusion block of the aligned video
    feature into the audio feature. video_layers: how many video encoder
    layers exist. skips: fused maps feed the decoder skips (layer 10's also
    the bottleneck) while the audio stream continues unfused; otherwise a
    fused map replaces the audio stream. ib_reduce: the bottleneck input is
    the 1x1-reduced concatenation of both layer-10 features. decoder_fusion:
    every decoder layer fuses the matching video feature in before its
    deconv.
    """

    fuse: Tuple[int, ...] = ()
    video_layers: int = N_LAYERS
    skips: bool = False
    ib_reduce: bool = False
    decoder_fusion: bool = False


WIRINGS: Dict[FusionStrategy, Wiring] = {
    FusionStrategy.EARLY: Wiring(fuse=(1,), video_layers=1),
    FusionStrategy.LATE: Wiring(fuse=(N_LAYERS,)),
    FusionStrategy.INTERMEDIATE_BOTTLENECK: Wiring(ib_reduce=True),
    FusionStrategy.INTERMEDIATE_DECODER: Wiring(decoder_fusion=True),
    FusionStrategy.MULTILAYER: Wiring(fuse=tuple(range(1, N_LAYERS + 1)), skips=True),
}


def _build(strategy: FusionStrategy, width_divisor: int,
           tensor_factory: Callable[[str, tuple, str], Tensor],
           state_factory: Callable[[str, int], BatchNormState]) -> MffcnParams:
    """Single definition of the parameter topology.

    tensor_factory(name, shape, kind) makes each trainable tensor, in
    parameter and checkpoint order. Kinds: 'conv', 'deconv' and 'fc' are
    fan-in-initialized weights, 'zeros' and 'ones' are constant-initialized
    vectors. state_factory(name, channels) makes each batch-norm state.
    parameter_shapes passes factories that only record and return None.
    """
    widths = scaled_filters(width_divisor)
    wiring = WIRINGS[strategy]
    named: List[Tuple[str, Tensor]] = []
    named_states: List[Tuple[str, BatchNormState]] = []

    def tensor(name: str, shape: tuple, kind: str) -> Tensor:
        t = tensor_factory(name, shape, kind)
        named.append((name, t))
        return t

    def state(name: str, channels: int) -> BatchNormState:
        st = state_factory(name, channels)
        named_states.append((name, st))
        return st

    def affine(prefix: str, shape: tuple, kind: str) -> ConvParams:
        """A weight and its zero bias, one entry per output channel."""
        return ConvParams(weight=tensor(f"{prefix}.weight", shape, kind),
                          bias=tensor(f"{prefix}.bias", (shape[kind == "deconv"],), "zeros"))

    def norm_p(prefix: str, channels: int) -> NormParams:
        return NormParams(
            gamma=tensor(f"{prefix}.gamma", (channels,), "ones"),
            beta=tensor(f"{prefix}.beta", (channels,), "zeros"),
            state=state(prefix, channels))

    def spectral_p(prefix: str, c: int) -> SpectralParams:
        return SpectralParams(hidden=affine(f"{prefix}.spectral_hidden", (c, c, 1, 1), "conv"),
                              mask=affine(f"{prefix}.spectral_mask", (c, c, 1, 1), "conv"))

    def fusion_p(prefix: str, c: int) -> FusionParams:
        return FusionParams(
            concat_reduce=affine(f"{prefix}.concat_reduce", (c, 2 * c, 1, 1), "conv"),
            fc_v=affine(f"{prefix}.fc_v", (c, c), "fc"),
            fc_a=affine(f"{prefix}.fc_a", (c, c), "fc"),
            post_weight=affine(f"{prefix}.post_weight", (c, 2 * c, 1, 1), "conv"),
            spectral=spectral_p(prefix, c))

    def lstm_p(prefix: str, hidden: int, feat: int) -> LstmLayerParams:
        gates = []
        for gate_name in ("input", "forget", "cell", "output"):
            bias_kind = "ones" if gate_name == "forget" else "zeros"
            gates.append(LstmGate(
                wx=tensor(f"{prefix}.{gate_name}.wx", (hidden, feat), "fc"),
                wh=tensor(f"{prefix}.{gate_name}.wh", (hidden, hidden), "fc"),
                bias=tensor(f"{prefix}.{gate_name}.bias", (hidden,), bias_kind)))
        return LstmLayerParams(*gates)

    def encoder_p(branch: str, c_in: int, n_layers: int) -> List[EncoderLayerParams]:
        channels = (c_in,) + widths
        return [EncoderLayerParams(
            conv=affine(f"{branch}.{i}.conv", (channels[i], channels[i - 1]) + KERNELS[i - 1], "conv"),
            norm=norm_p(f"{branch}.{i}.bn", channels[i]))
            for i in range(1, n_layers + 1)]

    audio_enc = encoder_p("audio_enc", AUDIO_IN[0], N_LAYERS)
    video_enc = encoder_p("video_enc", VIDEO_IN[0], wiring.video_layers)
    fusion = {i: fusion_p(f"fusion.{i}", widths[i - 1]) for i in wiring.fuse}

    bottleneck_c = widths[-1]
    bottleneck_attn = spectral_p("bottleneck.attn", bottleneck_c)
    bottleneck_lstm = [lstm_p(f"bottleneck.lstm.{k}", bottleneck_c, bottleneck_c)
                       for k in (1, 2)]

    ib_reduce = (affine("ib_reduce", (bottleneck_c, 2 * bottleneck_c, 1, 1), "conv")
                 if wiring.ib_reduce else None)

    channels = (AUDIO_IN[0],) + widths
    decoder = []
    for j in range(1, N_LAYERS + 1):
        enc_i = N_LAYERS + 1 - j
        c_here, c_out = channels[enc_i], channels[enc_i - 1]
        # creation order is parameter and checkpoint order: skip projection,
        # fusion block, deconv, norm
        skip_reduce = (affine(f"decoder.{j}.skip_reduce", (c_here, 2 * c_here, 1, 1), "conv")
                       if wiring.skips else None)
        dec_fusion = fusion_p(f"decoder_fusion.{j}", c_here) if wiring.decoder_fusion else None
        decoder.append(DecoderLayerParams(
            deconv=affine(f"decoder.{j}.deconv", (c_here, c_out) + KERNELS[enc_i - 1], "deconv"),
            norm=None if enc_i == 1 else norm_p(f"decoder.{j}.bn", c_out),
            skip_reduce=skip_reduce,
            fusion=dec_fusion))

    return MffcnParams(
        strategy=strategy,
        width_divisor=width_divisor,
        audio_enc=audio_enc,
        video_enc=video_enc,
        fusion=fusion,
        bottleneck_attn=bottleneck_attn,
        bottleneck_lstm=bottleneck_lstm,
        ib_reduce=ib_reduce,
        decoder=decoder,
        named=named,
        named_states=named_states)


def parameter_shapes(strategy: FusionStrategy, width_divisor: int = 1
                     ) -> List[Tuple[str, tuple, str]]:
    """Ordered (name, shape, kind) for every trainable tensor, no allocation."""
    shapes: List[Tuple[str, tuple, str]] = []
    _build(strategy, width_divisor, lambda *entry: shapes.append(entry), lambda name, channels: None)
    return shapes


def parameter_count(strategy: FusionStrategy, width_divisor: int = 1) -> int:
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_shapes(strategy, width_divisor))


def _fan_in(shape: tuple, kind: str) -> int:
    """Inputs per output unit: every axis but the output-channel one (axis 1 of a deconv)."""
    return math.prod(shape) // shape[kind == "deconv"]


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

    return _build(strategy, width_divisor, tensor_factory, state_factory)


# ----------------------------------------------------------------------------
# Forward graph
# ----------------------------------------------------------------------------

def encoder_layer_audio(x: Tensor, layer_idx: int, layer: EncoderLayerParams,
                        mode: str = "train") -> Tensor:
    """Strided conv, batch norm, leaky relu."""
    x = conv2d(x, layer.conv.weight, layer.conv.bias, AUDIO_SPECS[layer_idx - 1])
    return norm_leaky(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)


def encoder_layer_video(x: Tensor, layer_idx: int, layer: EncoderLayerParams,
                        mode: str = "train") -> Tensor:
    """Stride-1 conv, max pool by the layer's tuple, batch norm, leaky relu."""
    x = conv2d(x, layer.conv.weight, layer.conv.bias, UNIT_SPEC)
    pool = VIDEO_POOLS[layer_idx - 1]
    if pool != (1, 1):
        x = maxpool2d(x, pool)
    return norm_leaky(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)


def align_to_audio(v_feat: Tensor, layer_idx: int) -> Tensor:
    """Pool a video feature down to the audio branch's extent at this layer.

    The two traces only disagree at layer 1 (video keeps twice the width);
    the ratio is always an exact integer (a test checks the traces), so a
    max pool closes the gap. At every other layer the feature comes back
    as it is.
    """
    vh, vw = VIDEO_HW_TRACE[layer_idx]
    ah, aw = AUDIO_HW_TRACE[layer_idx]
    if (vh, vw) == (ah, aw):
        return v_feat
    return maxpool2d(v_feat, (vh // ah, vw // aw))


def bottleneck(x: Tensor, attn: SpectralParams, lstms: Sequence[LstmLayerParams]) -> Tensor:
    """Self-attention gate, then two stacked LSTMs along the frequency axis.

    By layer 10 the time axis is a single column, so the only sequence left
    to aggregate is the 5-step frequency axis, read channel-first as the
    map holds it: the channels are the LSTM features. Hidden size equals the
    channel count, which keeps the output shape equal to the input shape.
    """
    y = spectral_attention(x, attn)
    b, c, steps = x.dims[:3]
    seq = y.reshape(b, c, steps)
    for layer in lstms:
        seq = lstm_forward(seq, layer)
    return seq.reshape(b, c, steps, 1)


class ForwardMemo:
    """The node outputs of one eval forward, reused by forwards that change one tensor.

    The forward walks named nodes: one encoder layer (audio_enc.i,
    video_enc.i), one fusion block with its alignment (fusion.i), ib_reduce,
    the bottleneck or one decoder layer (decoder.j, its decoder_fusion.j block
    included), each named by the prefix of the parameters it owns, plus the
    parameterless align.i pools that feed decoder fusion. A forward handed an
    empty memo records every node's inputs and output. A later forward over
    the same model never writes into it: a node reruns if it owns the tensor
    named by the last perturb(), or if one of its inputs is not the very
    object recorded, and otherwise hands back its recorded output. So the
    memo must be filled at the point later forwards perturb around, with the
    same y and v objects those forwards pass.
    """

    def __init__(self) -> None:
        self.params: Optional[MffcnParams] = None  # the model, once a forward filled the memo
        self.nodes: Dict[str, Tuple[tuple, Tensor]] = {}
        self.owner = ""

    def perturb(self, param_name: str) -> None:
        """Name the one parameter tensor that may differ from the filling forward."""
        head, index = (param_name.split(".") + [""])[:2]
        head = "decoder" if head == "decoder_fusion" else head
        self.owner = f"{head}.{index}" if index.isdigit() else head

    def run(self, name: str, inputs: tuple, fn: Callable[[], Tensor]) -> Tensor:
        if self.params is None:
            self.nodes[name] = (inputs, fn())
            return self.nodes[name][1]
        seen, out = self.nodes[name]
        if name == self.owner or not all(map(operator.is_, inputs, seen)):
            return fn()
        return out


def _node(memo: Optional[ForwardMemo], name: str, inputs: tuple,
          fn: Callable[[], Tensor]) -> Tensor:
    """fn(), the forward node called name over inputs, through the memo if one is given."""
    return fn() if memo is None else memo.run(name, inputs, fn)


def decoder_layer(x: Tensor, enc_i: int, layer: DecoderLayerParams, skip: Optional[Tensor],
                  video_feat: Optional[Tensor], mode: str = "train") -> Tensor:
    """The decoder layer that undoes encoder layer enc_i.

    Before its deconv, a layer built with skip_reduce concatenates skip onto
    the running feature and 1x1-reduces it, and a layer built with a fusion
    block fuses video_feat in. The last layer is linear with a single output
    channel.
    """
    if layer.skip_reduce is not None:
        x = conv2d(concat_channels([x, skip]), layer.skip_reduce.weight,
                   layer.skip_reduce.bias, UNIT_SPEC)
    if layer.fusion is not None:
        x = fusion_block(video_feat, x, layer.fusion)
    x = conv_transpose2d(x, layer.deconv.weight, layer.deconv.bias,
                         AUDIO_SPECS[enc_i - 1], out_hw=AUDIO_HW_TRACE[enc_i - 1])
    if layer.norm is not None:
        x = norm_leaky(x, layer.norm.gamma, layer.norm.beta, layer.norm.state, mode)
    return x


def run_decoder(x: Tensor, layers: Sequence[DecoderLayerParams],
                skips: Sequence[Tensor], video_feats: Sequence[Tensor],
                mode: str = "train", *, memo: Optional[ForwardMemo] = None) -> Tensor:
    """Invert the audio trace: node decoder.j, for j = 1..10, undoes encoder layer 11-j.

    skips and video_feats hold one entry per encoder layer (index i-1 for
    layer i); a layer reads its entry only if it is built to use it.
    """
    for j, layer in enumerate(layers, start=1):
        enc_i = N_LAYERS + 1 - j
        skip = skips[enc_i - 1] if layer.skip_reduce is not None else None
        feat = video_feats[enc_i - 1] if layer.fusion is not None else None
        x = _node(memo, f"decoder.{j}", (x, skip, feat),
                  lambda: decoder_layer(x, enc_i, layer, skip, feat, mode))
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


def mffcn_forward(y: Tensor, v: Tensor, params: MffcnParams, mode: str = "train",
                  *, memo: Optional[ForwardMemo] = None) -> Tensor:
    """Run the network under its strategy's wiring; output matches y's shape.

    y and v are [B,1,80,20] / [B,5,80,80] batches, which every op below
    takes, or one [1,80,20] / [5,80,80] segment, which runs as a batch of
    one and comes back without the batch axis.

    memo, accepted only in eval mode with no tape recording, is a
    ForwardMemo: an empty one is filled with every node's output, and a
    filled one makes this forward rerun only the node that owns the tensor
    it names and the nodes downstream of it.
    """
    _check_model_inputs(y, v)
    if memo is not None and (mode != "eval" or active_tape() is not None):
        raise ModelError(f"a forward memo needs eval mode and no recording tape, got mode {mode!r}")
    if memo is not None and memo.params is not None and memo.params is not params:
        raise ModelError("the forward memo was filled by a forward over another model")
    wiring = WIRINGS[params.strategy]
    single = y.ndim == 3
    a, vv = (y.reshape(1, *y.dims), v.reshape(1, *v.dims)) if single else (y, v)
    skips: List[Tensor] = []
    video_feats: List[Tensor] = []
    for i in range(1, N_LAYERS + 1):
        a = _node(memo, f"audio_enc.{i}", (a,),
                  lambda: encoder_layer_audio(a, i, params.audio_enc[i - 1], mode))
        if i > wiring.video_layers:
            continue
        vv = _node(memo, f"video_enc.{i}", (vv,),
                   lambda: encoder_layer_video(vv, i, params.video_enc[i - 1], mode))
        if wiring.decoder_fusion:
            video_feats.append(_node(memo, f"align.{i}", (vv,), lambda: align_to_audio(vv, i)))
        if i in wiring.fuse:
            fused = _node(memo, f"fusion.{i}", (vv, a),
                          lambda: fusion_block(align_to_audio(vv, i), a, params.fusion[i]))
            if wiring.skips:
                skips.append(fused)
            else:
                a = fused
    x = skips[-1] if wiring.skips else a
    if wiring.ib_reduce:
        x = _node(memo, "ib_reduce", (x, vv), lambda: conv2d(
            concat_channels([x, align_to_audio(vv, N_LAYERS)]),
            params.ib_reduce.weight, params.ib_reduce.bias, UNIT_SPEC))
    x = _node(memo, "bottleneck", (x,),
              lambda: bottleneck(x, params.bottleneck_attn, params.bottleneck_lstm))
    out = run_decoder(x, params.decoder, skips, video_feats, mode, memo=memo)
    if memo is not None and memo.params is None:
        memo.params = params
    return out.reshape(*y.dims) if single else out


def segment_batch(noisy: Sequence[MelSegment], videos: Sequence[VideoSegment]) -> Tuple[Tensor, Tensor]:
    """The network's float32 input batch: [B,1,80,20] Mel values and [B,5,80,80] frames."""
    return (Tensor(np.stack([s.values[None] for s in noisy], dtype=np.float32)),
            Tensor(np.stack([s.frames for s in videos], dtype=np.float32)))


def enhance_segments(noisy: Sequence[MelSegment], videos: Sequence[VideoSegment],
                     params: MffcnParams) -> List[MelSegment]:
    """Typed batched inference: eval-mode batch norm, no taping.

    The aligned segments run as [B,1,80,20] / [B,5,80,80] batches, one
    forward per chunk of at most INFER_CHUNK segments, so memory stays that
    of a batch-8 forward however long the input is. Returns one enhanced
    segment per input, in order.
    """
    if len(noisy) != len(videos):
        raise ModelError(f"{len(noisy)} audio segments but {len(videos)} video segments")
    if not noisy:
        raise ModelError("no segments to enhance")
    enhanced: List[MelSegment] = []
    for lo in range(0, len(noisy), INFER_CHUNK):
        y, v = segment_batch(noisy[lo:lo + INFER_CHUNK], videos[lo:lo + INFER_CHUNK])
        with no_grad():
            out = mffcn_forward(y, v, params, mode="eval")
        enhanced += [MelSegment(o[0]) for o in out.data]
    return enhanced


# ----------------------------------------------------------------------------
# Shape trace (symbolic, no tensor allocation)
# ----------------------------------------------------------------------------

def shape_trace(width_divisor: int = 1) -> dict:
    """Layer-by-layer (C, H, W) tables read off the schedule.

    Entry i of audio and video is the map after layer i, entry 0 the input.
    Decoder layer j ends at the input of encoder layer 11-j, so the decoder
    table is the audio table reversed, without its last entry.
    """
    widths = scaled_filters(width_divisor)
    audio = [(c,) + hw for c, hw in zip((AUDIO_IN[0],) + widths, AUDIO_HW_TRACE)]
    video = [(c,) + hw for c, hw in zip((VIDEO_IN[0],) + widths, VIDEO_HW_TRACE)]
    return {
        "audio": audio,
        "video": video,
        "decoder": audio[-2::-1],
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


def _meta_int(entries: Dict[str, np.ndarray], key: str, allowed: Sequence[int]) -> int:
    """Pop a one-element metadata entry that must hold one of the allowed integers."""
    if key not in entries:
        raise FormatError(f"checkpoint lacks the {key!r} metadata entry")
    values = entries.pop(key).reshape(-1).tolist()
    if len(values) != 1 or values[0] not in allowed:
        raise FormatError(f"{key} must be one of {list(allowed)}, got {values}")
    return int(values[0])


def load_model(path: str) -> MffcnParams:
    """Rebuild a model from a checkpoint, validating the full name set."""
    with in_file(path):
        entries = load_checkpoint(path)
        width_divisor = _meta_int(entries, "meta.width_divisor", WIDTH_DIVISORS)
        strategy = CODE_STRATEGIES[_meta_int(entries, "meta.strategy", sorted(CODE_STRATEGIES))]

        def tensor_factory(name: str, shape: tuple, kind: str) -> Tensor:
            if name not in entries:
                raise FormatError(f"checkpoint is missing parameter {name!r}")
            arr = entries.pop(name)
            if arr.shape != shape:
                raise FormatError(f"parameter {name!r} has shape {arr.shape}, expected {shape}")
            try:
                return Tensor(arr, requires_grad=True)  # the one NaN/Inf scan of a parameter
            except NonFiniteError:
                raise FormatError(f"record {name!r}: tensor payload holds NaN or Inf values") from None

        def state_factory(name: str, channels: int) -> BatchNormState:
            mean = entries.pop(f"{name}.running_mean", None)
            var = entries.pop(f"{name}.running_var", None)
            if mean is None or var is None or mean.shape != (channels,) or var.shape != (channels,):
                raise FormatError(f"checkpoint lacks valid running stats for {name!r}")
            for record, arr in ((f"{name}.running_mean", mean), (f"{name}.running_var", var)):
                if not np.isfinite(arr).all():
                    raise FormatError(f"record {record!r}: tensor payload holds NaN or Inf values")
            return BatchNormState(mean=mean.copy(), var=var.copy())

        params = _build(strategy, width_divisor, tensor_factory, state_factory)
        if entries:
            extra = ", ".join(sorted(entries)[:5])
            raise FormatError(f"checkpoint holds unknown entries: {extra}")
    return params
