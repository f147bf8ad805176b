"""Finite-difference verification of the reverse-mode engine.

The oracle is a central difference with first step 1e-3, evaluated in float64
and compared coordinate by coordinate against the tape's gradient. A relative
error uses max(|analytic|, |numeric|, 1e-6) as denominator so near-zero
coordinates do not blow up the ratio; a coordinate passes when its error is
below the threshold, 1e-4 by default. Both suites tape one float64 copy of
their inputs, check that the loss on it equals the loss on a second copy
that shares no data with it, and probe the first copy in place: every
probed coordinate walks eps_ladder until it passes, and fails only if it
misses at every step.

The per-op suite probes every operation the program tapes on small random
inputs (extents at most 6, five seeds by default) over all coordinates. It
is one table, OP_TABLE: each row is a draw function that takes a seeded
generator and returns an op's inputs and the op, and check_op projects the
output on a fixed random direction (an output with no axes is the loss
itself) before handing the loss to the oracle. The network suite
differentiates the full model under a mean-squared loss and spot-checks one
random coordinate per parameter tensor, drawn fresh per seed, since probing
all of its millions is far beyond any sane budget. It builds models only
with init_params, and each probe is one eval forward that, through a
ForwardMemo, reruns only the nodes from the perturbed tensor's owner on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import attention, model, ops
from .attention import ConvParams, FusionParams, SpectralParams
from .model import AUDIO_IN, VIDEO_IN, FusionStrategy, init_params
from .ops import BatchNormState, ConvSpec, LstmGate, LstmLayerParams
from .tensor import NonFiniteError, Tape, Tensor, TensorError
from .train import mse_loss

FD_EPS = 1e-3
MODEL_FD_EPS = 1e-4  # the whole-network check's first step (see run_model_check)
REL_TOL = 1e-4
REL_FLOOR = 1e-6


def _central_diff(fn, base_args, pos, idx, eps) -> float:
    """(fn(x + eps e_idx) - fn(x - eps e_idx)) / 2 eps, probed in place.

    Only base_args[pos].data[idx] changes, and it gets its saved value back
    bit for bit however fn returns. The rest of the input was validated when
    its tensor was built, so the perturbed scalar is the only one to check.
    """
    data = base_args[pos].data
    saved = data[idx]
    try:
        values = []
        for probed in (saved + eps, saved - eps):
            if not np.isfinite(probed):
                raise NonFiniteError("tensor holds NaN or Inf values")
            data[idx] = probed
            values.append(fn(base_args).item())
    finally:
        data[idx] = saved
    return (values[0] - values[1]) / (2.0 * eps)


def eps_ladder(eps: float) -> Tuple[float, float, float]:
    """The finite-difference steps a coordinate is probed at, in order, until it passes."""
    return (eps, eps / 10.0, eps / 30.0)


def _ladder_error(fn, base_args, pos, idx, analytic: float, steps, tol: float):
    """(rel error, step) at the first step that brings the coordinate below tol, else the last."""
    for h in steps:
        numeric = _central_diff(fn, base_args, pos, idx, h)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), REL_FLOOR)
        if rel < tol:
            break
    return rel, h


class GradientMismatch(TensorError):
    """A gradient check failed; err is the failing input's worst relative error."""

    def __init__(self, message: str, err: float):
        super().__init__(message)
        self.err = err


def check_gradients(fn: Callable[[Sequence[Tensor]], Tensor],
                    inputs: Sequence[Tensor],
                    tol: float = REL_TOL) -> float:
    """Tape the function, differentiate, and compare against finite differences.

    Returns the worst relative error across all checked coordinates; raises
    GradientMismatch when an input's worst error is not below tol. The
    inputs are copied to float64, so callers can hand in float32 parameters.
    fn gets those copies when taped, at the base point and at every probe,
    and fresh copies of them once: it must be deterministic, and must not
    mutate its arguments or keep them past the call. Each coordinate keeps
    the error of the first step of eps_ladder(FD_EPS) it passes at, or of
    the last: the truncation error of a central difference shrinks with its
    step, a wrong gradient's gap does not.
    """
    args = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    with Tape() as tape:
        tape.backward(fn(args))
    first = fn(args).item()
    second = fn([Tensor(t.data.copy()) for t in args]).item()
    if first != second:
        raise TensorError(
            f"function is not deterministic: repeated evaluation gave {first} then {second}")

    worst = 0.0
    for pos, t in enumerate(args):
        err = 0.0
        for idx in np.ndindex(*t.dims):
            analytic = float(t.grad[idx]) if t.grad is not None else 0.0
            rel, _ = _ladder_error(fn, args, pos, idx, analytic, eps_ladder(FD_EPS), tol)
            err = max(err, rel)
        worst = max(worst, err)
        if err >= tol:
            raise GradientMismatch(
                f"gradient mismatch on input {pos}: max relative error {err:.3e} >= {tol:.0e}", err)
    return worst


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def random_projection(seed: int, shape: tuple) -> np.ndarray:
    """Fixed random direction used to reduce a tensor output to a scalar loss."""
    return _rng(seed).standard_normal(shape)


def projected_loss(out: Tensor, direction: np.ndarray) -> Tensor:
    """Scalar loss <out, direction> built from taped primitives (shapes must match)."""
    return (out * Tensor(direction.astype(out.dtype))).sum()


# ----------------------------------------------------------------------------
# Per-op check suite
# ----------------------------------------------------------------------------

def _rand_shape(rng: np.random.Generator) -> tuple:
    rank = int(rng.integers(1, 4))
    return tuple(int(rng.integers(1, 7)) for _ in range(rank))


def _normal(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape))


def _away_from_zero(rng: np.random.Generator, shape) -> Tensor:
    """Values with |x| in (0.1, 1.1): a finite-difference step cannot cross 0."""
    mag = rng.uniform(0.1, 1.1, size=shape)
    sign = rng.choice([-1.0, 1.0], size=shape)
    return Tensor(mag * sign)


def _well_separated(rng: np.random.Generator, shape) -> Tensor:
    """Distinct values with gaps of 0.05, so pooling argmaxes cannot flip."""
    n = int(np.prod(shape))
    return Tensor(rng.permutation(n).astype(np.float64).reshape(shape) * 0.05)


# Each row of OP_TABLE draws one op's inputs from rng, in a fixed order, and
# returns them with the op as a function of those inputs. The op returns a
# Tensor; check_op reduces it to a loss.
Draw = Callable[[np.random.Generator, int], Tuple[List[Tensor], Callable]]


def _elementwise(fn2) -> Draw:
    def draw(rng, seed):
        shape = _rand_shape(rng)
        return [_normal(rng, shape), _normal(rng, shape)], lambda args: fn2(*args)
    return draw


def _unary(fn) -> Draw:
    def draw(rng, seed):
        return [_normal(rng, _rand_shape(rng))], lambda args: fn(args[0])
    return draw


def _draw_reshape(rng, seed):
    h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    return [_normal(rng, (h, w))], lambda args: args[0].reshape(w * h)


def _draw_geometry(rng) -> Tuple[Tuple[int, int], ConvSpec]:
    """A kernel, then a stride: the draw order the pinned op results depend on."""
    kernel = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    return kernel, ConvSpec((int(rng.integers(1, 3)), int(rng.integers(1, 3))))


def _draw_conv2d(rng, seed):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    kernel, spec = _draw_geometry(rng)
    b = 2 if seed % 2 == 0 else 1
    inputs = [_normal(rng, (b, cin, h, w)), _normal(rng, (cout, cin) + kernel),
              _normal(rng, (cout,))]
    return inputs, lambda args: ops.conv2d(*args, spec)


def _draw_conv_transpose2d(rng, seed):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    oh, ow = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    kernel, spec = _draw_geometry(rng)
    sh, sw = spec.stride
    b = 2 if seed % 2 == 1 else 1
    # the input extents a forward conv with this stride maps an (oh, ow) map to
    inputs = [_normal(rng, (b, cin, -(-oh // sh), -(-ow // sw))),
              _normal(rng, (cin, cout) + kernel), _normal(rng, (cout,))]
    return inputs, lambda args: ops.conv_transpose2d(*args, spec, (oh, ow))


def _draw_maxpool2d(rng, seed):
    c = int(rng.integers(1, 4))
    window = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    h, w = window[0] * int(rng.integers(1, 4)), window[1] * int(rng.integers(1, 4))  # whole windows
    return [_well_separated(rng, (1, c, h, w))], lambda args: ops.maxpool2d(args[0], window)


def _draw_norm_leaky(mode: str) -> Draw:
    """x as _away_from_zero draws it, beta = gamma * mean / std of the statistics the mode
    normalizes with: the pre-activation is then gamma * x / std, off the kink as x is."""
    def draw(rng, seed):
        c = int(rng.integers(1, 5))
        x = _away_from_zero(rng, (3, c, int(rng.integers(2, 5)), int(rng.integers(2, 5)))).data
        gamma = rng.uniform(0.5, 1.5, size=c)
        if mode == "train":
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = rng.standard_normal(c), rng.uniform(0.5, 2.0, size=c)
        beta = gamma * mean / np.sqrt(var + ops.BN_EPS)
        return [Tensor(x), Tensor(gamma), Tensor(beta)], lambda args: ops.norm_leaky(
            *args, BatchNormState(mean.copy(), var.copy()), mode)
    return draw


def _draw_channel_attention(rng, seed):
    b, c, h, w = 1 + seed % 2, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    shapes = [(b, c, h, w)] * 2 + [(c, 2 * c, 1, 1), (c,), (c, c), (c,), (c, c), (c,), (c, 2 * c, 1, 1), (c,)]
    return [_normal(rng, shape) for shape in shapes], lambda args: attention.channel_attention(
        args[0], args[1], FusionParams(*[ConvParams(*args[k:k + 2]) for k in range(2, 10, 2)], spectral=None))


def _draw_spectral_attention(rng, seed):
    b, c, h, w = 1 + seed % 2, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    # x > 0 and each hidden row's weights and bias share one sign: every relu
    # pre-activation has that sign and a magnitude above 0.1
    sign = rng.choice([-1.0, 1.0], size=c)
    inputs = [Tensor(rng.uniform(0.1, 1.1, size=(b, c, h, w))),
              Tensor(sign[:, None, None, None] * rng.uniform(0.1, 1.1, size=(c, c, 1, 1))),
              Tensor(sign * rng.uniform(0.1, 1.1, size=c)), _normal(rng, (c, c, 1, 1)), _normal(rng, (c,))]
    return inputs, lambda args: attention.spectral_attention(
        args[0], SpectralParams(ConvParams(*args[1:3]), ConvParams(*args[3:5])))


def _draw_concat_channels(rng, seed):
    h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    cs = [int(rng.integers(1, 4)) for _ in range(3)]
    return [_normal(rng, (1, c, h, w)) for c in cs], ops.concat_channels


def _draw_lstm(rng, seed):
    steps, feat, hidden = 3, 4, 4
    inputs = [_normal(rng, (1, feat, steps))]
    for _ in range(4):
        inputs += [_normal(rng, (hidden, feat)),
                   _normal(rng, (hidden, hidden)),
                   _normal(rng, (hidden,))]

    def op(args):
        gates = [LstmGate(wx=args[1 + 3 * k], wh=args[2 + 3 * k], bias=args[3 + 3 * k])
                 for k in range(4)]
        return ops.lstm_forward(args[0], LstmLayerParams(*gates))

    return inputs, op


OP_TABLE: Dict[str, Draw] = {
    "sub": _elementwise(lambda a, b: a - b),
    "mul": _elementwise(lambda a, b: a * b),
    "sum": _unary(lambda x: x.sum()),
    "mean": _unary(lambda x: (x * x).mean()),
    "reshape": _draw_reshape,
    "conv2d": _draw_conv2d,
    "conv_transpose2d": _draw_conv_transpose2d,
    "maxpool2d": _draw_maxpool2d,
    "concat_channels": _draw_concat_channels,
    "lstm": _draw_lstm,
    "norm_leaky_train": _draw_norm_leaky("train"),
    "norm_leaky_eval": _draw_norm_leaky("eval"),
    "channel_attention": _draw_channel_attention,
    "spectral_attention": _draw_spectral_attention,
}


def check_op(name: str, seed: int, tol: float = REL_TOL) -> float:
    """Gradient-check one OP_TABLE row at one seed; returns the worst relative error.

    A 0-d output is the loss itself. Otherwise the output is projected on
    random_projection(seed + 9000), so the loss is a fixed random linear
    function of every output coordinate.
    """
    inputs, op = OP_TABLE[name](_rng(seed), seed)
    out = op(inputs)
    if out.ndim == 0:
        return check_gradients(op, inputs, tol=tol)
    direction = random_projection(seed + 9000, out.dims)
    return check_gradients(lambda args: projected_loss(op(args), direction), inputs, tol=tol)


DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class CheckResult:
    name: str
    worst_err: float
    ok: bool
    detail: str = ""


def run_op_suite(seeds: Sequence[int] = DEFAULT_SEEDS,
                 tol: float = REL_TOL) -> List[CheckResult]:
    """Run every per-op check over the given seeds and collect the outcomes.

    A row that fails reports the error of its failing seed (inf when the
    check raised before it could compare gradients) and names that seed.
    """
    results = []
    for name in OP_TABLE:
        worst, detail = 0.0, ""
        for seed in seeds:
            try:
                worst = max(worst, check_op(name, seed, tol))
            except TensorError as exc:
                worst = exc.err if isinstance(exc, GradientMismatch) else math.inf
                detail = f"seed {seed}: {exc}"
                break
        results.append(CheckResult(name, worst, not detail, detail))
    return results


# ----------------------------------------------------------------------------
# Whole-network check
# ----------------------------------------------------------------------------

class ForwardMemo:
    """The node outputs of one eval forward, reused by forwards that change one tensor.

    mffcn_forward hands each named node to run(). Until the first perturb()
    the memo records every node's inputs and output; after it, it never
    writes: a node reruns if it owns the tensor named by the last perturb(),
    or if one of its inputs is not the very object recorded, and otherwise
    hands back its recorded output. So one eval forward with no tape
    recording fills it, over the model and the y and v objects that later
    forwards perturb around.
    """

    def __init__(self) -> None:
        self.nodes: Dict[str, Tuple[tuple, Tensor]] = {}
        self.owner: Optional[str] = None  # the node that reruns; None while recording

    def perturb(self, param_name: str) -> None:
        """Name the one parameter tensor that may differ from the filling forward."""
        head, index = (param_name.split(".") + [""])[:2]
        head = "decoder" if head == "decoder_fusion" else head
        self.owner = f"{head}.{index}" if index.isdigit() else head

    def run(self, name: str, inputs: tuple, fn: Callable[[], Tensor]) -> Tensor:
        if self.owner is None:
            self.nodes[name] = (inputs, fn())
            return self.nodes[name][1]
        seen, out = self.nodes[name]
        if name == self.owner or not all(map(operator.is_, inputs, seen)):
            return fn()
        return out


def run_model_check(seed: int = 0, width_divisor: int = 16,
                    strategy=FusionStrategy.MULTILAYER, tol: float = REL_TOL) -> CheckResult:
    """Differentiate the full network under MSE and spot-check every tensor.

    Batch norm runs in eval mode with default statistics, which eval never
    mutates, so repeated evaluation is bitwise deterministic and the graph
    stays differentiable everywhere the oracle looks. Probing all
    coordinates would take millions of forward passes; instead every
    parameter tensor contributes one randomly drawn coordinate.

    The one float64 copy is the set of tensors init_params returns, jittered
    (below), and only each tensor's probed coordinate of the analytic
    gradient is kept. The determinism check compares the loss on it with the
    loss on a second model drawn the same way, which shares no data with it,
    so a forward that moves a parameter in place fails. Its base-point
    forward fills a ForwardMemo; every probe's forward reads it, so it
    reruns only the node that owns the perturbed tensor and the nodes
    downstream of it, bit for bit what a whole forward gives.

    Two departures from the per-op defaults, both about probing a
    composition of ten-plus nonlinear layers rather than a single op. The
    step starts at 1e-4: at 1e-3 the O(eps^2) truncation term of the central
    difference is already visible against the 1e-4 gate, while float64
    roundoff stays five orders below it. Bias-like vectors are jittered away
    from the zero init: stride gaps in the transposed convolutions emit bare
    bias values, so at exact zero whole planes of leaky-relu inputs sit on
    the kink, where a one-sided derivative and a symmetric difference
    quotient disagree for any correct implementation. The ladder matters
    most here: one layer-1 weight reaches thousands of pool windows and relu
    sites, so a fixed probe interval straddles some argmax flip on most
    seeds. A straddle resolves once the step is inside the gap; a genuinely
    wrong gradient holds its gap at every step, so the ladder cannot mask
    real defects.

    On success the detail names the worst coordinate: its parameter, index,
    relative error and the step of the ladder at which it passed.
    """
    def draw_point():
        """The jittered float64 model, and the generator that drew the jitter."""
        net = init_params(seed, strategy, width_divisor, dtype=np.float64)
        rng = _rng(seed * 7919 + 17)
        for name, t in net.named:
            if name.endswith(".bias") or name.endswith(".beta"):
                t.data[...] = rng.uniform(-0.05, 0.05, size=t.data.shape)
        return net, rng

    params, rng = draw_point()
    inputs = [t for _, t in params.named]
    y = Tensor(0.5 * rng.standard_normal((1,) + AUDIO_IN))
    v = Tensor(rng.uniform(0.0, 1.0, size=(1,) + VIDEO_IN))
    target = Tensor(0.5 * rng.standard_normal((1,) + AUDIO_IN))

    def loss(net, memo=None) -> Tensor:
        # read off the module at each call, so a wrapper put there sees every forward
        return mse_loss(model.mffcn_forward(y, v, net, mode="eval", memo=memo), target)

    coords = [tuple(int(rng.integers(0, e)) for e in t.dims) for t in inputs]

    name = f"model[{strategy.value},d={width_divisor},seed={seed}]"

    with Tape() as tape:
        tape.backward(loss(params))
    analytic = [float(t.grad[idx]) if t.grad is not None else 0.0
                for t, idx in zip(inputs, coords)]
    for t in inputs:
        t.grad = None

    memo = ForwardMemo()  # filled here, at the base point, and only read by the probes
    first = loss(params, memo).item()
    second = loss(draw_point()[0]).item()
    if first != second:
        return CheckResult(name, float("nan"), False,
                           f"loss not deterministic: {first} then {second}")

    def probe(args: Sequence[Tensor]) -> Tensor:
        # params holds the very tensors _central_diff perturbs in place
        return loss(params, memo)

    names = [n for n, _ in params.named]
    worst = 0.0
    worst_at = ""
    failures = []
    for pos, idx in enumerate(coords):
        memo.perturb(names[pos])
        rel, h = _ladder_error(probe, inputs, pos, idx, analytic[pos], eps_ladder(MODEL_FD_EPS), tol)
        if rel >= worst:
            worst = rel
            worst_at = f"{names[pos]}{list(idx)} rel {rel:.3e} at eps {h:.3g}"
        if rel >= tol:
            failures.append(f"input {pos} ({names[pos]}) coord {idx}: rel {rel:.3e}")
    if failures:
        return CheckResult(name, worst, False, "; ".join(failures[:4]))
    return CheckResult(name, worst, True, f"{len(coords)} coordinates; worst {worst_at}")
