"""Finite-difference verification of the reverse-mode engine.

The oracle is a central difference with step 1e-3, evaluated in float64 and
compared coordinate by coordinate against the tape's gradient. A relative
error uses max(|analytic|, |numeric|, 1e-6) as denominator so near-zero
coordinates do not blow up the ratio; 1e-4 is the pass threshold.

Two suites build on the oracle. The per-op suite probes every differentiable
operation on small random inputs (extents at most 6, five seeds by default)
over all coordinates. The network suite differentiates the full model under
a mean-squared loss and spot-checks a few random coordinates per parameter
tensor, since probing every one of the millions of coordinates is far beyond
any sane budget; sampled coordinates are drawn fresh per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import ops
from .ops import BatchNormState, ConvSpec, LstmGate, LstmLayerParams
from .tensor import Tape, Tensor, TensorError, stack

FD_EPS = 1e-3
REL_TOL = 1e-4
REL_FLOOR = 1e-6


def finite_difference_gradient(fn: Callable[[Sequence[Tensor]], Tensor],
                               inputs: Sequence[Tensor],
                               eps: float = FD_EPS,
                               coords: Optional[Dict[int, Sequence[Tuple[int, ...]]]] = None,
                               ) -> list:
    """Central-difference gradient of a scalar-valued function.

    fn is called with fresh non-taped tensors; it must be deterministic, and
    that is checked by evaluating the base point twice and demanding equal
    scalars. coords optionally restricts which coordinates of which input
    (by position) get probed; unprobed coordinates come back as NaN so a
    caller cannot mistake them for true zeros.
    """
    base_args = [Tensor(t.data.astype(np.float64)) for t in inputs]
    first = _scalar(fn(base_args))
    second = _scalar(fn([Tensor(t.data.copy()) for t in base_args]))
    if first != second:
        raise TensorError(
            f"function is not deterministic: repeated evaluation gave {first} then {second}")

    grads = []
    for pos, t in enumerate(inputs):
        flat_shape = t.data.shape
        if coords is not None and pos not in coords:
            grads.append(np.full(flat_shape, np.nan))
            continue
        g = np.full(flat_shape, np.nan)
        if coords is None:
            probe: Iterable[Tuple[int, ...]] = np.ndindex(*flat_shape)
        else:
            probe = coords[pos]
        for idx in probe:
            g[idx] = _central_diff(fn, base_args, pos, idx, eps)
        grads.append(g)
    return grads


def _scalar(t: Tensor) -> float:
    if t.size != 1:
        raise TensorError(f"gradcheck target must return a scalar, got shape {t.dims}")
    return float(t.data.reshape(()))


def _central_diff(fn, base_args, pos, idx, eps) -> float:
    args_hi = [Tensor(t.data.copy()) for t in base_args]
    args_hi[pos].data[idx] += eps
    args_lo = [Tensor(t.data.copy()) for t in base_args]
    args_lo[pos].data[idx] -= eps
    return (_scalar(fn(args_hi)) - _scalar(fn(args_lo))) / (2.0 * eps)


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest relative disagreement over the probed (non-NaN) coordinates."""
    mask = ~np.isnan(numeric)
    if not mask.any():
        return 0.0
    a = np.asarray(analytic, dtype=np.float64)[mask]
    n = numeric[mask]
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
    return float(np.max(np.abs(a - n) / denom))


def check_gradients(fn: Callable[[Sequence[Tensor]], Tensor],
                    inputs: Sequence[Tensor],
                    eps: float = FD_EPS,
                    tol: float = REL_TOL,
                    coords: Optional[Dict[int, Sequence[Tuple[int, ...]]]] = None,
                    ) -> float:
    """Tape the function, differentiate, and compare against finite differences.

    Returns the worst relative error across all checked coordinates; raises
    TensorError when it exceeds tol. Inputs are probed in float64 copies so
    callers can hand in float32 parameters directly.
    """
    taped_inputs = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    with Tape() as tape:
        loss = fn(taped_inputs)
        tape.backward(loss)

    numeric = finite_difference_gradient(fn, inputs, eps=eps, coords=coords)
    worst = 0.0
    for pos, (t, num) in enumerate(zip(taped_inputs, numeric)):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        err = max_rel_error(analytic, num)
        if err > worst:
            worst = err
        if err > tol:
            raise TensorError(
                f"gradient mismatch on input {pos}: max relative error {err:.3e} > {tol:.0e}")
    return worst


def random_projection(seed: int, shape: tuple, dtype=np.float64) -> np.ndarray:
    """Fixed random direction used to reduce a tensor output to a scalar loss."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(shape).astype(dtype)


def projected_loss(out: Tensor, direction: np.ndarray) -> Tensor:
    """Scalar loss <out, direction> built from taped primitives."""
    if out.dims != direction.shape:
        raise TensorError(f"projection shape {direction.shape} does not match output {out.dims}")
    return (out * Tensor(direction.astype(out.dtype))).sum()


# ----------------------------------------------------------------------------
# Per-op check suite
# ----------------------------------------------------------------------------

def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _rand_shape(rng: np.random.Generator, rank: Optional[int] = None,
                max_extent: int = 6) -> tuple:
    if rank is None:
        rank = int(rng.integers(1, 4))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(rank))


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


def _check_elementwise(seed: int, fn2) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    a, b = _normal(rng, shape), _normal(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(lambda args: projected_loss(fn2(args[0], args[1]), d), [a, b])


def check_add(seed: int) -> float:
    return _check_elementwise(seed, lambda a, b: a + b)


def check_sub(seed: int) -> float:
    return _check_elementwise(seed, lambda a, b: a - b)


def check_mul(seed: int) -> float:
    return _check_elementwise(seed, lambda a, b: a * b)


def check_scalar_mix(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    x = _normal(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(
        lambda args: projected_loss(1.5 - (-args[0]) * 0.75 + 0.25, d), [x])

def check_sum(seed: int) -> float:
    rng = _rng(seed)
    x = _normal(rng, _rand_shape(rng))
    return check_gradients(lambda args: args[0].sum(), [x])


def check_mean(seed: int) -> float:
    rng = _rng(seed)
    x = _normal(rng, _rand_shape(rng))
    return check_gradients(lambda args: (args[0] * args[0]).mean(), [x])


def check_reshape(seed: int) -> float:
    rng = _rng(seed)
    h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    x = _normal(rng, (h, w))
    d = random_projection(seed + 9000, (w * h,))
    return check_gradients(lambda args: projected_loss(args[0].reshape(w * h), d), [x])


def check_permute(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng, rank=3)
    axes = tuple(int(a) for a in rng.permutation(3))
    out_shape = tuple(shape[a] for a in axes)
    x = _normal(rng, shape)
    d = random_projection(seed + 9000, out_shape)
    return check_gradients(lambda args: projected_loss(args[0].permute(*axes), d), [x])


def check_pick(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng, rank=3)
    axis = int(rng.integers(0, 3))
    index = int(rng.integers(0, shape[axis]))
    out_shape = tuple(s for i, s in enumerate(shape) if i != axis)
    x = _normal(rng, shape)
    d = random_projection(seed + 9000, out_shape)
    return check_gradients(lambda args: projected_loss(args[0].pick(axis, index), d), [x])


def check_stack(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng, rank=2)
    xs = [_normal(rng, shape) for _ in range(3)]
    d = random_projection(seed + 9000, (3,) + shape)
    return check_gradients(lambda args: projected_loss(stack(args, axis=0), d), xs)


def check_sigmoid(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    x = _normal(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(lambda args: projected_loss(args[0].sigmoid(), d), [x])


def check_tanh(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    x = _normal(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(lambda args: projected_loss(args[0].tanh(), d), [x])


def check_leaky_relu(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    x = _away_from_zero(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(
        lambda args: projected_loss(ops.activation(args[0], "leaky_relu"), d), [x])


def check_relu(seed: int) -> float:
    rng = _rng(seed)
    shape = _rand_shape(rng)
    x = _away_from_zero(rng, shape)
    d = random_projection(seed + 9000, shape)
    return check_gradients(
        lambda args: projected_loss(ops.activation(args[0], "relu"), d), [x])


def check_conv2d(seed: int) -> float:
    rng = _rng(seed)
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    spec = ConvSpec(out_channels=cout,
                    kernel=(int(rng.integers(1, 4)), int(rng.integers(1, 4))),
                    stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))))
    batched = seed % 2 == 0
    x_shape = (2, cin, h, w) if batched else (cin, h, w)
    x = _normal(rng, x_shape)
    wgt = _normal(rng, (cout, cin) + spec.kernel)
    bias = _normal(rng, (cout,))
    oh, ow = spec.out_extents(h, w)
    out_shape = (2, cout, oh, ow) if batched else (cout, oh, ow)
    d = random_projection(seed + 9000, out_shape)
    return check_gradients(
        lambda args: projected_loss(ops.conv2d(args[0], args[1], args[2], spec), d),
        [x, wgt, bias])


def check_conv_transpose2d(seed: int) -> float:
    rng = _rng(seed)
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    oh, ow = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    spec = ConvSpec(out_channels=cout,
                    kernel=(int(rng.integers(1, 4)), int(rng.integers(1, 4))),
                    stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))))
    h, w = spec.out_extents(oh, ow)
    batched = seed % 2 == 1
    x_shape = (2, cin, h, w) if batched else (cin, h, w)
    x = _normal(rng, x_shape)
    wgt = _normal(rng, (cin, cout) + spec.kernel)
    bias = _normal(rng, (cout,))
    out_shape = (2, cout, oh, ow) if batched else (cout, oh, ow)
    d = random_projection(seed + 9000, out_shape)
    return check_gradients(
        lambda args: projected_loss(
            ops.conv_transpose2d(args[0], args[1], args[2], spec, (oh, ow)), d),
        [x, wgt, bias])


def check_maxpool2d(seed: int) -> float:
    rng = _rng(seed)
    c = int(rng.integers(1, 4))
    h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
    window = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    x = _well_separated(rng, (c, h, w))
    oh, ow = -(-h // window[0]), -(-w // window[1])
    d = random_projection(seed + 9000, (c, oh, ow))
    return check_gradients(
        lambda args: projected_loss(ops.maxpool2d(args[0], window), d), [x])


def check_batch_norm_train(seed: int) -> float:
    rng = _rng(seed)
    c = int(rng.integers(1, 5))
    shape = (3, c, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    x = _normal(rng, shape)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=c))
    beta = _normal(rng, (c,))
    d = random_projection(seed + 9000, shape)

    def fn(args):
        state = BatchNormState.initial(c, dtype=np.float64)
        return projected_loss(ops.batch_norm(args[0], args[1], args[2], state, "train"), d)

    return check_gradients(fn, [x, gamma, beta])


def check_batch_norm_eval(seed: int) -> float:
    rng = _rng(seed)
    c = int(rng.integers(1, 5))
    shape = (2, c, 3, 3)
    x = _normal(rng, shape)
    gamma = Tensor(rng.uniform(0.5, 1.5, size=c))
    beta = _normal(rng, (c,))
    mean = rng.standard_normal(c)
    var = rng.uniform(0.5, 2.0, size=c)
    d = random_projection(seed + 9000, shape)

    def fn(args):
        state = BatchNormState(mean.copy(), var.copy())
        return projected_loss(ops.batch_norm(args[0], args[1], args[2], state, "eval"), d)

    return check_gradients(fn, [x, gamma, beta])


def check_softmax_pair(seed: int) -> float:
    rng = _rng(seed)
    n = int(rng.integers(1, 7))
    a, b = _normal(rng, (n,)), _normal(rng, (n,))
    da = random_projection(seed + 9000, (n,))
    db = random_projection(seed + 9001, (n,))

    def fn(args):
        wa, wb = ops.softmax_pair(args[0], args[1])
        return projected_loss(wa, da) + projected_loss(wb, db)

    return check_gradients(fn, [a, b])


def check_fully_connected(seed: int) -> float:
    rng = _rng(seed)
    fin, fout = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    batched = seed % 2 == 0
    x = _normal(rng, (3, fin) if batched else (fin,))
    w = _normal(rng, (fout, fin))
    b = _normal(rng, (fout,))
    d = random_projection(seed + 9000, (3, fout) if batched else (fout,))
    return check_gradients(
        lambda args: projected_loss(ops.fully_connected(args[0], args[1], args[2]), d),
        [x, w, b])


def check_global_avg_pool(seed: int) -> float:
    rng = _rng(seed)
    c = int(rng.integers(1, 6))
    x = _normal(rng, (c, int(rng.integers(1, 7)), int(rng.integers(1, 7))))
    d = random_projection(seed + 9000, (c,))
    return check_gradients(
        lambda args: projected_loss(ops.global_avg_pool(args[0]), d), [x])


def check_concat_channels(seed: int) -> float:
    rng = _rng(seed)
    h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    cs = [int(rng.integers(1, 4)) for _ in range(3)]
    xs = [_normal(rng, (c, h, w)) for c in cs]
    d = random_projection(seed + 9000, (sum(cs), h, w))
    return check_gradients(
        lambda args: projected_loss(ops.concat_channels(args), d), xs)


def check_scale_channels(seed: int) -> float:
    rng = _rng(seed)
    c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    x = _normal(rng, (c, h, w))
    weight_shape = [(c,), (c, h, w)][seed % 2]
    wt = _normal(rng, weight_shape)
    d = random_projection(seed + 9000, (c, h, w))
    return check_gradients(
        lambda args: projected_loss(ops.scale_channels(args[0], args[1]), d), [x, wt])


def check_lstm(seed: int) -> float:
    rng = _rng(seed)
    steps, feat, hidden = 3, 4, 4
    seq = _normal(rng, (steps, feat))
    gate_tensors = []
    for _ in range(4):
        gate_tensors += [_normal(rng, (hidden, feat)),
                         _normal(rng, (hidden, hidden)),
                         _normal(rng, (hidden,))]
    d = random_projection(seed + 9000, (steps, hidden))

    def fn(args):
        gates = [LstmGate(wx=args[1 + 3 * k], wh=args[2 + 3 * k], bias=args[3 + 3 * k])
                 for k in range(4)]
        params = LstmLayerParams(*gates)
        return projected_loss(ops.lstm_forward(args[0], params), d)

    return check_gradients(fn, [seq] + gate_tensors)


OP_CHECKS: Dict[str, Callable[[int], float]] = {
    "add": check_add,
    "sub": check_sub,
    "mul": check_mul,
    "scalar_mix": check_scalar_mix,
    "sum": check_sum,
    "mean": check_mean,
    "reshape": check_reshape,
    "permute": check_permute,
    "pick": check_pick,
    "stack": check_stack,
    "sigmoid": check_sigmoid,
    "tanh": check_tanh,
    "leaky_relu": check_leaky_relu,
    "relu": check_relu,
    "conv2d": check_conv2d,
    "conv_transpose2d": check_conv_transpose2d,
    "maxpool2d": check_maxpool2d,
    "batch_norm_train": check_batch_norm_train,
    "batch_norm_eval": check_batch_norm_eval,
    "softmax_pair": check_softmax_pair,
    "fully_connected": check_fully_connected,
    "global_avg_pool": check_global_avg_pool,
    "concat_channels": check_concat_channels,
    "scale_channels": check_scale_channels,
    "lstm": check_lstm,
}

DEFAULT_SEEDS = (0, 1, 2, 3, 4)


@dataclass
class CheckResult:
    name: str
    worst_err: float
    ok: bool
    detail: str = ""


def run_op_suite(seeds: Sequence[int] = DEFAULT_SEEDS,
                 tol: float = REL_TOL) -> List[CheckResult]:
    """Run every per-op check over the given seeds and collect the outcomes."""
    results = []
    for name, check in OP_CHECKS.items():
        worst = 0.0
        ok = True
        detail = ""
        for seed in seeds:
            try:
                worst = max(worst, check(seed))
            except TensorError as exc:
                ok = False
                detail = f"seed {seed}: {exc}"
                break
        ok = ok and worst <= tol
        results.append(CheckResult(name, worst, ok, detail))
    return results


# ----------------------------------------------------------------------------
# Whole-network check
# ----------------------------------------------------------------------------

def eps_ladder(eps: float) -> Tuple[float, float, float]:
    """The finite-difference steps run_model_check tries, in order."""
    return (eps, eps / 10.0, eps / 30.0)


def run_model_check(seed: int = 0, width_divisor: int = 16,
                    coords_per_tensor: int = 1,
                    strategy=None, eps: float = 1e-4,
                    tol: float = REL_TOL) -> CheckResult:
    """Differentiate the full network under MSE and spot-check every tensor.

    Batch norm runs in eval mode with fresh default statistics built inside
    the probed function, so repeated evaluation is bitwise deterministic and
    the graph stays differentiable everywhere the oracle looks. Probing all
    coordinates would take millions of forward passes; instead every
    parameter tensor contributes coords_per_tensor randomly drawn ones.

    Three departures from the per-op defaults, all about probing a
    composition of ten-plus nonlinear layers rather than a single op. The
    step starts at 1e-4: at 1e-3 the O(eps^2) truncation term of the central
    difference is already visible against the 1e-4 gate, while float64
    roundoff stays five orders below it. Bias-like vectors are jittered away
    from the zero init: stride gaps in the transposed convolutions emit bare
    bias values, so at exact zero whole planes of leaky-relu inputs sit on
    the kink, where a one-sided derivative and a symmetric difference
    quotient disagree for any correct implementation. And each coordinate
    that misses at the starting step is retried at eps/10 and eps/30 before
    being declared wrong: one layer-1 weight reaches thousands of pool
    windows and relu sites, so a fixed probe interval straddles some argmax
    flip on most seeds. A straddle resolves once the step is inside the gap;
    a genuinely wrong gradient holds its gap at every step, so the ladder
    cannot mask real defects.

    On success the detail names the worst coordinate: its parameter, index,
    relative error and the step of the ladder at which it passed.
    """
    # Imported here: the model layer depends on this module's clients, and
    # the per-op suite should stay usable without pulling in the full graph.
    from .model import FusionStrategy, _build, init_params, mffcn_forward

    if strategy is None:
        strategy = FusionStrategy.MULTILAYER
    params = init_params(seed, strategy, width_divisor, dtype=np.float64)
    inputs = [t for _, t in params.named]

    rng = _rng(seed * 7919 + 17)
    for name, t in params.named:
        if name.endswith(".bias") or name.endswith(".beta"):
            t.data[...] = rng.uniform(-0.05, 0.05, size=t.data.shape)
    y = Tensor(0.5 * rng.standard_normal((1, 80, 20)))
    v = Tensor(rng.uniform(0.0, 1.0, size=(5, 80, 80)))
    target = Tensor(0.5 * rng.standard_normal((1, 80, 20)))

    def fn(args: Sequence[Tensor]) -> Tensor:
        it = iter(args)
        rebuilt, _, _ = _build(
            strategy, width_divisor,
            lambda name, shape, kind: next(it),
            lambda name, channels: BatchNormState.initial(channels, dtype=np.float64))
        out = mffcn_forward(y, v, rebuilt, mode="eval")
        diff = out - target
        return (diff * diff).mean()

    coords: Dict[int, List[tuple]] = {}
    for pos, t in enumerate(inputs):
        picked = set()
        for _ in range(coords_per_tensor):
            picked.add(tuple(int(rng.integers(0, e)) for e in t.dims))
        coords[pos] = sorted(picked)

    name = f"model[{strategy.value},d={width_divisor},seed={seed}]"

    taped = [Tensor(t.data.astype(np.float64), requires_grad=True) for t in inputs]
    with Tape() as tape:
        tape.backward(fn(taped))

    base_args = [Tensor(t.data.astype(np.float64)) for t in inputs]
    first = _scalar(fn(base_args))
    second = _scalar(fn([Tensor(t.data.copy()) for t in base_args]))
    if first != second:
        return CheckResult(name, float("nan"), False,
                           f"loss not deterministic: {first} then {second}")

    names = [n for n, _ in params.named]
    worst = 0.0
    worst_at = ""
    failures = []
    n_probed = 0
    for pos, idx_list in coords.items():
        grad = taped[pos].grad
        for idx in idx_list:
            n_probed += 1
            analytic = float(grad[idx]) if grad is not None else 0.0
            rel = float("inf")
            for h in eps_ladder(eps):
                numeric = _central_diff(fn, base_args, pos, idx, h)
                denom = max(abs(analytic), abs(numeric), REL_FLOOR)
                rel = abs(analytic - numeric) / denom
                if rel < tol:
                    break
            if rel >= worst:
                worst = rel
                worst_at = f"{names[pos]}{list(idx)} rel {rel:.3e} at eps {h:.3g}"
            if rel >= tol:
                failures.append(f"input {pos} ({names[pos]}) coord {idx}: rel {rel:.3e}")
    if failures:
        return CheckResult(name, worst, False, "; ".join(failures[:4]))
    return CheckResult(name, worst, True, f"{n_probed} coordinates; worst {worst_at}")
