"""Finite-difference verification of every differentiable operation."""

import re

import numpy as np
import pytest

from mffcn.gradcheck import (
    DEFAULT_SEEDS,
    OP_CHECKS,
    REL_TOL,
    check_gradients,
    eps_ladder,
    finite_difference_gradient,
    max_rel_error,
    run_model_check,
)
from mffcn.model import FusionStrategy, init_params
from mffcn.tensor import NonFiniteError, Tensor, TensorError


class TestFiniteDifferenceOracle:
    def test_sum_of_squares(self):
        x = Tensor(np.array([1.0, 2.0]))
        grads = finite_difference_gradient(lambda args: (args[0] * args[0]).sum(), [x])
        assert np.allclose(grads[0], [2.0, 4.0], atol=1e-5)

    def test_linear_is_exact(self):
        x = Tensor(np.array([3.0, -1.0, 0.5]))
        w = np.array([2.0, 5.0, -4.0])
        grads = finite_difference_gradient(
            lambda args: (args[0] * Tensor(w)).sum(), [x])
        assert np.allclose(grads[0], w, atol=1e-9)

    def test_nondeterminism_detected(self):
        calls = []

        def flaky(args):
            calls.append(None)
            return (args[0] * float(len(calls))).sum()

        with pytest.raises(TensorError, match="deterministic"):
            finite_difference_gradient(flaky, [Tensor(np.array([1.0]))])

    def test_coordinate_restriction_leaves_nan(self):
        x = Tensor(np.zeros((2, 2)))
        grads = finite_difference_gradient(
            lambda args: args[0].sum(), [x], coords={0: [(0, 1)]})
        assert grads[0][0, 1] == pytest.approx(1.0, abs=1e-6)
        assert np.isnan(grads[0][0, 0])

    def test_rel_error_ignores_unprobed(self):
        analytic = np.array([1.0, 99.0])
        numeric = np.array([1.0, np.nan])
        assert max_rel_error(analytic, numeric) < 1e-12

    def test_check_gradients_flags_wrong_backward(self):
        # A loss whose true gradient is 2x; pretend it is x by scaling inside.
        x = Tensor(np.array([1.0, 2.0]))

        def fn(args):
            return (args[0] * args[0].detach()).sum()  # analytic grad sees only one factor

        with pytest.raises(TensorError, match="mismatch"):
            check_gradients(fn, [x])


@pytest.mark.parametrize("name", sorted(OP_CHECKS))
@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
def test_op_gradients(name, seed):
    worst = OP_CHECKS[name](seed)
    assert worst < REL_TOL


@pytest.fixture(scope="module")
def model_check():
    # five seeds run in the acceptance gate; one keeps this suite honest
    return run_model_check(seed=0)


class TestWholeModel:
    def test_full_graph_gradients(self, model_check):
        assert model_check.ok, model_check.detail
        assert model_check.worst_err < REL_TOL

    def test_detail_names_worst_coordinate(self, model_check):
        names = [n for n, _ in init_params(0, FusionStrategy.MULTILAYER, 16).named]
        match = re.fullmatch(r"(\d+) coordinates; worst ([\w.]+)\[[\d, ]*\] "
                             r"rel (\S+) at eps (\S+)", model_check.detail)
        assert match, model_check.detail
        assert int(match.group(1)) == len(names)
        assert match.group(2) in names
        assert float(match.group(3)) == pytest.approx(model_check.worst_err, rel=1e-3)
        assert match.group(4) in [f"{h:.3g}" for h in eps_ladder(1e-4)]


class TestProbeInPlace:
    @pytest.mark.parametrize("raise_at", [3, 4])  # the +eps and the -eps probe
    def test_raising_loss_restores_the_coordinate(self, raise_at):
        x = Tensor(np.array([0.1, -2.5, 3.0]))
        seen = []

        def fn(args):
            seen.append(args[0])
            if len(seen) == raise_at:
                raise RuntimeError("loss failed mid-probe")
            return (args[0] * args[0]).sum()

        with pytest.raises(RuntimeError, match="mid-probe"):
            finite_difference_gradient(fn, [x])
        assert seen[-1] is seen[0]  # probes reuse the base tensor
        assert seen[-1].data.tobytes() == x.data.tobytes()

    def test_nonfinite_probe_is_rejected_and_restored(self):
        x = Tensor(np.array([1.5e308]))
        seen = []

        def fn(args):
            seen.append(args[0])
            return args[0].sum()

        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            finite_difference_gradient(fn, [x], eps=1e308)
        assert seen[0].data.tobytes() == x.data.tobytes()


@pytest.fixture(scope="module")
def recorded_check():
    """run_model_check(seed=0) with every model forward watched.

    Each forward over an already seen model must differ from that model's
    first forward in exactly one coordinate. For the first three probed
    coordinates of each parameter group (audio_enc, video_enc, fusion, ...)
    the output, which alone decides the loss, is also compared with a forward
    over fresh copies.
    """
    from mffcn import model
    from mffcn.ops import BatchNormState

    original = model.mffcn_forward
    first_seen = {}     # id(params) -> (params, its data flattened at first sight)
    probed = []         # (tensor name, flat index) perturbed in each repeated forward
    fresh_equal = {}    # group -> [probe output == fresh-copy output, bitwise]

    def flat(params):
        return np.concatenate([t.data.ravel() for _, t in params.named])

    def fresh(params):
        it = iter([Tensor(t.data.copy()) for _, t in params.named])
        rebuilt, _, _ = model._build(
            params.strategy, params.width_divisor, lambda name, shape, kind: next(it),
            lambda name, channels: BatchNormState.initial(channels, dtype=np.float64))
        return rebuilt

    def watched(y, v, params, mode="train"):
        out = original(y, v, params, mode=mode)
        if id(params) not in first_seen:
            first_seen[id(params)] = (params, flat(params))
            return out
        changed = np.flatnonzero(flat(params) != first_seen[id(params)][1])
        assert len(changed) == 1, changed
        ends = np.cumsum([t.size for _, t in params.named])
        pos = int(np.searchsorted(ends, changed[0], side="right"))
        name = params.named[pos][0]
        probed.append((name, int(changed[0])))
        group = name.split(".")[0]
        if len({c for c in probed if c[0].split(".")[0] == group}) <= 3:
            ref = original(y, v, fresh(params), mode=mode)
            fresh_equal.setdefault(group, []).append(out.data.tobytes() == ref.data.tobytes())
        return out

    model.mffcn_forward = watched
    try:
        result = run_model_check(seed=0)
    finally:
        model.mffcn_forward = original
    return result, first_seen, probed, fresh_equal


class TestModelCheckInPlace:
    def test_result_matches_the_unwatched_check(self, recorded_check, model_check):
        assert recorded_check[0] == model_check

    def test_probed_losses_equal_fresh_copy_forwards(self, recorded_check):
        _, _, probed, fresh_equal = recorded_check
        names = [n for n, _ in init_params(0, FusionStrategy.MULTILAYER, 16).named]
        assert {name for name, _ in probed} == set(names)
        assert set(fresh_equal) == {n.split(".")[0] for n in names}
        assert all(len(v) >= 6 and all(v) for v in fresh_equal.values()), fresh_equal

    def test_base_tensors_left_bit_identical(self, recorded_check):
        _, first_seen, _, _ = recorded_check
        for params, snapshot in first_seen.values():
            assert np.concatenate([t.data.ravel() for _, t in params.named]).tobytes() \
                == snapshot.tobytes()
