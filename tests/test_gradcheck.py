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
from mffcn.tensor import Tensor, TensorError


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
