"""Unit tests for the tensor engine and the neural-net operations."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from mffcn import ops
from mffcn.ops import (
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
from mffcn.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    TensorError,
    _SIGMOID_BOUNDS,
    _sigmoid,
    active_tape,
    no_grad,
)

import composed
from composed import (
    batch_norm,
    fully_connected,
    global_avg_pool,
    leaky_relu,
    relu,
    scale_channels,
    sigmoid,
    softmax_pair,
    stack,
)


def _t(data, grad=False, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_float64_supported(self):
        t = Tensor(np.array([1.0]))  # a float64 array keeps its dtype
        assert t.dtype == np.float64

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_an_exact_float_array(self, dtype):
        a = np.arange(6, dtype=dtype).reshape(2, 3)
        assert Tensor(a).data is a

    @pytest.mark.parametrize("data", [[[0, 1], [2, 3]], np.arange(4).reshape(2, 2),
                                      np.arange(4, dtype=np.uint8).reshape(2, 2),
                                      np.arange(4, dtype=">f8").reshape(2, 2)],
                             ids=["list", "int64", "uint8", "big-endian"])
    def test_converts_what_is_not_a_native_float_array(self, data):
        t = Tensor(data)
        assert type(t.data) is np.ndarray and t.dtype == np.float32
        assert t.data.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_converts_an_ndarray_subclass(self, tmp_path, dtype):
        mm = np.memmap(tmp_path / "m.bin", dtype=dtype, mode="w+", shape=(2, 3))
        mm[...] = np.arange(6).reshape(2, 3)
        t = Tensor(mm)
        assert type(t.data) is np.ndarray and t.dtype == dtype
        assert t.data.tolist() == [[0, 1, 2], [3, 4, 5]]
        mm[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            Tensor(mm)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_kept_array_is_still_scanned(self, dtype):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonFiniteError):
                Tensor(np.array([[1.0, bad]], dtype=dtype))
        with pytest.raises(ShapeError):
            Tensor(np.empty((0, 3), dtype=dtype))
        with pytest.raises(ShapeError):
            Tensor([])

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([[3.5]]).item() == 3.5

    def test_binary_op_shape_strictness(self):
        with pytest.raises(ShapeError):
            _t([1.0, 2.0]) - _t([[1.0, 2.0]])


class TestTapeMechanics:
    def test_sum_gradient_is_ones(self):
        x = _t([[1.0, 2.0], [3.0, 4.0]], grad=True)
        with Tape() as tape:
            loss = x.sum()
            tape.backward(loss)
        assert np.array_equal(x.grad, np.ones((2, 2), dtype=np.float32))

    def test_sum_of_squares_gradient_is_2x(self):
        x = _t([1.0, -2.0, 3.0], grad=True)
        with Tape() as tape:
            loss = (x * x).sum()
            tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_gradients_accumulate_across_reuse(self):
        x = _t([2.0], grad=True)
        with Tape() as tape:
            loss = (x * _t([3.0]) - x).sum()
            tape.backward(loss)
        assert np.allclose(x.grad, [2.0])

    def test_tape_replays_once(self):
        x = _t([1.0], grad=True)
        with Tape() as tape:
            loss = x.sum()
            tape.backward(loss)
            with pytest.raises(TensorError):
                tape.backward(loss)

    def test_backward_frees_intermediates_without_gc(self):
        # Once replayed, the tape must let go of its records so reference
        # counting alone frees a step.
        x = _t(np.ones(1 << 20), grad=True)
        two, three = _t(np.full(1 << 20, 2.0)), _t(np.full(1 << 20, 3.0))

        def step():
            with Tape() as tape:
                tape.backward(((x * two) * three).sum())
            assert len(tape) == 0

        step()  # warm up allocations that outlive the step
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert after - before < (1 << 20)  # one float32 intermediate is 4 MiB

    def test_dropped_tape_frees_its_graph_without_gc(self):
        # No tensor points back at its tape, so a tape dropped without
        # backward and its recorded outputs form no cycle.
        x = _t(np.ones(4), grad=True)
        gc.disable()
        try:
            with Tape():
                data = weakref.ref((x * x).data)
            assert data() is None
        finally:
            gc.enable()

    def test_backward_refusals_keep_their_messages(self):
        x = _t([1.0, 2.0], grad=True)
        with Tape():
            foreign = x.sum()
        with Tape() as tape:
            vector = x * x
            loss = vector.sum()
        with pytest.raises(TensorError, match=r"^loss was not produced by operations recorded on this tape$"):
            tape.backward(foreign)
        with pytest.raises(ShapeError, match=r"^backward needs a scalar loss, got shape \(2,\)$"):
            tape.backward(vector)
        tape.backward(loss)  # a refusal leaves the tape replayable
        assert x.grad.tolist() == [2.0, 4.0]
        for again in (loss, foreign, vector):  # replayed is checked first: no records remain
            with pytest.raises(TensorError, match=r"^tape has already been replayed; build a fresh tape$"):
                tape.backward(again)

    def test_backward_requires_scalar(self):
        x = _t([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = x * x
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_backward_off_tape_rejected(self):
        x = _t([1.0], grad=True)
        with pytest.raises(TensorError, match="not produced"):
            Tape().backward(x)

    def test_no_grad_suppresses_recording(self):
        x = _t([1.0], grad=True)
        with Tape() as tape:
            with no_grad():
                y = x * x
            assert not y.requires_grad
            assert len(tape) == 0

    def test_nested_tape_refused_and_outer_keeps_recording(self):
        x = _t([1.0], grad=True)
        with Tape() as outer:
            with pytest.raises(TensorError, match="tapes do not nest"):
                with Tape():
                    pass
            loss = (x * x).sum()
            assert len(outer) == 2
            outer.backward(loss)
        assert x.grad.tolist() == [2.0]

    def test_tape_inside_no_grad_refused(self):
        with no_grad(), pytest.raises(TensorError, match="inside no_grad"):
            with Tape():
                pass

    def test_no_grad_inside_tape_pauses_then_resumes(self):
        x = _t([1.0], grad=True)
        with Tape() as tape:
            with no_grad():
                paused = x * x
            resumed = x * x
        assert not paused.requires_grad and resumed.requires_grad
        assert len(tape) == 1

    def test_active_tape_none_under_no_grad(self):
        assert active_tape() is None
        with no_grad():
            assert active_tape() is None
        with Tape() as tape:
            assert active_tape() is tape  # an empty tape is falsy, but it is the one recording
            with no_grad():
                assert active_tape() is None
        assert active_tape() is None

    def test_new_tape_starts_after_a_tape_block_raises(self):
        x = _t([1.0], grad=True)
        with pytest.raises(RuntimeError):
            with Tape():
                raise RuntimeError("mid-forward failure")
        assert active_tape() is None
        with Tape() as tape:
            y = x * x
        assert y.requires_grad and len(tape) == 1

    def test_ops_outside_tape_do_not_track(self):
        x = _t([1.0], grad=True)
        y = x * x
        assert not y.requires_grad

    def test_untouched_branch_keeps_none_grad(self):
        x = _t([1.0], grad=True)
        y = _t([1.0], grad=True)
        with Tape() as tape:
            _ = y * y  # recorded but not part of the loss
            loss = x.sum()
            tape.backward(loss)
        assert y.grad is None


class TestStructureOps:
    def test_reshape_round_trip_gradient(self):
        x = _t(np.arange(6.0).reshape(2, 3), grad=True)
        with Tape() as tape:
            y = x.reshape(3, 2).reshape(6)
            tape.backward((y * y).sum())
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_pick_extracts_and_scatters(self):
        x = _t(np.arange(12.0).reshape(3, 4), grad=True)
        with Tape() as tape:
            row = composed.pick(x, 0, 1)
            tape.backward(row.sum())
        expect = np.zeros((3, 4))
        expect[1] = 1.0
        assert np.array_equal(x.grad, expect)

    def test_stack_then_backward_splits(self):
        a = _t([1.0, 2.0], grad=True)
        b = _t([3.0, 4.0], grad=True)
        with Tape() as tape:
            s = stack([a, b], axis=0)
            assert s.dims == (2, 2)
            tape.backward((s * s).sum())
        assert np.allclose(a.grad, 2.0 * a.data)
        assert np.allclose(b.grad, 2.0 * b.data)


class TestConv2d:
    def test_hand_worked_all_ones_kernel(self):
        x = _t([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = _t(np.ones((1, 1, 2, 2)))
        b = _t([0.0])
        spec = ConvSpec((1, 1))
        y = conv2d(x, w, b, spec)
        assert np.array_equal(y.data[0, 0], np.array([[10.0, 6.0], [7.0, 4.0]], dtype=np.float32))

    def test_one_by_one_identity(self):
        x = _t(np.random.default_rng(0).normal(size=(1, 3, 5, 7)))
        w = _t(np.eye(3).reshape(3, 3, 1, 1))
        b = _t(np.zeros(3))
        y = conv2d(x, w, b, ConvSpec())
        assert np.allclose(y.data, x.data, atol=1e-6)

    def test_table_first_audio_layer_shape(self):
        x = _t(np.zeros((1, 1, 80, 20)))
        w = _t(np.zeros((64, 1, 5, 5)))
        b = _t(np.zeros(64))
        y = conv2d(x, w, b, ConvSpec((2, 2)))
        assert y.dims == (1, 64, 40, 10)

    def test_batch_rows_match_batch_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
        w = _t(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = _t(rng.normal(size=4).astype(np.float32))
        spec = ConvSpec((2, 1))
        full = conv2d(_t(x), w, b, spec)
        for i in range(2):
            single = conv2d(_t(x[i:i + 1]), w, b, spec)
            assert np.allclose(full.data[i:i + 1], single.data, atol=1e-6)

    def test_channel_mismatch_names_axis(self):
        x = _t(np.zeros((1, 2, 4, 4)))
        w = _t(np.zeros((1, 3, 2, 2)))
        b = _t(np.zeros(1))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, w, b, ConvSpec())

    @pytest.mark.parametrize("op, w_shape", [
        (lambda x, w, b: conv2d(x, w, b, ConvSpec()), (3, 2, 2, 2)),
        (lambda x, w, b: conv_transpose2d(x, w, b, ConvSpec(), (4, 4)), (2, 3, 2, 2))])
    def test_bias_must_match_the_weights_output_axis(self, op, w_shape):
        with pytest.raises(ShapeError, match=r"bias must be \[3\], got \(2,\)"):
            op(_t(np.zeros((1, 2, 4, 4))), _t(np.zeros(w_shape)), _t(np.zeros(2)))

    @pytest.mark.parametrize("stride", [(0, 1), (1, -2), (2,)])
    def test_spec_rejects_a_stride_that_is_not_a_pair_of_positive_integers(self, stride):
        with pytest.raises(ShapeError, match=rf"^stride extents must be positive pairs, got {re.escape(str(stride))}$"):
            ConvSpec(stride)

    def test_input_left_unchanged(self):
        x_data = np.random.default_rng(1).normal(size=(1, 2, 4, 4)).astype(np.float32)
        x = Tensor(x_data.copy(), requires_grad=True)
        w = _t(np.ones((2, 2, 3, 3)), grad=True)
        b = _t(np.zeros(2), grad=True)
        with Tape() as tape:
            y = conv2d(x, w, b, ConvSpec())
            tape.backward(y.sum())
        assert np.array_equal(x.data, x_data)


class TestConvTranspose2d:
    def test_identity_kernel(self):
        x = _t(np.random.default_rng(5).normal(size=(1, 2, 4, 6)))
        w = _t(np.eye(2).reshape(2, 2, 1, 1))
        b = _t(np.zeros(2))
        y = conv_transpose2d(x, w, b, ConvSpec(), out_hw=(4, 6))
        assert np.allclose(y.data, x.data, atol=1e-6)

    def test_inverts_first_audio_layer_extents(self):
        x = _t(np.zeros((1, 64, 40, 10)))
        w = _t(np.zeros((64, 1, 5, 5)))
        b = _t(np.zeros(1))
        spec = ConvSpec((2, 2))
        y = conv_transpose2d(x, w, b, spec, out_hw=(80, 20))
        assert y.dims == (1, 1, 80, 20)

    def test_rejects_inconsistent_target_extent(self):
        x = _t(np.zeros((1, 1, 4, 4)))
        w = _t(np.zeros((1, 1, 2, 2)))
        b = _t(np.zeros(1))
        spec = ConvSpec((2, 2))
        with pytest.raises(ShapeError, match="extent"):
            conv_transpose2d(x, w, b, spec, out_hw=(9, 8))

    def test_matches_conv2d_input_gradient_with_flipped_kernels(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec((2, 1))
        x = Tensor(rng.normal(size=(1, 2, 6, 5)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 2)).astype(np.float64))
        b = Tensor(np.zeros(3, dtype=np.float64))
        g = rng.normal(size=(1, 3, 3, 5)).astype(np.float64)
        with Tape() as tape:
            y = conv2d(x, w, b, spec)
            tape.backward((y * Tensor(g)).sum())
        flipped = Tensor(np.ascontiguousarray(w.data[:, :, ::-1, ::-1]))
        via_transpose = conv_transpose2d(
            Tensor(g), flipped, Tensor(np.zeros(2, dtype=np.float64)),
            ConvSpec((2, 1)), out_hw=(6, 5))
        assert np.allclose(x.grad, via_transpose.data, atol=1e-10)


class TestMaxPool:
    def test_single_window(self):
        y = maxpool2d(_t([[[[1.0, 2.0], [3.0, 4.0]]]]), window=(2, 2))
        assert y.dims == (1, 1, 1, 1)
        assert y.item() == 4.0

    def test_window_one_is_identity(self):
        x = _t(np.random.default_rng(2).normal(size=(1, 3, 4, 5)))
        y = maxpool2d(x, window=(1, 1))
        assert np.array_equal(y.data, x.data)

    def test_video_table_row_shape(self):
        y = maxpool2d(_t(np.zeros((1, 64, 80, 80))), window=(2, 4))
        assert y.dims == (1, 64, 40, 20)

    @pytest.mark.parametrize("hw, window", [((1, 3), (1, 2)), ((5, 4), (2, 2)), ((4, 4), (3, 1))])
    def test_window_that_does_not_tile_is_refused(self, hw, window):
        x = _t(np.zeros((2, 3) + hw))
        with pytest.raises(ShapeError, match=re.escape(
                f"maxpool2d: window {window} does not tile the input extents {hw}")):
            maxpool2d(x, window)

    def test_tie_routes_gradient_to_first_element(self):
        x = _t(np.ones((1, 1, 2, 2)), grad=True)
        with Tape() as tape:
            y = maxpool2d(x, window=(2, 2))
            tape.backward(y.sum())
        expect = np.zeros((1, 1, 2, 2))
        expect[0, 0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expect)


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        x = _t(np.full((1, 3, 4, 4), 7.0))
        state = BatchNormState.initial(3)
        y = batch_norm(x, _t(np.ones(3)), _t(np.zeros(3)), state, mode="train")
        assert np.allclose(y.data, 0.0, atol=1e-4)

    def test_beta_shifts_mean(self):
        rng = np.random.default_rng(11)
        x = _t(rng.normal(size=(2, 3, 8, 8)))
        state = BatchNormState.initial(3)
        y = batch_norm(x, _t(np.ones(3)), _t(np.full(3, 5.0)), state, mode="train")
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 5.0, atol=1e-5)

    def test_normalizes_per_channel(self):
        rng = np.random.default_rng(13)
        x = _t(rng.normal(loc=3.0, scale=2.0, size=(4, 5, 6, 6)))
        state = BatchNormState.initial(5)
        y = batch_norm(x, _t(np.ones(5)), _t(np.zeros(5)), state, mode="train")
        assert np.allclose(y.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        assert np.allclose(y.data.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update_with_momentum(self):
        rng = np.random.default_rng(17)
        xd = rng.normal(loc=1.0, size=(8, 2, 4, 4)).astype(np.float32)
        state = BatchNormState.initial(2)
        batch_norm(_t(xd), _t(np.ones(2)), _t(np.zeros(2)), state, mode="train")
        mu = xd.mean(axis=(0, 2, 3))
        var = xd.var(axis=(0, 2, 3))
        assert np.allclose(state.mean, 0.1 * mu, atol=1e-5)
        assert np.allclose(state.var, 0.9 + 0.1 * var, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(4, 8, 40, 10), (4, 64, 5, 1), (1, 16, 80, 20), (2, 3, 7, 5)])
    def test_batch_stats_match_numpy_bitwise(self, dtype, shape):
        rng = np.random.default_rng(29)
        xd = rng.normal(loc=2.5, scale=3.0, size=shape).astype(dtype)
        mean, var = ops._batch_stats(xd)
        assert mean.tobytes() == np.mean(xd, axis=(0, 2, 3), dtype=np.float64).tobytes()
        assert var.tobytes() == np.var(xd, axis=(0, 2, 3), dtype=np.float64).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 6, 9, 4), (3, 6, 9, 4)])
    def test_running_update_matches_numpy_stats_bitwise(self, dtype, shape):
        rng = np.random.default_rng(37)
        xd = rng.normal(loc=-1.5, scale=0.7, size=shape).astype(dtype)
        c = shape[1]
        state = BatchNormState.initial(c, dtype)
        batch_norm(_t(xd, dtype=dtype), _t(np.ones(c), dtype=dtype),
                   _t(np.zeros(c), dtype=dtype), state, mode="train")
        mu = np.mean(xd, axis=(0, 2, 3), dtype=np.float64).astype(dtype)
        var = np.var(xd, axis=(0, 2, 3), dtype=np.float64).astype(dtype)
        fresh = BatchNormState.initial(c, dtype)
        want_mean = (1.0 - ops.BN_MOMENTUM) * fresh.mean + ops.BN_MOMENTUM * mu
        want_var = (1.0 - ops.BN_MOMENTUM) * fresh.var + ops.BN_MOMENTUM * var
        assert state.mean.tobytes() == want_mean.tobytes()
        assert state.var.tobytes() == want_var.tobytes()

    def test_eval_mode_uses_running_stats(self):
        x = _t(np.full((1, 1, 2, 2), 3.0))
        state = BatchNormState(mean=np.array([3.0], dtype=np.float32),
                               var=np.array([1.0], dtype=np.float32))
        y = batch_norm(x, _t(np.ones(1)), _t(np.zeros(1)), state, mode="eval")
        assert np.allclose(y.data, 0.0, atol=1e-5)
        assert state.mean[0] == 3.0  # eval leaves the state alone


class TestActivationsAndGating:
    def test_leaky_relu_values(self):
        y = leaky_relu(_t([-1.0, 3.0]))
        assert np.allclose(y.data, [-0.2, 3.0])

    def test_relu_values(self):
        y = relu(_t([-2.0, 0.0, 2.0]))
        assert np.allclose(y.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert sigmoid(_t([0.0])).item() == pytest.approx(0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bounds_are_tiny_and_below_one(self, dtype):
        lo, hi = _SIGMOID_BOUNDS[np.dtype(dtype)]
        assert lo == np.finfo(dtype).tiny and lo.dtype == dtype
        assert hi == np.nextafter(dtype(1.0), dtype(0.0)) and hi.dtype == dtype
        y = _sigmoid(np.array([-1e4, 1e4], dtype=dtype))
        assert y.tolist() == [lo, hi]

    def test_sigmoid_stays_inside_open_interval(self):
        y = sigmoid(_t([-500.0, 500.0]))
        assert 0.0 < y.data[0] and y.data[1] < 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_formula_bitwise(self, dtype):
        x = np.array([0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 1e4, -1e4, 0.3, -2.5], dtype=dtype)
        want = np.empty_like(x)
        pos = x >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        want[~pos] = ex / (1.0 + ex)
        np.clip(want, np.finfo(dtype).tiny, np.nextafter(dtype(1.0), dtype(0.0)), out=want)
        got = _sigmoid(x)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def _edge_values(dtype):
        """+-0, denormals, the smallest normals and +-3e38, repeated past numpy's vector width."""
        sub = np.finfo(dtype).smallest_subnormal
        normal = np.finfo(dtype).tiny
        edge = [0.0, -0.0, sub, -sub, 3 * sub, -3 * sub, normal, -normal,
                3e38, -3e38, 1.0, -1.0, 0.7, -2.5]
        return np.array(edge * 37, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, slope", [("leaky_relu", 0.2), ("relu", 0.0)])
    def test_rectifiers_match_masked_formula_bitwise(self, dtype, kind, slope):
        x = self._edge_values(dtype)
        g = np.roll(x, 3)  # upstream gradients carry the same edge values
        want = np.where(x > 0, x, x * dtype(slope) if slope else dtype(0))
        want_grad = np.where(x > 0, g, g * slope)
        xt = _t(x, grad=True, dtype=dtype)
        with Tape() as tape:
            y = getattr(composed, kind)(xt)
        (_, backward_fn), = tape._records  # fed g directly: a summed loss would overflow
        backward_fn(g)
        assert y.data.dtype == dtype and xt.grad.dtype == dtype
        assert y.data.tobytes() == want.tobytes()
        assert xt.grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_select_form_bitwise_on_long_input(self, dtype):
        x = np.concatenate([self._edge_values(dtype)[:-14],
                            np.linspace(-40.0, 40.0, 301, dtype=dtype)])
        e = np.exp(-np.abs(x))
        d = 1.0 + e
        want = np.where(x >= 0, 1.0 / d, e / d)
        np.clip(want, np.finfo(dtype).tiny, np.nextafter(dtype(1.0), dtype(0.0)), out=want)
        assert _sigmoid(x).tobytes() == want.tobytes()

    def test_softmax_pair_symmetry(self):
        a = _t([1.0, -2.0, 0.3])
        wa, wb = softmax_pair(a, a)
        assert np.allclose(wa.data, 0.5)
        assert np.allclose(wb.data, 0.5)

    def test_softmax_pair_closed_form(self):
        a = _t([np.log(3.0)] * 4)
        b = _t([0.0] * 4)
        wa, wb = softmax_pair(a, b)
        assert np.allclose(wa.data, 0.75, atol=1e-6)
        assert np.allclose(wb.data, 0.25, atol=1e-6)

    def test_softmax_pair_sum_and_range(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            a = _t(rng.normal(scale=40.0, size=6))
            b = _t(rng.normal(scale=40.0, size=6))
            wa, wb = softmax_pair(a, b)
            assert np.all(wa.data > 0.0) and np.all(wa.data < 1.0)
            assert np.allclose(wa.data + wb.data, 1.0, atol=1e-6)

    def test_softmax_pair_length_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_pair(_t([1.0]), _t([1.0, 2.0]))


class TestFullyConnectedAndPooling:
    def test_identity_weights(self):
        x = _t([[1.5, -2.5]])
        y = fully_connected(x, _t(np.eye(2)), _t(np.zeros(2)))
        assert np.allclose(y.data, x.data)

    def test_dot_product_example(self):
        y = fully_connected(_t([[2.0, 3.0]]), _t([[1.0, 1.0]]), _t([1.0]))
        assert np.allclose(y.data, [[6.0]])

    def test_bias_optional(self):
        y = fully_connected(_t([[2.0, 3.0]]), _t([[1.0, 1.0]]))
        assert np.allclose(y.data, [[5.0]])

    def test_global_avg_pool_mean(self):
        y = global_avg_pool(_t([[[[1.0, 3.0], [5.0, 7.0]]]]))
        assert np.allclose(y.data, [[4.0]])

    def test_global_avg_pool_constant(self):
        y = global_avg_pool(_t(np.full((1, 3, 2, 5), 2.5)))
        assert np.allclose(y.data, 2.5)

    def test_global_avg_pool_unit_spatial(self):
        x = _t(np.arange(4.0).reshape(1, 4, 1, 1))
        assert np.allclose(global_avg_pool(x).data, np.arange(4.0)[None])


class TestNonFiniteOperands:
    """Ops do not rescan their operands; an in-place NaN written past the
    Tensor constructor is still caught when the op's output is constructed."""

    @staticmethod
    def _poison(t):
        t.data.reshape(-1)[0] = np.nan
        return t

    def test_conv2d_nan_weight(self):
        w = self._poison(_t(np.ones((2, 3, 3, 3))))
        with pytest.raises(NonFiniteError, match="tensor holds"):
            conv2d(_t(np.ones((1, 3, 5, 4))), w, _t(np.zeros(2)), ConvSpec())

    def test_norm_leaky_nan_gamma(self):
        gamma = self._poison(_t(np.ones(2)))
        with pytest.raises(NonFiniteError, match="tensor holds"):
            norm_leaky(_t(np.ones((1, 2, 3, 3))), gamma, _t(np.zeros(2)), BatchNormState.initial(2), mode="eval")

    def test_fully_connected_nan_weight(self):
        w = self._poison(_t(np.ones((2, 3))))
        with pytest.raises(NonFiniteError, match="tensor holds"):
            fully_connected(_t(np.ones((4, 3))), w)


class TestConcatAndScale:
    def test_concat_channel_counts_add(self):
        a = _t(np.zeros((1, 512, 5, 5)))
        v = _t(np.zeros((1, 512, 5, 5)))
        assert concat_channels([a, v]).dims == (1, 1024, 5, 5)

    def test_concat_single_identity(self):
        x = _t(np.random.default_rng(29).normal(size=(1, 2, 3, 3)))
        assert np.array_equal(concat_channels([x]).data, x.data)

    def test_concat_slices_recover_inputs(self):
        rng = np.random.default_rng(31)
        a = _t(rng.normal(size=(1, 2, 3, 4)))
        b = _t(rng.normal(size=(1, 5, 3, 4)))
        y = concat_channels([a, b])
        assert np.array_equal(y.data[:, :2], a.data)
        assert np.array_equal(y.data[:, 2:], b.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="spatial"):
            concat_channels([_t(np.zeros((1, 1, 2, 2))), _t(np.zeros((1, 1, 3, 2)))])

    def test_scale_ones_identity(self):
        x = _t(np.random.default_rng(37).normal(size=(1, 3, 4, 4)))
        y = scale_channels(x, _t(np.ones((1, 3))))
        assert np.allclose(y.data, x.data)

    def test_scale_half(self):
        x = _t(np.random.default_rng(41).normal(size=(1, 2, 3, 3)))
        y = scale_channels(x, _t([[0.5, 0.5]]))
        assert np.allclose(y.data, 0.5 * x.data)

    def test_scale_weight_gradient_is_channel_sum(self):
        x = _t(np.random.default_rng(43).normal(size=(1, 3, 2, 2)))
        w = _t(np.ones((1, 3)), grad=True)
        with Tape() as tape:
            tape.backward(scale_channels(x, w).sum())
        assert np.allclose(w.grad, x.data.sum(axis=(2, 3)), atol=1e-5)

    def test_scale_full_shape_mask(self):
        rng = np.random.default_rng(47)
        x = _t(rng.normal(size=(1, 2, 3, 3)))
        m = _t(rng.uniform(size=(1, 2, 3, 3)))
        assert np.allclose(scale_channels(x, m).data, x.data * m.data)


def _zero_lstm(feat, hidden, dtype=np.float64):
    def gate():
        return LstmGate(wx=Tensor(np.zeros((hidden, feat), dtype=dtype)),
                        wh=Tensor(np.zeros((hidden, hidden), dtype=dtype)),
                        bias=Tensor(np.zeros(hidden, dtype=dtype)))
    return LstmLayerParams(gate(), gate(), gate(), gate())


class TestLstm:
    def test_zero_weights_give_zero_hiddens(self):
        seq = _t(np.random.default_rng(53).normal(size=(1, 3, 4)), dtype=np.float64)
        out = lstm_forward(seq, _zero_lstm(3, 5))
        assert out.dims == (1, 5, 4)
        assert np.allclose(out.data, 0.0)

    def test_single_step_matches_cell_equations(self):
        rng = np.random.default_rng(59)
        feat, hidden = 3, 2
        params = LstmLayerParams(*[
            LstmGate(wx=Tensor(rng.normal(size=(hidden, feat))),
                     wh=Tensor(rng.normal(size=(hidden, hidden))),
                     bias=Tensor(rng.normal(size=hidden)))
            for _ in range(4)
        ])
        x = rng.normal(size=(1, feat, 1))
        out = lstm_forward(Tensor(x), params)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        zi = params.input_gate.wx.data @ x[0, :, 0] + params.input_gate.bias.data
        zf = params.forget_gate.wx.data @ x[0, :, 0] + params.forget_gate.bias.data
        zg = params.cell_gate.wx.data @ x[0, :, 0] + params.cell_gate.bias.data
        zo = params.output_gate.wx.data @ x[0, :, 0] + params.output_gate.bias.data
        c = sig(zf) * 0.0 + sig(zi) * np.tanh(zg)
        h = sig(zo) * np.tanh(c)
        assert np.allclose(out.data[0, :, 0], h, atol=1e-6)

    def test_batched_layout(self):
        seq = Tensor(np.random.default_rng(61).normal(size=(2, 3, 4)))
        out = lstm_forward(seq, _zero_lstm(3, 6, dtype=np.float32))
        assert out.dims == (2, 6, 4)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="^lstm_forward: feature axis is 7, gates expect 3$"):
            lstm_forward(_t(np.zeros((1, 7, 4))), _zero_lstm(3, 5))


def _random_lstm(rng, feat, hidden, dtype=np.float64):
    return LstmLayerParams(*[
        LstmGate(wx=Tensor(rng.normal(size=(hidden, feat)).astype(dtype), requires_grad=True),
                 wh=Tensor(rng.normal(size=(hidden, hidden)).astype(dtype), requires_grad=True),
                 bias=Tensor(rng.normal(size=hidden).astype(dtype), requires_grad=True))
        for _ in range(4)])


def _lstm_value_and_grads(fn, seq, params, direction):
    """Output and the gradients of <output, direction> w.r.t. seq and every gate tensor."""
    leaves = [seq] + [t for _, gate in params.gates() for t in (gate.wx, gate.wh, gate.bias)]
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        out = fn(seq, params)
        tape.backward((out * Tensor(direction)).sum())
    return [out.data.copy()] + [t.grad.copy() for t in leaves]


class TestFusedLstm:
    @pytest.mark.parametrize("lead", [(1,), (3,)], ids=["b1", "b3"])
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("feat,hidden", [(4, 4), (3, 6), (7, 2)])
    def test_matches_composed_reference(self, lead, steps, feat, hidden):
        rng = np.random.default_rng(1000 * steps + 10 * feat + hidden + len(lead))
        params = _random_lstm(rng, feat, hidden)
        seq = Tensor(rng.normal(size=lead + (feat, steps)), requires_grad=True)
        direction = rng.normal(size=lead + (hidden, steps))
        fused = _lstm_value_and_grads(lstm_forward, seq, params, direction)
        reference = _lstm_value_and_grads(composed.lstm, seq, params, direction)
        for a, b in zip(fused, reference):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    def test_one_record_per_layer(self):
        rng = np.random.default_rng(5)
        params = _random_lstm(rng, 3, 4)
        with Tape() as tape:
            lstm_forward(Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True), params)
        assert len(tape) == 1

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(7)
        params = _random_lstm(rng, 5, 3)
        seqs = rng.normal(size=(3, 5, 4))
        directions = rng.normal(size=(3, 3, 4))
        batch = _lstm_value_and_grads(lstm_forward, Tensor(seqs, requires_grad=True),
                                      params, directions)
        rows = [_lstm_value_and_grads(lstm_forward, Tensor(seqs[k:k + 1], requires_grad=True),
                                      params, directions[k:k + 1]) for k in range(3)]
        np.testing.assert_allclose(batch[0], np.concatenate([r[0] for r in rows]), rtol=1e-12)
        np.testing.assert_allclose(batch[1], np.concatenate([r[1] for r in rows]), rtol=1e-12)
        for pos in range(2, len(batch)):  # parameter gradients sum over the rows
            np.testing.assert_allclose(batch[pos], sum(r[pos] for r in rows),
                                       rtol=1e-12, atol=1e-12 * np.abs(batch[pos]).max())

    def test_input_grad_only_when_tracked(self):
        rng = np.random.default_rng(11)
        params = _random_lstm(rng, 3, 4)
        seq = Tensor(rng.normal(size=(1, 3, 5)))
        with Tape() as tape:
            tape.backward(lstm_forward(seq, params).sum())
        assert seq.grad is None
        assert params.forget_gate.wh.grad.shape == (4, 4)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_pre_activation_raises(self):
        rng = np.random.default_rng(13)
        params = _random_lstm(rng, 3, 4, dtype=np.float32)
        params.cell_gate.wx.data[...] = 3e38
        seq = Tensor(np.abs(rng.normal(size=(2, 3, 3))).astype(np.float32) + 1.0)
        with pytest.raises(NonFiniteError, match="pre-activation"):
            lstm_forward(seq, params)


class TestNormLeaky:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_composed_reference_bitwise(self, batch, mode, dtype):
        rng = np.random.default_rng(batch + 10 * (mode == "train"))
        c = 6
        x = Tensor(rng.normal(size=(batch, c, 5, 3)).astype(dtype), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=c).astype(dtype), requires_grad=True)
        beta = Tensor(rng.normal(size=c).astype(dtype), requires_grad=True)
        direction, reuse = (rng.normal(size=x.dims).astype(dtype) for _ in range(2))
        mean, var = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, size=c).astype(dtype)

        def run(fn):
            state = BatchNormState(mean.copy(), var.copy())
            for t in (x, gamma, beta):
                t.zero_grad()
            with Tape() as tape:
                out = fn(x, gamma, beta, state, mode)
                # x's gradient from outside the op comes first, as a reused input's would
                tape.backward(composed.add((out * Tensor(direction)).sum(), (x * Tensor(reuse)).sum()))
            return [out.data, x.grad, gamma.grad, beta.grad, state.mean, state.var]

        fused, reference = run(norm_leaky), run(composed.norm_leaky)
        assert [a.tobytes() for a in fused] == [b.tobytes() for b in reference]

    @pytest.mark.parametrize("hw", [(80, 80), (40, 10), (5, 1), (1, 1)])
    @pytest.mark.parametrize("c", [1, 8, 128])
    @pytest.mark.parametrize("batch", [1, 3, 4])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_grads_match_einsum_reference_bitwise(self, hw, c, batch, mode, dtype):
        """The channel dot's matmul gives einsum's bytes, a one-element channel's -0.0 included."""
        rng = np.random.default_rng([*hw, c, batch, mode == "train"])
        xd = rng.normal(size=(batch, c) + hw).astype(dtype)
        gd = rng.uniform(0.5, 1.5, size=c).astype(dtype)
        mean, var = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, size=c).astype(dtype)
        direction = rng.normal(size=xd.shape).astype(dtype)

        def grads(fn):
            leaves = [Tensor(a, requires_grad=True) for a in (xd, gd, np.zeros(c, dtype))]
            with Tape() as tape:
                out = fn(*leaves, BatchNormState(mean.copy(), var.copy()), mode)
                tape.backward((out * Tensor(direction)).sum())
            return [t.grad.tobytes() for t in leaves]

        assert grads(norm_leaky) == grads(composed.norm_leaky)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_mode_reads_its_state_only(self, dtype):
        rng = np.random.default_rng(4)
        c = 3
        x = Tensor(rng.normal(size=(2, c, 4, 3)).astype(dtype), requires_grad=True)
        gamma, beta = (Tensor(rng.normal(size=c).astype(dtype), requires_grad=True) for _ in range(2))
        state = BatchNormState(rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2.0, size=c).astype(dtype))
        mean, var = state.mean.copy(), state.var.copy()
        with Tape() as tape:
            out = norm_leaky(x, gamma, beta, state, "eval")
            tape.backward(out.sum())
        assert state.mean.tobytes() == mean.tobytes() and state.var.tobytes() == var.tobytes()
        for arr in (out.data, x.grad, gamma.grad, beta.grad):
            assert not np.shares_memory(arr, state.mean) and not np.shares_memory(arr, state.var)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_backward_keeps_the_statistics_of_its_forward(self, dtype):
        rng = np.random.default_rng(5)
        xd, gd, bd = rng.normal(size=(2, 3, 4, 4)), rng.uniform(0.5, 1.5, 3), rng.normal(size=3)

        def grads(update_between):
            x, gamma, beta = (Tensor(a.astype(dtype), requires_grad=True) for a in (xd, gd, bd))
            state = BatchNormState(np.full(3, 0.3, dtype=dtype), np.full(3, 2.0, dtype=dtype))
            with Tape() as tape:
                out = norm_leaky(x, gamma, beta, state, "eval")
                if update_between:  # a train-mode call folds a batch into the running state
                    norm_leaky(Tensor((xd + 5.0).astype(dtype)), gamma, beta, state, "train")
                tape.backward((out * out).sum())
            return [t.grad.tobytes() for t in (x, gamma, beta)]

        assert grads(True) == grads(False)

    def test_one_record(self):
        rng = np.random.default_rng(3)
        with Tape() as tape:
            norm_leaky(Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True),
                       _t(np.ones(3)), _t(np.zeros(3)), BatchNormState.initial(3))
        assert len(tape) == 1

    def test_planted_inf_raises(self):
        beta = _t(np.zeros(2))
        beta.data[1] = -np.inf  # stays -Inf through the rectifier: the output's scan sees it
        with pytest.raises(NonFiniteError, match="tensor holds"):
            norm_leaky(_t(np.ones((1, 2, 3, 3))), _t(np.ones(2)), beta, BatchNormState.initial(2))


# Each op's call on an input that lacks only its leading batch axis.
WITHOUT_BATCH_AXIS = [
    ("conv2d", (2, 3, 3), lambda x: conv2d(x, _t(np.zeros((1, 2, 1, 1))), _t(np.zeros(1)),
                                           ConvSpec())),
    ("conv_transpose2d", (2, 3, 3), lambda x: conv_transpose2d(x, _t(np.zeros((2, 1, 1, 1))), _t(np.zeros(1)),
                                                               ConvSpec(), (3, 3))),
    ("maxpool2d", (2, 3, 3), lambda x: maxpool2d(x, (1, 1))),
    ("norm_leaky", (2, 3, 3), lambda x: norm_leaky(x, _t(np.ones(2)), _t(np.zeros(2)), BatchNormState.initial(2))),
    ("concat_channels", (2, 3, 3), lambda x: concat_channels([x, x])),
    ("lstm_forward", (3, 4), lambda x: lstm_forward(x, _zero_lstm(3, 5, dtype=np.float32))),
]


@pytest.mark.parametrize("op, shape, call", WITHOUT_BATCH_AXIS, ids=[case[0] for case in WITHOUT_BATCH_AXIS])
def test_input_without_batch_axis_names_the_op(op, shape, call):
    with pytest.raises(ShapeError, match=rf"^{op}: expected a \[B,.*got {re.escape(str(shape))}$"):
        call(_t(np.ones(shape)))
