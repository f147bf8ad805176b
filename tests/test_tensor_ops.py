"""Unit tests for the tensor engine and the neural-net operations."""

import numpy as np
import pytest

from mffcn.ops import (
    BatchNormState,
    ConvSpec,
    LstmGate,
    LstmLayerParams,
    activation,
    batch_norm,
    concat_channels,
    conv2d,
    conv_transpose2d,
    fully_connected,
    global_avg_pool,
    lstm_forward,
    maxpool2d,
    scale_channels,
    softmax_pair,
)
from mffcn.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    TensorError,
    backward,
    no_grad,
    stack,
)


def _t(data, grad=False, dtype=np.float32):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=grad)


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_float64_supported(self):
        t = Tensor(np.array([1.0]), dtype=np.float64)
        assert t.dtype == np.float64

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])
        with pytest.raises(NonFiniteError):
            Tensor([np.inf])

    def test_rejects_zero_extent(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 0)))

    def test_item_requires_single_element(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()
        assert Tensor([[3.5]]).item() == 3.5

    def test_binary_op_shape_strictness(self):
        with pytest.raises(ShapeError):
            _t([1.0, 2.0]) + _t([[1.0, 2.0]])


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
            loss = (x + x).sum()
            tape.backward(loss)
        assert np.allclose(x.grad, [2.0])

    def test_tape_replays_once(self):
        x = _t([1.0], grad=True)
        with Tape() as tape:
            loss = x.sum()
            tape.backward(loss)
            with pytest.raises(TensorError):
                tape.backward(loss)

    def test_backward_requires_scalar(self):
        x = _t([1.0, 2.0], grad=True)
        with Tape() as tape:
            y = x * 2.0
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_backward_off_tape_rejected(self):
        x = _t([1.0], grad=True)
        with pytest.raises(TensorError):
            backward(x)

    def test_no_grad_suppresses_recording(self):
        x = _t([1.0], grad=True)
        with Tape() as tape:
            with no_grad():
                y = x * 3.0
            assert not y.requires_grad
            assert len(tape) == 0

    def test_module_level_backward(self):
        x = _t([1.0, 2.0], grad=True)
        with Tape():
            loss = (x * x).mean()
            backward(loss)
        assert np.allclose(x.grad, x.data)  # d/dx mean(x^2) = 2x/2

    def test_ops_outside_tape_do_not_track(self):
        x = _t([1.0], grad=True)
        y = x * 2.0
        assert not y.requires_grad

    def test_untouched_branch_keeps_none_grad(self):
        x = _t([1.0], grad=True)
        y = _t([1.0], grad=True)
        with Tape() as tape:
            _ = y * 5.0  # recorded but not part of the loss
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

    def test_permute_moves_axes(self):
        x = _t(np.arange(24.0).reshape(2, 3, 4))
        y = x.permute(2, 0, 1)
        assert y.dims == (4, 2, 3)
        assert np.array_equal(y.data, np.transpose(x.data, (2, 0, 1)))

    def test_pick_extracts_and_scatters(self):
        x = _t(np.arange(12.0).reshape(3, 4), grad=True)
        with Tape() as tape:
            row = x.pick(axis=0, index=1)
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
        x = _t([[[1.0, 2.0], [3.0, 4.0]]])
        w = _t(np.ones((1, 1, 2, 2)))
        b = _t([0.0])
        spec = ConvSpec(out_channels=1, kernel=(2, 2), stride=(1, 1))
        y = conv2d(x, w, b, spec)
        assert np.array_equal(y.data[0], np.array([[10.0, 6.0], [7.0, 4.0]], dtype=np.float32))

    def test_one_by_one_identity(self):
        x = _t(np.random.default_rng(0).normal(size=(3, 5, 7)))
        w = _t(np.eye(3).reshape(3, 3, 1, 1))
        b = _t(np.zeros(3))
        y = conv2d(x, w, b, ConvSpec(out_channels=3, kernel=(1, 1)))
        assert np.allclose(y.data, x.data, atol=1e-6)

    def test_table_first_audio_layer_shape(self):
        x = _t(np.zeros((1, 80, 20)))
        w = _t(np.zeros((64, 1, 5, 5)))
        b = _t(np.zeros(64))
        y = conv2d(x, w, b, ConvSpec(out_channels=64, kernel=(5, 5), stride=(2, 2)))
        assert y.dims == (64, 40, 10)

    def test_batched_matches_unbatched(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 5)).astype(np.float32)
        w = _t(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        b = _t(rng.normal(size=4).astype(np.float32))
        spec = ConvSpec(out_channels=4, kernel=(3, 3), stride=(2, 1))
        full = conv2d(_t(x), w, b, spec)
        for i in range(2):
            single = conv2d(_t(x[i]), w, b, spec)
            assert np.allclose(full.data[i], single.data, atol=1e-6)

    def test_channel_mismatch_names_axis(self):
        x = _t(np.zeros((2, 4, 4)))
        w = _t(np.zeros((1, 3, 2, 2)))
        b = _t(np.zeros(1))
        with pytest.raises(ShapeError, match="channel"):
            conv2d(x, w, b, ConvSpec(out_channels=1, kernel=(2, 2)))

    def test_input_left_unchanged(self):
        x_data = np.random.default_rng(1).normal(size=(2, 4, 4)).astype(np.float32)
        x = Tensor(x_data.copy(), requires_grad=True)
        w = _t(np.ones((2, 2, 3, 3)), grad=True)
        b = _t(np.zeros(2), grad=True)
        with Tape() as tape:
            y = conv2d(x, w, b, ConvSpec(out_channels=2, kernel=(3, 3)))
            tape.backward(y.sum())
        assert np.array_equal(x.data, x_data)


class TestConvTranspose2d:
    def test_identity_kernel(self):
        x = _t(np.random.default_rng(5).normal(size=(2, 4, 6)))
        w = _t(np.eye(2).reshape(2, 2, 1, 1))
        b = _t(np.zeros(2))
        y = conv_transpose2d(x, w, b, ConvSpec(out_channels=2, kernel=(1, 1)), out_hw=(4, 6))
        assert np.allclose(y.data, x.data, atol=1e-6)

    def test_inverts_first_audio_layer_extents(self):
        x = _t(np.zeros((64, 40, 10)))
        w = _t(np.zeros((64, 1, 5, 5)))
        b = _t(np.zeros(1))
        spec = ConvSpec(out_channels=1, kernel=(5, 5), stride=(2, 2))
        y = conv_transpose2d(x, w, b, spec, out_hw=(80, 20))
        assert y.dims == (1, 80, 20)

    def test_rejects_inconsistent_target_extent(self):
        x = _t(np.zeros((1, 4, 4)))
        w = _t(np.zeros((1, 1, 2, 2)))
        b = _t(np.zeros(1))
        spec = ConvSpec(out_channels=1, kernel=(2, 2), stride=(2, 2))
        with pytest.raises(ShapeError, match="extent"):
            conv_transpose2d(x, w, b, spec, out_hw=(9, 8))

    def test_matches_conv2d_input_gradient_with_flipped_kernels(self):
        rng = np.random.default_rng(7)
        spec = ConvSpec(out_channels=3, kernel=(3, 2), stride=(2, 1))
        x = Tensor(rng.normal(size=(2, 6, 5)).astype(np.float64), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 2)).astype(np.float64))
        b = Tensor(np.zeros(3, dtype=np.float64))
        g = rng.normal(size=(3, 3, 5)).astype(np.float64)
        with Tape() as tape:
            y = conv2d(x, w, b, spec)
            tape.backward((y * Tensor(g)).sum())
        flipped = Tensor(np.ascontiguousarray(w.data[:, :, ::-1, ::-1]))
        via_transpose = conv_transpose2d(
            Tensor(g), flipped, Tensor(np.zeros(2, dtype=np.float64)),
            ConvSpec(out_channels=2, kernel=(3, 2), stride=(2, 1)), out_hw=(6, 5))
        assert np.allclose(x.grad, via_transpose.data, atol=1e-10)


class TestMaxPool:
    def test_single_window(self):
        y = maxpool2d(_t([[[1.0, 2.0], [3.0, 4.0]]]), window=(2, 2))
        assert y.dims == (1, 1, 1)
        assert y.item() == 4.0

    def test_window_one_is_identity(self):
        x = _t(np.random.default_rng(2).normal(size=(3, 4, 5)))
        y = maxpool2d(x, window=(1, 1))
        assert np.array_equal(y.data, x.data)

    def test_video_table_row_shape(self):
        y = maxpool2d(_t(np.zeros((64, 80, 80))), window=(2, 4))
        assert y.dims == (64, 40, 20)

    def test_ceil_padding_keeps_real_max(self):
        x = _t(np.array([[[1.0, 2.0, 3.0]]]))  # width 3, window 2 -> ceil = 2
        y = maxpool2d(x, window=(1, 2))
        assert np.array_equal(y.data[0, 0], [2.0, 3.0])

    def test_tie_routes_gradient_to_first_element(self):
        x = _t(np.ones((1, 2, 2)), grad=True)
        with Tape() as tape:
            y = maxpool2d(x, window=(2, 2))
            tape.backward(y.sum())
        expect = np.zeros((1, 2, 2))
        expect[0, 0, 0] = 1.0
        assert np.array_equal(x.grad, expect)


class TestBatchNorm:
    def test_constant_input_maps_to_zero(self):
        x = _t(np.full((3, 4, 4), 7.0))
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

    def test_eval_mode_uses_running_stats(self):
        x = _t(np.full((1, 2, 2), 3.0))
        state = BatchNormState(mean=np.array([3.0], dtype=np.float32),
                               var=np.array([1.0], dtype=np.float32))
        y = batch_norm(x, _t(np.ones(1)), _t(np.zeros(1)), state, mode="eval")
        assert np.allclose(y.data, 0.0, atol=1e-5)
        assert state.mean[0] == 3.0  # eval leaves the state alone


class TestActivationsAndGating:
    def test_leaky_relu_values(self):
        y = activation(_t([-1.0, 3.0]), "leaky_relu")
        assert np.allclose(y.data, [-0.2, 3.0])

    def test_relu_values(self):
        y = activation(_t([-2.0, 0.0, 2.0]), "relu")
        assert np.allclose(y.data, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert activation(_t([0.0]), "sigmoid").item() == pytest.approx(0.5)

    def test_sigmoid_stays_inside_open_interval(self):
        y = activation(_t([-500.0, 500.0]), "sigmoid")
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
        got = _t(x, dtype=dtype).sigmoid().data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError, match="kind"):
            activation(_t([1.0]), "swish")

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
        x = _t([1.5, -2.5])
        y = fully_connected(x, _t(np.eye(2)), _t(np.zeros(2)))
        assert np.allclose(y.data, x.data)

    def test_dot_product_example(self):
        y = fully_connected(_t([2.0, 3.0]), _t([[1.0, 1.0]]), _t([1.0]))
        assert np.allclose(y.data, [6.0])

    def test_bias_optional(self):
        y = fully_connected(_t([2.0, 3.0]), _t([[1.0, 1.0]]))
        assert np.allclose(y.data, [5.0])

    def test_global_avg_pool_mean(self):
        y = global_avg_pool(_t([[[1.0, 3.0], [5.0, 7.0]]]))
        assert np.allclose(y.data, [4.0])

    def test_global_avg_pool_constant(self):
        y = global_avg_pool(_t(np.full((3, 2, 5), 2.5)))
        assert np.allclose(y.data, 2.5)

    def test_global_avg_pool_unit_spatial(self):
        x = _t(np.arange(4.0).reshape(4, 1, 1))
        assert np.allclose(global_avg_pool(x).data, np.arange(4.0))


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
            conv2d(_t(np.ones((3, 5, 4))), w, _t(np.zeros(2)), ConvSpec(out_channels=2, kernel=(3, 3)))

    def test_batch_norm_nan_gamma(self):
        gamma = self._poison(_t(np.ones(2)))
        with pytest.raises(NonFiniteError, match="tensor holds"):
            batch_norm(_t(np.ones((2, 3, 3))), gamma, _t(np.zeros(2)), BatchNormState.initial(2), mode="eval")

    def test_fully_connected_nan_weight(self):
        w = self._poison(_t(np.ones((2, 3))))
        with pytest.raises(NonFiniteError, match="tensor holds"):
            fully_connected(_t(np.ones((4, 3))), w)


class TestConcatAndScale:
    def test_concat_channel_counts_add(self):
        a = _t(np.zeros((512, 5, 5)))
        v = _t(np.zeros((512, 5, 5)))
        assert concat_channels([a, v]).dims == (1024, 5, 5)

    def test_concat_single_identity(self):
        x = _t(np.random.default_rng(29).normal(size=(2, 3, 3)))
        assert np.array_equal(concat_channels([x]).data, x.data)

    def test_concat_slices_recover_inputs(self):
        rng = np.random.default_rng(31)
        a = _t(rng.normal(size=(2, 3, 4)))
        b = _t(rng.normal(size=(5, 3, 4)))
        y = concat_channels([a, b])
        assert np.array_equal(y.data[:2], a.data)
        assert np.array_equal(y.data[2:], b.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError, match="spatial"):
            concat_channels([_t(np.zeros((1, 2, 2))), _t(np.zeros((1, 3, 2)))])

    def test_scale_ones_identity(self):
        x = _t(np.random.default_rng(37).normal(size=(3, 4, 4)))
        y = scale_channels(x, _t(np.ones(3)))
        assert np.allclose(y.data, x.data)

    def test_scale_half(self):
        x = _t(np.random.default_rng(41).normal(size=(2, 3, 3)))
        y = scale_channels(x, _t([0.5, 0.5]))
        assert np.allclose(y.data, 0.5 * x.data)

    def test_scale_weight_gradient_is_channel_sum(self):
        x = _t(np.random.default_rng(43).normal(size=(3, 2, 2)))
        w = _t(np.ones(3), grad=True)
        with Tape() as tape:
            tape.backward(scale_channels(x, w).sum())
        assert np.allclose(w.grad, x.data.sum(axis=(1, 2)), atol=1e-5)

    def test_scale_full_shape_mask(self):
        rng = np.random.default_rng(47)
        x = _t(rng.normal(size=(2, 3, 3)))
        m = _t(rng.uniform(size=(2, 3, 3)))
        assert np.allclose(scale_channels(x, m).data, x.data * m.data)


def _zero_lstm(feat, hidden, dtype=np.float64):
    def gate():
        return LstmGate(wx=Tensor(np.zeros((hidden, feat), dtype=dtype)),
                        wh=Tensor(np.zeros((hidden, hidden), dtype=dtype)),
                        bias=Tensor(np.zeros(hidden, dtype=dtype)))
    return LstmLayerParams(gate(), gate(), gate(), gate())


class TestLstm:
    def test_zero_weights_give_zero_hiddens(self):
        seq = _t(np.random.default_rng(53).normal(size=(4, 3)), dtype=np.float64)
        out = lstm_forward(seq, _zero_lstm(3, 5))
        assert out.dims == (4, 5)
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
        x = rng.normal(size=(1, feat))
        out = lstm_forward(Tensor(x), params)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        zi = params.input_gate.wx.data @ x[0] + params.input_gate.bias.data
        zf = params.forget_gate.wx.data @ x[0] + params.forget_gate.bias.data
        zg = params.cell_gate.wx.data @ x[0] + params.cell_gate.bias.data
        zo = params.output_gate.wx.data @ x[0] + params.output_gate.bias.data
        c = sig(zf) * 0.0 + sig(zi) * np.tanh(zg)
        h = sig(zo) * np.tanh(c)
        assert np.allclose(out.data[0], h, atol=1e-6)

    def test_batched_layout(self):
        seq = Tensor(np.random.default_rng(61).normal(size=(2, 4, 3)))
        out = lstm_forward(seq, _zero_lstm(3, 6, dtype=np.float32))
        assert out.dims == (2, 4, 6)

    def test_feature_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="feature"):
            lstm_forward(_t(np.zeros((4, 7))), _zero_lstm(3, 5))
