"""Network graph tests: traces, wirings, attention math, checkpoints."""

import numpy as np
import pytest

from mffcn.attention import (
    ConvParams,
    DenseParams,
    FusionParams,
    SpectralParams,
    channel_attention,
    fusion_block,
    spectral_attention,
)
from mffcn.dsp import MelSegment, VideoSegment
from mffcn.formats import FormatError
from mffcn.model import (
    AUDIO_HW_TRACE,
    FILTERS,
    KERNELS,
    N_LAYERS,
    VIDEO_HW_TRACE,
    FusionStrategy,
    ModelError,
    MffcnParams,
    align_to_audio,
    bottleneck,
    INFER_CHUNK,
    enhance_segment,
    enhance_segments,
    encoder_layer_audio,
    encoder_layer_video,
    init_params,
    load_model,
    mffcn_forward,
    parameter_count,
    parameter_shapes,
    save_model,
    scaled_filters,
    shape_trace,
)
from mffcn.tensor import Tape, Tensor, backward, no_grad


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestTraces:
    def test_audio_trace(self):
        assert AUDIO_HW_TRACE == (
            (80, 20), (40, 10), (40, 10), (20, 5), (20, 5), (10, 5),
            (10, 5), (5, 5), (5, 5), (5, 1), (5, 1))

    def test_video_trace(self):
        assert VIDEO_HW_TRACE == (
            (80, 80), (40, 20), (40, 10), (20, 5), (20, 5), (10, 5),
            (10, 5), (5, 5), (5, 5), (5, 1), (5, 1))

    def test_branches_agree_except_layer_one(self):
        for i in range(1, N_LAYERS + 1):
            if i == 1:
                assert VIDEO_HW_TRACE[i] == (40, 20) != AUDIO_HW_TRACE[i]
            else:
                assert VIDEO_HW_TRACE[i] == AUDIO_HW_TRACE[i]

    def test_scaled_filters(self):
        assert scaled_filters(16) == (4, 4, 8, 8, 16, 16, 32, 32, 64, 64)
        assert scaled_filters(1) == FILTERS
        with pytest.raises(ModelError):
            scaled_filters(3)
        with pytest.raises(ModelError):
            scaled_filters(0)

    def test_shape_trace_tables(self):
        tr = shape_trace(16)
        assert tr["audio"][0] == (1, 80, 20)
        assert tr["audio"][-1] == (64, 5, 1)
        assert tr["video"][0] == (5, 80, 80)
        assert tr["video"][-1] == (64, 5, 1)
        assert tr["decoder"][-1] == (1, 80, 20)
        assert set(tr["parameter_counts"]) == {s.value for s in FusionStrategy}


class TestParameterAccounting:
    def test_names_unique_and_match_init(self):
        for strategy in FusionStrategy:
            shapes = parameter_shapes(strategy, 16)
            names = [n for n, _, _ in shapes]
            assert len(names) == len(set(names))
            params = init_params(0, strategy, 16)
            assert [n for n, _ in params.named] == names
            for (n, shape, _), (_, t) in zip(shapes, params.named):
                assert t.dims == shape, n

    def test_multilayer_minus_late(self):
        # The gap is nine extra fusion blocks plus the ten skip projections;
        # a fusion block at width c holds 8c^2 + 6c weights, a skip
        # projection 2c^2 + c. Recomputed here from the filter schedule.
        fusion_extra = sum(8 * c * c + 6 * c for c in FILTERS[:9])
        skip_extra = sum(2 * c * c + c for c in FILTERS)
        gap = parameter_count(FusionStrategy.MULTILAYER, 1) - \
            parameter_count(FusionStrategy.LATE, 1)
        assert gap == fusion_extra + skip_extra

    def test_early_has_single_video_layer(self):
        names = [n for n, _, _ in parameter_shapes(FusionStrategy.EARLY, 8)]
        assert "video_enc.1.conv.weight" in names
        assert not any(n.startswith("video_enc.2.") for n in names)

    def test_bottleneck_reduce_only_for_concat_wiring(self):
        for strategy in FusionStrategy:
            names = [n for n, _, _ in parameter_shapes(strategy, 8)]
            has = any(n.startswith("ib_reduce") for n in names)
            assert has == (strategy is FusionStrategy.INTERMEDIATE_BOTTLENECK)

    def test_width_divisor_scales_conv_weights(self):
        full = dict((n, s) for n, s, _ in parameter_shapes(FusionStrategy.LATE, 1))
        quarter = dict((n, s) for n, s, _ in parameter_shapes(FusionStrategy.LATE, 4))
        assert full["audio_enc.2.conv.weight"] == (64, 64, 4, 4)
        assert quarter["audio_enc.2.conv.weight"] == (16, 16, 4, 4)


class TestInit:
    def test_deterministic(self):
        a = init_params(7, FusionStrategy.LATE, 16)
        b = init_params(7, FusionStrategy.LATE, 16)
        for (n1, t1), (n2, t2) in zip(a.named, b.named):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)

    def test_seed_changes_weights(self):
        a = init_params(0, FusionStrategy.LATE, 16)
        b = init_params(1, FusionStrategy.LATE, 16)
        assert not np.array_equal(a.named[0][1].data, b.named[0][1].data)

    def test_bounds_and_constants(self):
        params = init_params(3, FusionStrategy.MULTILAYER, 16)
        by_name = dict(params.named)
        w = by_name["audio_enc.1.conv.weight"]
        bound = np.sqrt(6.0 / (1 * 5 * 5))
        assert np.abs(w.data).max() <= bound
        dw = by_name["decoder.1.deconv.weight"]  # [64, 64, 2, 2], fan-in 64*4
        assert np.abs(dw.data).max() <= np.sqrt(6.0 / (64 * 4))
        assert np.all(by_name["audio_enc.1.conv.bias"].data == 0.0)
        assert np.all(by_name["audio_enc.4.bn.gamma"].data == 1.0)
        assert np.all(by_name["audio_enc.4.bn.beta"].data == 0.0)
        assert np.all(by_name["bottleneck.lstm.1.forget.bias"].data == 1.0)
        assert np.all(by_name["bottleneck.lstm.1.input.bias"].data == 0.0)

    def test_requires_grad_everywhere(self):
        params = init_params(0, FusionStrategy.EARLY, 16)
        assert all(t.requires_grad for _, t in params.named)


def _small_inputs(seed=0, batch=None):
    rng = np.random.default_rng(seed)
    yshape = (1, 80, 20) if batch is None else (batch, 1, 80, 20)
    vshape = (5, 80, 80) if batch is None else (batch, 5, 80, 80)
    y = Tensor(rng.normal(scale=0.5, size=yshape).astype(np.float32))
    v = Tensor(rng.uniform(size=vshape).astype(np.float32))
    return y, v


class TestForward:
    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_output_matches_input_shape(self, strategy):
        params = init_params(0, strategy, 16)
        y, v = _small_inputs()
        out = mffcn_forward(y, v, params, mode="eval")
        assert out.dims == (1, 80, 20)
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_batched(self, strategy):
        params = init_params(1, strategy, 16)
        y, v = _small_inputs(1, batch=2)
        out = mffcn_forward(y, v, params, mode="train")
        assert out.dims == (2, 1, 80, 20)
        assert np.isfinite(out.data).all()

    def test_gradients_reach_every_parameter(self):
        params = init_params(2, FusionStrategy.MULTILAYER, 16)
        y, v = _small_inputs(2)
        with Tape() as tape:
            out = mffcn_forward(y, v, params, mode="eval")
            loss = (out * out).mean()
            backward(loss)
        missing = [n for n, t in params.named if t.grad is None]
        assert missing == []

    def test_strategy_argument_must_agree(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        y, v = _small_inputs()
        with pytest.raises(ModelError):
            mffcn_forward(y, v, params, strategy=FusionStrategy.EARLY)

    def test_input_validation(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        y, v = _small_inputs()
        bad_y = Tensor(np.zeros((1, 40, 20), dtype=np.float32))
        with pytest.raises(ModelError):
            mffcn_forward(bad_y, v, params)
        bad_v = Tensor(np.zeros((5, 80, 40), dtype=np.float32))
        with pytest.raises(ModelError):
            mffcn_forward(y, bad_v, params)
        yb = Tensor(np.zeros((2, 1, 80, 20), dtype=np.float32))
        with pytest.raises(ModelError):
            mffcn_forward(yb, v, params)

    def test_trace_violation_message(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        wrong = Tensor(np.zeros((4, 13, 13), dtype=np.float32))
        with pytest.raises(ModelError, match="trace violation"):
            encoder_layer_audio(wrong, 2, params.audio_enc[1])
        with pytest.raises(ModelError, match="trace violation"):
            encoder_layer_video(wrong, 2, params.video_enc[1])

    def test_align_pools_only_layer_one(self):
        feat = Tensor(np.arange(4 * 40 * 20, dtype=np.float32).reshape(4, 40, 20))
        aligned = align_to_audio(feat, 1)
        assert aligned.dims == (4, 40, 10)
        feat2 = Tensor(np.zeros((8, 20, 5), dtype=np.float32))
        assert align_to_audio(feat2, 3) is feat2

    def test_eval_forward_is_pure(self):
        params = init_params(4, FusionStrategy.EARLY, 16)
        y, v = _small_inputs(4)
        y0, v0 = y.data.copy(), v.data.copy()
        states0 = [(st.mean.copy(), st.var.copy()) for _, st in params.named_states]
        mffcn_forward(y, v, params, mode="eval")
        assert np.array_equal(y.data, y0)
        assert np.array_equal(v.data, v0)
        for (m0, v0_), (_, st) in zip(states0, params.named_states):
            assert np.array_equal(st.mean, m0)
            assert np.array_equal(st.var, v0_)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_batch_rows_match_batch_one(self, strategy):
        """Eval-mode rows of one batched forward equal their own batch-1 forwards."""
        params = init_params(6, strategy, 16, dtype=np.float64)
        rng = np.random.default_rng(6)
        y = rng.normal(scale=0.5, size=(3, 1, 80, 20))
        v = rng.uniform(size=(3, 5, 80, 80))
        with no_grad():
            out = mffcn_forward(Tensor(y), Tensor(v), params, mode="eval").data
            again = mffcn_forward(Tensor(y), Tensor(v), params, mode="eval").data
            rows = [mffcn_forward(Tensor(y[i]), Tensor(v[i]), params, mode="eval").data
                    for i in range(3)]
        assert np.array_equal(out, again)
        for i, row in enumerate(rows):
            np.testing.assert_allclose(out[i], row, rtol=0, atol=1e-12 * np.abs(row).max())

    def test_train_mode_updates_running_stats(self):
        params = init_params(5, FusionStrategy.LATE, 16)
        y, v = _small_inputs(5, batch=2)
        before = params.audio_enc[0].norm.state.mean.copy()
        mffcn_forward(y, v, params, mode="train")
        assert not np.array_equal(params.audio_enc[0].norm.state.mean, before)


def _rand_fusion_params(rng, c, equal_heads=False):
    def conv(c_out, c_in):
        return ConvParams(
            weight=Tensor(rng.normal(scale=0.3, size=(c_out, c_in, 1, 1)).astype(np.float32)),
            bias=Tensor(rng.normal(scale=0.1, size=(c_out,)).astype(np.float32)))

    def dense(c_out, c_in):
        return DenseParams(
            weight=Tensor(rng.normal(scale=0.3, size=(c_out, c_in)).astype(np.float32)),
            bias=Tensor(rng.normal(scale=0.1, size=(c_out,)).astype(np.float32)))

    fc_v = dense(c, c)
    fc_a = dense(c, c) if not equal_heads else DenseParams(
        weight=Tensor(fc_v.weight.data.copy()), bias=Tensor(fc_v.bias.data.copy()))
    return FusionParams(
        concat_reduce=conv(c, 2 * c),
        fc_v=fc_v,
        fc_a=fc_a,
        post_weight=conv(c, 2 * c),
        spectral=SpectralParams(hidden=conv(c, c), mask=conv(c, c)))


class TestChannelAttention:
    def test_against_plain_numpy(self):
        # independent recomputation with raw einsum and explicit logistic
        rng = np.random.default_rng(11)
        c, h, w = 3, 2, 4
        p = _rand_fusion_params(rng, c)
        v = Tensor(rng.normal(size=(c, h, w)).astype(np.float32))
        a = Tensor(rng.normal(size=(c, h, w)).astype(np.float32))
        fused, wv, wa = channel_attention(v, a, p, return_weights=True)

        cat = np.concatenate([v.data, a.data], axis=0).astype(np.float64)
        merged = np.einsum("dsuv,shw->dhw", p.concat_reduce.weight.data.astype(np.float64),
                           cat) + p.concat_reduce.bias.data[:, None, None]
        desc = merged.mean(axis=(1, 2))
        sv = p.fc_v.weight.data.astype(np.float64) @ desc + p.fc_v.bias.data
        sa = p.fc_a.weight.data.astype(np.float64) @ desc + p.fc_a.bias.data
        ev, ea = np.exp(sv), np.exp(sa)
        exp_wv = ev / (ev + ea)
        exp_wa = ea / (ev + ea)
        scaled = np.concatenate([v.data * exp_wv[:, None, None],
                                 a.data * exp_wa[:, None, None]], axis=0)
        expected = np.einsum("dsuv,shw->dhw", p.post_weight.weight.data.astype(np.float64),
                             scaled) + p.post_weight.bias.data[:, None, None]

        assert np.allclose(wv.data, exp_wv, atol=1e-5)
        assert np.allclose(wa.data, exp_wa, atol=1e-5)
        assert np.allclose(fused.data, expected, atol=1e-4)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for c in (2, 5):
            p = _rand_fusion_params(rng, c)
            v = Tensor(rng.normal(size=(c, 3, 3)).astype(np.float32))
            a = Tensor(rng.normal(size=(c, 3, 3)).astype(np.float32))
            _, wv, wa = channel_attention(v, a, p, return_weights=True)
            assert np.all(wv.data > 0) and np.all(wa.data > 0)
            assert np.allclose(wv.data + wa.data, 1.0, atol=1e-6)

    def test_equal_heads_split_evenly(self):
        rng = np.random.default_rng(13)
        p = _rand_fusion_params(rng, 4, equal_heads=True)
        v = Tensor(rng.normal(size=(4, 2, 2)).astype(np.float32))
        a = Tensor(rng.normal(size=(4, 2, 2)).astype(np.float32))
        _, wv, wa = channel_attention(v, a, p, return_weights=True)
        assert np.allclose(wv.data, 0.5)
        assert np.allclose(wa.data, 0.5)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        p = _rand_fusion_params(rng, 2)
        v = Tensor(np.zeros((2, 3, 3), dtype=np.float32))
        a = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        with pytest.raises(Exception):
            channel_attention(v, a, p)


class TestSpectralAttention:
    def test_mask_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(15)
        p = _rand_fusion_params(rng, 3).spectral
        x = Tensor(rng.normal(scale=5.0, size=(3, 4, 4)).astype(np.float32))
        gated, mask = spectral_attention(x, p, return_mask=True)
        assert np.all(mask.data > 0.0)
        assert np.all(mask.data < 1.0)
        assert gated.dims == x.dims

    def test_against_plain_numpy(self):
        rng = np.random.default_rng(16)
        p = _rand_fusion_params(rng, 2).spectral
        x = Tensor(rng.normal(size=(2, 3, 3)).astype(np.float32))
        gated = spectral_attention(x, p)
        xd = x.data.astype(np.float64)
        hid = np.einsum("dsuv,shw->dhw", p.hidden.weight.data.astype(np.float64), xd) \
            + p.hidden.bias.data[:, None, None]
        hid = np.maximum(hid, 0.0)
        mask = _sigmoid(np.einsum("dsuv,shw->dhw", p.mask.weight.data.astype(np.float64), hid)
                        + p.mask.bias.data[:, None, None])
        assert np.allclose(gated.data, xd * mask, atol=1e-5)

    def test_fusion_block_composes(self):
        rng = np.random.default_rng(17)
        p = _rand_fusion_params(rng, 3)
        v = Tensor(rng.normal(size=(3, 2, 2)).astype(np.float32))
        a = Tensor(rng.normal(size=(3, 2, 2)).astype(np.float32))
        out = fusion_block(v, a, p)
        ca = channel_attention(v, a, p)
        expected = spectral_attention(ca, p.spectral)
        assert np.array_equal(out.data, expected.data)


class TestBottleneck:
    def test_zeroed_lstm_maps_to_zero(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        for layer in params.bottleneck_lstm:
            for _, gate in layer.gates():
                gate.wx.data[...] = 0.0
                gate.wh.data[...] = 0.0
                gate.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(0).normal(size=(64, 5, 1)).astype(np.float32))
        out = bottleneck(x, params.bottleneck_attn, params.bottleneck_lstm)
        assert out.dims == (64, 5, 1)
        assert np.allclose(out.data, 0.0)

    def test_shape_guard(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        bad = Tensor(np.zeros((64, 4, 1), dtype=np.float32))
        with pytest.raises(ModelError):
            bottleneck(bad, params.bottleneck_attn, params.bottleneck_lstm)
        thin = Tensor(np.zeros((32, 5, 1), dtype=np.float32))
        with pytest.raises(ModelError):
            bottleneck(thin, params.bottleneck_attn, params.bottleneck_lstm)


class TestDegenerateIsomorphism:
    def test_averaging_blocks_run_finite_on_both_wirings(self):
        # Fusion convs averaging the two stacked halves, equal score heads:
        # the block reduces to a fixed mixing operator. Both topologies must
        # stay finite; they are not expected to agree numerically.
        outs = {}
        for strategy in (FusionStrategy.MULTILAYER, FusionStrategy.INTERMEDIATE_DECODER):
            params = init_params(9, strategy, 16)
            blocks = list(params.fusion.values())
            if params.decoder_fusion is not None:
                blocks += list(params.decoder_fusion)
            for blk in blocks:
                c = blk.concat_reduce.weight.dims[0]
                avg = np.zeros((c, 2 * c, 1, 1), dtype=np.float32)
                for ch in range(c):
                    avg[ch, ch, 0, 0] = 0.5
                    avg[ch, c + ch, 0, 0] = 0.5
                blk.concat_reduce.weight.data[...] = avg
                blk.post_weight.weight.data[...] = avg
                blk.concat_reduce.bias.data[...] = 0.0
                blk.post_weight.bias.data[...] = 0.0
                blk.fc_a.weight.data[...] = blk.fc_v.weight.data
                blk.fc_a.bias.data[...] = blk.fc_v.bias.data
            y, v = _small_inputs(9)
            out = mffcn_forward(y, v, params, mode="eval")
            assert np.isfinite(out.data).all()
            outs[strategy] = out.data
        assert outs[FusionStrategy.MULTILAYER].shape == \
            outs[FusionStrategy.INTERMEDIATE_DECODER].shape


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("strategy", [FusionStrategy.EARLY, FusionStrategy.MULTILAYER])
    def test_bit_identical_forward(self, tmp_path, strategy):
        params = init_params(21, strategy, 16)
        y, v = _small_inputs(21, batch=2)
        mffcn_forward(y, v, params, mode="train")  # move running stats off init
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        loaded = load_model(path)
        assert loaded.strategy is strategy
        assert loaded.width_divisor == 16
        out_a = mffcn_forward(y, v, params, mode="eval")
        out_b = mffcn_forward(y, v, loaded, mode="eval")
        assert np.array_equal(out_a.data, out_b.data)

    def test_running_stats_survive(self, tmp_path):
        params = init_params(22, FusionStrategy.LATE, 16)
        y, v = _small_inputs(22, batch=2)
        mffcn_forward(y, v, params, mode="train")
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        loaded = load_model(path)
        for (n1, s1), (n2, s2) in zip(params.named_states, loaded.named_states):
            assert n1 == n2
            assert np.allclose(s1.mean, s2.mean, atol=1e-7)
            assert np.allclose(s1.var, s2.var, atol=1e-7)

    def test_missing_entry_rejected(self, tmp_path):
        from mffcn.formats import load_checkpoint, save_checkpoint
        params = init_params(0, FusionStrategy.EARLY, 16)
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        entries = load_checkpoint(path)
        del entries["audio_enc.1.conv.weight"]
        save_checkpoint(path, entries)
        with pytest.raises(FormatError, match="missing parameter"):
            load_model(path)

    def test_extra_entry_rejected(self, tmp_path):
        from mffcn.formats import load_checkpoint, save_checkpoint
        params = init_params(0, FusionStrategy.EARLY, 16)
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        entries = load_checkpoint(path)
        entries["stowaway"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(path, entries)
        with pytest.raises(FormatError, match="unknown entries"):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        from mffcn.formats import load_checkpoint, save_checkpoint
        params = init_params(0, FusionStrategy.EARLY, 16)
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        entries = load_checkpoint(path)
        entries["audio_enc.1.conv.bias"] = np.zeros(7, dtype=np.float32)
        save_checkpoint(path, entries)
        with pytest.raises(FormatError, match="shape"):
            load_model(path)


class TestEnhanceSegment:
    def test_types_and_origin(self):
        params = init_params(0, FusionStrategy.EARLY, 16)
        rng = np.random.default_rng(0)
        seg = MelSegment(rng.normal(size=(80, 20)).astype(np.float32), origin="clip7:frames[0,20)")
        vid = VideoSegment(rng.uniform(size=(5, 80, 80)).astype(np.float32))
        out = enhance_segment(seg, vid, params)
        assert isinstance(out, MelSegment)
        assert out.values.shape == (80, 20)
        assert out.values.dtype == np.float32
        assert out.origin == "enhanced(clip7:frames[0,20))"


def _segments(n, seed=0):
    rng = np.random.default_rng(seed)
    noisy = [MelSegment(rng.normal(size=(80, 20)).astype(np.float32), origin=f"clip{seed}:frames[{20 * k},{20 * k + 20})")
             for k in range(n)]
    videos = [VideoSegment(rng.uniform(size=(5, 80, 80)).astype(np.float32)) for _ in range(n)]
    return noisy, videos


class TestEnhanceSegments:
    @pytest.fixture(scope="class")
    def params(self):
        return init_params(0, FusionStrategy.MULTILAYER, 16)

    @pytest.mark.parametrize("n", [1, 3, 8, 9])
    def test_matches_per_segment(self, params, n, monkeypatch):
        """Rows of a chunked batch agree with one-segment calls to float32 rounding."""
        noisy, videos = _segments(n, seed=n)
        batches = []
        forward = mffcn_forward

        def counting_forward(y, v, p, mode="train", strategy=None):
            batches.append(y.dims[0])
            return forward(y, v, p, mode=mode, strategy=strategy)

        monkeypatch.setattr("mffcn.model.mffcn_forward", counting_forward)
        batched = enhance_segments(noisy, videos, params)
        assert batches == [min(INFER_CHUNK, n - lo) for lo in range(0, n, INFER_CHUNK)]
        single = [enhance_segment(s, v, params) for s, v in zip(noisy, videos)]
        assert len(batched) == n
        for got, want in zip(batched, single):
            assert got.values.dtype == np.float32
            scale = np.abs(want.values).max()
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-5 * scale)

    def test_one_segment_matches_unbatched_forward(self, params):
        (seg,), (vid,) = _segments(1)
        with no_grad():
            want = mffcn_forward(Tensor(seg.values[None]), Tensor(vid.frames), params, mode="eval").data[0]
        got = enhance_segment(seg, vid, params).values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())

    def test_origins_kept_in_order(self, params):
        noisy, videos = _segments(9)
        out = enhance_segments(noisy, videos, params)
        assert [o.origin for o in out] == [f"enhanced({s.origin})" for s in noisy]

    def test_mismatched_lengths_rejected(self, params):
        noisy, videos = _segments(3)
        with pytest.raises(ModelError, match="3 audio segments but 2 video"):
            enhance_segments(noisy, videos[:2], params)

    def test_empty_input_rejected(self, params):
        with pytest.raises(ModelError, match="no segments"):
            enhance_segments([], [], params)
