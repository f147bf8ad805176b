"""Network graph tests: traces, wirings, attention math, checkpoints."""

import hashlib
import math

import numpy as np
import pytest

from mffcn.attention import (
    ConvParams,
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
    VIDEO_POOLS,
    ForwardMemo,
    FusionStrategy,
    ModelError,
    MffcnParams,
    align_to_audio,
    bottleneck,
    decoder_layer,
    INFER_CHUNK,
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
from mffcn import model as model_module
from mffcn.tensor import NonFiniteError, ShapeError, Tape, Tensor, no_grad

import composed


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

    def test_video_extents_are_integer_multiples_of_audio(self):
        # align_to_audio closes any gap with one max pool of window video / audio
        for (vh, vw), (ah, aw) in zip(VIDEO_HW_TRACE, AUDIO_HW_TRACE):
            assert vh % ah == 0 and vw % aw == 0

    def test_every_video_pool_tiles_its_input(self):
        # maxpool2d takes only windows that tile its input
        for (h, w), (ph, pw) in zip(VIDEO_HW_TRACE, VIDEO_POOLS):
            assert h % ph == 0 and w % pw == 0

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

    # sha256 of save_model(init_params(0, wiring, 16)) and of the space-joined
    # kind column of parameter_shapes(wiring, 16)
    PINNED = {
        FusionStrategy.EARLY: (
            "0458e4a509e5734dfb8b7eb613838c7bfca2c17ebc2cdf46103630b1593d77f5", "adba09db6c7ee6e9"),
        FusionStrategy.LATE: (
            "fb0ae8a445647a12f5489d769a2e3632e68852fcf307a34066fc604b36f103b4", "5913af2b55cb50a6"),
        FusionStrategy.INTERMEDIATE_BOTTLENECK: (
            "cca58f4bd7551e3a9c1fa62f6f2c1372624eb9ade5f27a64d85f3921fa42f6e3", "76b693531b4a3626"),
        FusionStrategy.INTERMEDIATE_DECODER: (
            "0427bfebbde1375222facaac47d83dbe313133ae63dd1039862f16297a1a6808", "0d343565354c4340"),
        FusionStrategy.MULTILAYER: (
            "ec160c4a791a3a405a1bf8924655a1dfa23f4dd52e1ee225a31b523925eae4e9", "055dc66a7a58e9f8"),
    }

    @pytest.mark.parametrize("strategy", list(FusionStrategy), ids=lambda s: s.value)
    def test_init_checkpoint_and_kinds_pinned(self, tmp_path, strategy):
        path = str(tmp_path / "init.mffc")
        save_model(path, init_params(0, strategy, 16))
        with open(path, "rb") as fh:
            checkpoint = hashlib.sha256(fh.read()).hexdigest()
        kinds = " ".join(kind for _, _, kind in parameter_shapes(strategy, 16))
        assert (checkpoint, hashlib.sha256(kinds.encode()).hexdigest()[:16]) == self.PINNED[strategy]

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
            tape.backward(loss)
        missing = [n for n, t in params.named if t.grad is None]
        assert missing == []

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

    # The helpers trust mffcn_forward's entry check for extents; a map
    # without its batch axis is refused by the first op it reaches.
    @pytest.mark.parametrize("helper, op, call", [
        ("encoder_layer_audio", "conv2d", lambda p, x: encoder_layer_audio(x, 10, p.audio_enc[9])),
        ("encoder_layer_video", "conv2d", lambda p, x: encoder_layer_video(x, 10, p.video_enc[9])),
        ("align_to_audio", "maxpool2d", lambda p, x: align_to_audio(x, 1)),
        ("bottleneck", "spectral_attention",
         lambda p, x: bottleneck(x, p.bottleneck_attn, p.bottleneck_lstm)),
        ("decoder_layer", "conv_transpose2d",
         lambda p, x: decoder_layer(x, 10, p.decoder[0], None, None)),
    ])
    def test_layer_helpers_name_a_missing_batch_axis(self, helper, op, call):
        params = init_params(0, FusionStrategy.LATE, 16)
        unbatched = Tensor(np.zeros((64, 5, 1), dtype=np.float32))
        with pytest.raises(ShapeError, match=rf"^{op}: expected a \[B,C,H,W\] input, got \(64, 5, 1\)$"):
            call(params, unbatched)

    def test_align_pools_only_layer_one(self):
        feat = Tensor(np.arange(4 * 40 * 20, dtype=np.float32).reshape(1, 4, 40, 20))
        aligned = align_to_audio(feat, 1)
        assert aligned.dims == (1, 4, 40, 10)
        feat2 = Tensor(np.zeros((1, 8, 20, 5), dtype=np.float32))
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

    def test_single_segment_runs_as_a_batch_of_one(self, monkeypatch):
        """A [C,H,W] segment gives the batch-of-one output bit for bit, in one
        mffcn_forward call: callers that wrap the name count each forward once."""
        params = init_params(3, FusionStrategy.MULTILAYER, 16)
        y, v = _small_inputs(3, batch=1)
        calls = []
        forward = mffcn_forward

        def counting_forward(y, v, p, mode="train"):
            calls.append(y.dims)
            return forward(y, v, p, mode=mode)

        monkeypatch.setattr("mffcn.model.mffcn_forward", counting_forward)
        from mffcn import model
        with no_grad():
            batch = model.mffcn_forward(y, v, params, mode="eval")
            single = model.mffcn_forward(Tensor(y.data[0]), Tensor(v.data[0]), params, mode="eval")
        assert single.dims == (1, 80, 20)
        assert single.data.tobytes() == batch.data[0].tobytes()
        assert calls == [(1, 1, 80, 20), (1, 80, 20)]

    def test_train_mode_updates_running_stats(self):
        params = init_params(5, FusionStrategy.LATE, 16)
        y, v = _small_inputs(5, batch=2)
        before = params.audio_enc[0].norm.state.mean.copy()
        mffcn_forward(y, v, params, mode="train")
        assert not np.array_equal(params.audio_enc[0].norm.state.mean, before)


class TestForwardMemo:
    def test_needs_eval_mode_and_no_recording_tape(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        y, v = _small_inputs(batch=1)
        with pytest.raises(ModelError, match="eval mode"):
            mffcn_forward(y, v, params, mode="train", memo=ForwardMemo())
        with Tape(), pytest.raises(ModelError, match="tape"):
            mffcn_forward(y, v, params, mode="eval", memo=ForwardMemo())

    def test_runs_under_no_grad_inside_a_tape(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        y, v = _small_inputs(batch=1)
        want = mffcn_forward(y, v, params, mode="eval").data
        with Tape() as tape, no_grad():
            got = mffcn_forward(y, v, params, mode="eval", memo=ForwardMemo())
        assert len(tape) == 0
        assert np.array_equal(got.data, want)

    def test_refuses_a_memo_filled_over_another_model(self):
        y, v = _small_inputs(batch=1)
        memo = ForwardMemo()
        mffcn_forward(y, v, init_params(0, FusionStrategy.LATE, 16), mode="eval", memo=memo)
        with pytest.raises(ModelError, match="another model"):
            mffcn_forward(y, v, init_params(0, FusionStrategy.LATE, 16), mode="eval", memo=memo)

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    def test_each_node_perturbed_reruns_to_the_whole_forward(self, strategy):
        """Shift the first tensor of every node in turn: the memo's forward
        equals a forward without memo bit for bit, and leaves the memo as filled."""
        params = init_params(0, strategy, 16, dtype=np.float64)
        y, v = _small_inputs(batch=2)
        memo = ForwardMemo()
        base = mffcn_forward(y, v, params, mode="eval", memo=memo)
        filled = dict(memo.nodes)
        owners = {}
        for name, t in params.named:
            memo.perturb(name)
            owners.setdefault(memo.owner, (name, t))
        assert set(owners) <= set(filled)
        for name, t in owners.values():
            memo.perturb(name)
            saved = t.data.copy()
            t.data += 0.25
            try:
                got = mffcn_forward(y, v, params, mode="eval", memo=memo).data
                want = mffcn_forward(y, v, params, mode="eval").data
            finally:
                t.data[...] = saved
            assert got.tobytes() == want.tobytes() != base.data.tobytes(), name
            assert memo.nodes == filled
        again = mffcn_forward(y, v, params, mode="eval", memo=memo)
        assert again.data.tobytes() == base.data.tobytes()


def _wiring_fingerprint(strategy):
    """(eval-output norm, eval output projected on a seeded vector, train-mode
    loss-gradient norm) of a float64 d=16 model: numbers a mis-wired forward
    cannot reproduce."""
    params = init_params(0, strategy, 16, dtype=np.float64)
    rng = np.random.default_rng(2024)
    y = rng.normal(scale=0.5, size=(2, 1, 80, 20))
    v = rng.uniform(size=(2, 5, 80, 80))
    target = rng.normal(scale=0.5, size=(2, 1, 80, 20))
    probe = rng.standard_normal((2, 1, 80, 20))
    with no_grad():
        out = mffcn_forward(Tensor(y), Tensor(v), params, mode="eval").data
    with Tape() as tape:
        diff = mffcn_forward(Tensor(y), Tensor(v), params, mode="train") - Tensor(target)
        tape.backward((diff * diff).mean())
    grad_norm = math.sqrt(sum(float(np.sum(t.grad ** 2)) for _, t in params.named))
    return float(np.linalg.norm(out)), float(np.sum(out * probe)), grad_norm


# Recorded from an independently written forward with one branch per wiring.
WIRING_FINGERPRINTS = {
    FusionStrategy.EARLY: (0.049280043686284566, 0.03030233392910839, 3.177986571268938),
    FusionStrategy.LATE: (0.11070134567030127, 0.02398916998761053, 4.302749396603561),
    FusionStrategy.INTERMEDIATE_BOTTLENECK: (0.09707799456077164, 0.03215941526450011, 4.167171968361466),
    FusionStrategy.INTERMEDIATE_DECODER: (11.566316573109342, 2.9887727852846697, 0.3725238965556403),
    FusionStrategy.MULTILAYER: (23.98783105347659, -22.61900189377343, 1.910403963697328),
}


@pytest.mark.parametrize("strategy", list(FusionStrategy))
def test_wiring_fingerprint_pinned(strategy):
    np.testing.assert_allclose(_wiring_fingerprint(strategy),
                               WIRING_FINGERPRINTS[strategy], rtol=1e-9, atol=0)


def _rand_fusion_params(rng, c, equal_heads=False):
    def conv(c_out, c_in):
        return ConvParams(
            weight=Tensor(rng.normal(scale=0.3, size=(c_out, c_in, 1, 1)).astype(np.float32)),
            bias=Tensor(rng.normal(scale=0.1, size=(c_out,)).astype(np.float32)))

    def dense(c_out, c_in):
        return ConvParams(
            weight=Tensor(rng.normal(scale=0.3, size=(c_out, c_in)).astype(np.float32)),
            bias=Tensor(rng.normal(scale=0.1, size=(c_out,)).astype(np.float32)))

    fc_v = dense(c, c)
    fc_a = dense(c, c) if not equal_heads else ConvParams(
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
        v = Tensor(rng.normal(size=(1, c, h, w)).astype(np.float32))
        a = Tensor(rng.normal(size=(1, c, h, w)).astype(np.float32))
        fused, wv, wa = channel_attention(v, a, p, return_weights=True)

        cat = np.concatenate([v.data[0], a.data[0]], axis=0).astype(np.float64)
        merged = np.einsum("dsuv,shw->dhw", p.concat_reduce.weight.data.astype(np.float64),
                           cat) + p.concat_reduce.bias.data[:, None, None]
        desc = merged.mean(axis=(1, 2))
        sv = p.fc_v.weight.data.astype(np.float64) @ desc + p.fc_v.bias.data
        sa = p.fc_a.weight.data.astype(np.float64) @ desc + p.fc_a.bias.data
        ev, ea = np.exp(sv), np.exp(sa)
        exp_wv = ev / (ev + ea)
        exp_wa = ea / (ev + ea)
        scaled = np.concatenate([v.data[0] * exp_wv[:, None, None],
                                 a.data[0] * exp_wa[:, None, None]], axis=0)
        expected = np.einsum("dsuv,shw->dhw", p.post_weight.weight.data.astype(np.float64),
                             scaled) + p.post_weight.bias.data[:, None, None]

        assert np.allclose(wv.data, exp_wv[None], atol=1e-5)
        assert np.allclose(wa.data, exp_wa[None], atol=1e-5)
        assert np.allclose(fused.data, expected[None], atol=1e-4)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(12)
        for c in (2, 5):
            p = _rand_fusion_params(rng, c)
            v = Tensor(rng.normal(size=(1, c, 3, 3)).astype(np.float32))
            a = Tensor(rng.normal(size=(1, c, 3, 3)).astype(np.float32))
            _, wv, wa = channel_attention(v, a, p, return_weights=True)
            assert np.all(wv.data > 0) and np.all(wa.data > 0)
            assert np.allclose(wv.data + wa.data, 1.0, atol=1e-6)

    def test_equal_heads_split_evenly(self):
        rng = np.random.default_rng(13)
        p = _rand_fusion_params(rng, 4, equal_heads=True)
        v = Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float32))
        a = Tensor(rng.normal(size=(1, 4, 2, 2)).astype(np.float32))
        _, wv, wa = channel_attention(v, a, p, return_weights=True)
        assert np.allclose(wv.data, 0.5)
        assert np.allclose(wa.data, 0.5)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        p = _rand_fusion_params(rng, 2)
        v = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
        a = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
        with pytest.raises(Exception):
            channel_attention(v, a, p)

    @pytest.mark.parametrize("shape", [(2, 4), (2, 4, 3, 3), (3, 4, 1, 1), (2, 6, 1, 1)])
    def test_reduce_weight_must_be_a_1x1_2c_to_c_conv(self, shape):
        rng = np.random.default_rng(18)
        p = _rand_fusion_params(rng, 2)
        p.concat_reduce.weight = Tensor(rng.normal(size=shape).astype(np.float32))
        v, a = (Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32)) for _ in range(2))
        with pytest.raises(ShapeError, match=r"^channel_attention: concat-reduce weights must be "
                                             r"\[2,4,1,1\], got "):
            channel_attention(v, a, p)


class TestSpectralAttention:
    def test_mask_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(15)
        p = _rand_fusion_params(rng, 3).spectral
        x = Tensor(rng.normal(scale=5.0, size=(1, 3, 4, 4)).astype(np.float32))
        gated, mask = spectral_attention(x, p, return_mask=True)
        assert np.all(mask.data > 0.0)
        assert np.all(mask.data < 1.0)
        assert gated.dims == x.dims

    def test_against_plain_numpy(self):
        rng = np.random.default_rng(16)
        p = _rand_fusion_params(rng, 2).spectral
        x = Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32))
        gated = spectral_attention(x, p)
        xd = x.data[0].astype(np.float64)
        hid = np.einsum("dsuv,shw->dhw", p.hidden.weight.data.astype(np.float64), xd) \
            + p.hidden.bias.data[:, None, None]
        hid = np.maximum(hid, 0.0)
        mask = _sigmoid(np.einsum("dsuv,shw->dhw", p.mask.weight.data.astype(np.float64), hid)
                        + p.mask.bias.data[:, None, None])
        assert np.allclose(gated.data, (xd * mask)[None], atol=1e-5)

    def test_fusion_block_composes(self):
        rng = np.random.default_rng(17)
        p = _rand_fusion_params(rng, 3)
        v = Tensor(rng.normal(size=(1, 3, 2, 2)).astype(np.float32))
        a = Tensor(rng.normal(size=(1, 3, 2, 2)).astype(np.float32))
        out = fusion_block(v, a, p)
        ca = channel_attention(v, a, p)
        expected = spectral_attention(ca, p.spectral)
        assert np.array_equal(out.data, expected.data)


@pytest.mark.parametrize("op, weight", [
    ("channel_attention", "post_weight"),
    ("spectral_attention", "hidden"),
    ("spectral_attention", "mask"),
])
def test_attention_refuses_a_spatial_kernel_in_a_pointwise_weight(op, weight):
    # a 3x3 kernel with matching channels would otherwise run as a 3x3 convolution
    rng = np.random.default_rng(19)
    p = _rand_fusion_params(rng, 2)
    params = p if weight == "post_weight" else p.spectral
    conv = getattr(params, weight)
    conv.weight = Tensor(rng.normal(size=conv.weight.dims[:2] + (3, 3)).astype(np.float32))
    v, a = (Tensor(rng.normal(size=(1, 2, 3, 3)).astype(np.float32)) for _ in range(2))
    with pytest.raises(ShapeError, match=rf"^{op}: pointwise weights must be \[C_out,C_in,1,1\], got "
                                         rf"\({conv.weight.dims[0]}, {conv.weight.dims[1]}, 3, 3\)$"):
        channel_attention(v, a, params) if op == "channel_attention" else spectral_attention(v, params)


def _tracked_fusion_params(rng, c):
    p = _rand_fusion_params(rng, c)
    for t in _fusion_tensors(p):
        t.requires_grad = True
    return p


def _fusion_tensors(p):
    pairs = (p.concat_reduce, p.fc_v, p.fc_a, p.post_weight, p.spectral.hidden, p.spectral.mask)
    return [t for pair in pairs for t in (pair.weight, pair.bias)]


def _value_and_grads(fn, leaves, direction, reuse):
    """Output and the gradients of <output, direction> + <leaves[0], reuse> w.r.t. every leaf.

    The second term gives leaves[0] a gradient from outside the op first, so
    the order in which the op adds its contributions shows in the bits.
    """
    for t in leaves:
        t.zero_grad()
    with Tape() as tape:
        out = fn()
        loss = composed.add((out * Tensor(direction)).sum(), (leaves[0] * Tensor(reuse)).sum())
        tape.backward(loss)
    return [out.data] + [t.grad for t in leaves]


class TestFusedAttentionMatchesComposed:
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("c,h,w", [(3, 5, 4), (8, 5, 1)])
    def test_channel_attention_bitwise(self, batch, c, h, w):
        rng = np.random.default_rng(100 * batch + c)
        p = _tracked_fusion_params(rng, c)
        v, a = (Tensor(rng.normal(size=(batch, c, h, w)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        direction, reuse = (rng.normal(size=(batch, c, h, w)).astype(np.float32) for _ in range(2))
        leaves = [v, a] + _fusion_tensors(p)[:8]
        fused = _value_and_grads(lambda: channel_attention(v, a, p), leaves, direction, reuse)
        reference = _value_and_grads(lambda: composed.channel_attention(v, a, p), leaves,
                                     direction, reuse)
        for got, want in zip(fused, reference):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("c,h,w", [(3, 5, 4), (8, 5, 1)])
    def test_spectral_attention_bitwise(self, batch, c, h, w):
        rng = np.random.default_rng(200 * batch + c)
        p = _tracked_fusion_params(rng, c).spectral
        x = Tensor(rng.normal(size=(batch, c, h, w)).astype(np.float32), requires_grad=True)
        direction, reuse = (rng.normal(size=(batch, c, h, w)).astype(np.float32) for _ in range(2))
        leaves = [x, p.hidden.weight, p.hidden.bias, p.mask.weight, p.mask.bias]
        fused = _value_and_grads(lambda: spectral_attention(x, p), leaves, direction, reuse)
        reference = _value_and_grads(lambda: composed.spectral_attention(x, p), leaves,
                                     direction, reuse)
        for got, want in zip(fused, reference):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", ["channel", "spectral"])
    def test_constant_maps_give_the_reference_parameter_gradients(self, block):
        rng = np.random.default_rng(250)
        p = _tracked_fusion_params(rng, 3)
        v, a = (Tensor(rng.normal(size=(2, 3, 4, 2)).astype(np.float32)) for _ in range(2))
        direction = rng.normal(size=(2, 3, 4, 2)).astype(np.float32)
        fused, reference = ((channel_attention, composed.channel_attention) if block == "channel"
                            else (lambda v, a, p: spectral_attention(a, p.spectral),
                                  lambda v, a, p: composed.spectral_attention(a, p.spectral)))
        grads = []
        for fn in (fused, reference):
            for t in _fusion_tensors(p):
                t.zero_grad()
            with Tape() as tape:
                tape.backward((fn(v, a, p) * Tensor(direction)).sum())
            grads.append([None if t.grad is None else t.grad.tobytes() for t in _fusion_tensors(p)])
        assert grads[0] == grads[1]
        assert v.grad is None and a.grad is None

    @pytest.mark.parametrize("batch", [1, 4])
    def test_returned_weights_and_mask_equal_the_reference(self, batch):
        rng = np.random.default_rng(300 + batch)
        p = _rand_fusion_params(rng, 5)
        v, a = (Tensor(rng.normal(scale=2.0, size=(batch, 5, 3, 2)).astype(np.float32))
                for _ in range(2))
        fused = channel_attention(v, a, p, return_weights=True)
        reference = composed.channel_attention(v, a, p, return_weights=True)
        assert [t.data.tobytes() for t in fused] == [t.data.tobytes() for t in reference]
        assert np.allclose(fused[1].data + fused[2].data, 1.0, atol=1e-6)
        gated = spectral_attention(fused[0], p.spectral, return_mask=True)
        reference = composed.spectral_attention(fused[0], p.spectral, return_mask=True)
        assert [t.data.tobytes() for t in gated] == [t.data.tobytes() for t in reference]

    def test_one_record_each(self):
        rng = np.random.default_rng(400)
        p = _tracked_fusion_params(rng, 3)
        v, a = (Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32)) for _ in range(2))
        with Tape() as tape:
            fusion_block(v, a, p)
        assert len(tape) == 2

    @pytest.mark.parametrize("plant", ["score", "hidden", "mask"])
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "composed"])
    def test_planted_inf_raises(self, plant, fused):
        # Each Inf reaches one pre-activation. relu turns the -Inf into 0 and
        # the sigmoid turns the +Inf into a finite weight, so only a scan of
        # the pre-activation itself can see them.
        rng = np.random.default_rng(500)
        p = _rand_fusion_params(rng, 3)
        bias = {"score": p.fc_v.bias, "hidden": p.spectral.hidden.bias,
                "mask": p.spectral.mask.bias}[plant]
        bias.data[1] = -np.inf if plant == "hidden" else np.inf
        v, a = (Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32)) for _ in range(2))
        ca, sa = ((channel_attention, spectral_attention) if fused else
                  (composed.channel_attention, composed.spectral_attention))
        with pytest.raises(NonFiniteError):
            sa(ca(v, a, p), p.spectral)


@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_model_gradients_match_the_composed_ops_bitwise(monkeypatch, batch, mode):
    """A multilayer d=16 forward and backward, with the fused ops and with the
    compositions they replaced: the output, every parameter gradient and the
    running statistics agree bit for bit."""
    y, v = _small_inputs(seed=batch, batch=batch)
    direction = np.random.default_rng(batch).normal(size=y.dims).astype(np.float32)

    def run():
        params = init_params(0, FusionStrategy.MULTILAYER, 16)
        with Tape() as tape:
            out = mffcn_forward(y, v, params, mode=mode)
            records = len(tape)
            tape.backward((out * Tensor(direction)).sum())
        return records, ([out.data] + [t.grad for _, t in params.named]
                         + [s for _, st in params.named_states for s in (st.mean, st.var)])

    fused_records, fused = run()
    monkeypatch.setattr(model_module, "norm_leaky", composed.norm_leaky)
    monkeypatch.setattr(model_module, "spectral_attention", composed.spectral_attention)
    monkeypatch.setattr(model_module, "fusion_block", composed.fusion_block)
    reference_records, reference = run()
    assert (fused_records, reference_records) == (111, 294)
    assert len(fused) == len(reference)
    assert all(got.tobytes() == want.tobytes() for got, want in zip(fused, reference))


class TestBottleneck:
    def test_zeroed_lstm_maps_to_zero(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        for layer in params.bottleneck_lstm:
            for _, gate in layer.gates():
                gate.wx.data[...] = 0.0
                gate.wh.data[...] = 0.0
                gate.bias.data[...] = 0.0
        x = Tensor(np.random.default_rng(0).normal(size=(1, 64, 5, 1)).astype(np.float32))
        out = bottleneck(x, params.bottleneck_attn, params.bottleneck_lstm)
        assert out.dims == (1, 64, 5, 1)
        assert np.allclose(out.data, 0.0)

    def test_shape_guard(self):
        params = init_params(0, FusionStrategy.LATE, 16)
        thin = Tensor(np.zeros((1, 32, 5, 1), dtype=np.float32))
        with pytest.raises(ShapeError, match="^spectral_attention: input channel axis is 32, weights expect 64$"):
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
            blocks += [layer.fusion for layer in params.decoder if layer.fusion is not None]
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

    def test_each_loaded_array_is_scanned_once(self, tmp_path, monkeypatch):
        # the Tensor constructor's scan is the one scan of a parameter, and the
        # running statistics are scanned by load_model; the reader scans none
        params = init_params(0, FusionStrategy.LATE, 16)
        path = str(tmp_path / "model.mffc")
        save_model(path, params)
        scanned = []
        isfinite = np.isfinite

        def counting(a, *args, **kwargs):
            scanned.append(np.shape(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        load_model(path)
        monkeypatch.undo()
        want = [t.dims for _, t in params.named]
        want += [s.mean.shape for _, s in params.named_states for _ in range(2)]
        assert sorted(scanned) == sorted(want)

    def test_load_peaks_near_the_file_size(self, tmp_path):
        # records stream straight into their arrays, so the file's bytes are
        # never held next to the arrays decoded from them
        import os
        import tracemalloc

        path = str(tmp_path / "model.mffc")
        save_model(path, init_params(0, FusionStrategy.MULTILAYER, 4))
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * os.path.getsize(path)


class TestCheckpointMetadata:
    """Metadata entries of a saved d=16 checkpoint, rewritten with save_checkpoint."""

    @pytest.fixture(scope="class")
    def entries(self, tmp_path_factory):
        from mffcn.formats import load_checkpoint
        path = str(tmp_path_factory.mktemp("meta") / "model.mffc")
        save_model(path, init_params(0, FusionStrategy.LATE, 16))
        return load_checkpoint(path)

    def _rewrite(self, tmp_path, entries, key, value):
        from mffcn.formats import save_checkpoint
        changed = dict(entries)
        if value is None:
            del changed[key]
        else:
            changed[key] = np.array(value, dtype=np.float32)
        path = str(tmp_path / "meta.mffc")
        save_checkpoint(path, changed)
        return path

    @pytest.mark.parametrize("key, value", [
        ("meta.width_divisor", [16.7]),
        ("meta.width_divisor", [38.0]),
        ("meta.width_divisor", [0.0]),
        ("meta.width_divisor", [16.0, 16.0]),
        ("meta.strategy", [1.9]),
        ("meta.strategy", [-1.0]),
        ("meta.strategy", [5.0]),
    ])
    def test_bad_value_rejected_naming_path_and_entry(self, tmp_path, entries, key, value):
        path = self._rewrite(tmp_path, entries, key, value)
        with pytest.raises(FormatError, match=rf"meta\.mffc: {key} must be one of"):
            load_model(path)

    @pytest.mark.parametrize("key", ["meta.width_divisor", "meta.strategy"])
    def test_missing_entry_rejected(self, tmp_path, entries, key):
        with pytest.raises(FormatError, match=rf"meta\.mffc: checkpoint lacks the '{key}'"):
            load_model(self._rewrite(tmp_path, entries, key, None))

    def test_whole_values_load(self, tmp_path, entries):
        path = self._rewrite(tmp_path, entries, "meta.strategy", [1.0])
        loaded = load_model(path)
        assert loaded.strategy is FusionStrategy.LATE and loaded.width_divisor == 16


class TestEnhanceSegment:
    def test_types(self):
        params = init_params(0, FusionStrategy.EARLY, 16)
        rng = np.random.default_rng(0)
        seg = MelSegment(rng.normal(size=(80, 20)).astype(np.float32))
        vid = VideoSegment(rng.uniform(size=(5, 80, 80)).astype(np.float32))
        out = enhance_segments([seg], [vid], params)[0]
        assert isinstance(out, MelSegment)
        assert out.values.shape == (80, 20)
        assert out.values.dtype == np.float32


def _segments(n, seed=0):
    rng = np.random.default_rng(seed)
    noisy = [MelSegment(rng.normal(size=(80, 20)).astype(np.float32)) for _ in range(n)]
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

        def counting_forward(y, v, p, mode="train"):
            batches.append(y.dims[0])
            return forward(y, v, p, mode=mode)

        monkeypatch.setattr("mffcn.model.mffcn_forward", counting_forward)
        batched = enhance_segments(noisy, videos, params)
        assert batches == [min(INFER_CHUNK, n - lo) for lo in range(0, n, INFER_CHUNK)]
        single = [enhance_segments([s], [v], params)[0] for s, v in zip(noisy, videos)]
        assert len(batched) == n
        for got, want in zip(batched, single):
            assert got.values.dtype == np.float32
            scale = np.abs(want.values).max()
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-5 * scale)

    def test_one_segment_matches_unbatched_forward(self, params):
        (seg,), (vid,) = _segments(1)
        with no_grad():
            want = mffcn_forward(Tensor(seg.values[None]), Tensor(vid.frames), params, mode="eval").data[0]
        got = enhance_segments([seg], [vid], params)[0].values
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5 * np.abs(want).max())

    def test_mismatched_lengths_rejected(self, params):
        noisy, videos = _segments(3)
        with pytest.raises(ModelError, match="3 audio segments but 2 video"):
            enhance_segments(noisy, videos[:2], params)

    def test_empty_input_rejected(self, params):
        with pytest.raises(ModelError, match="no segments"):
            enhance_segments([], [], params)
