"""Optimizer, loss, synthetic data, and training-loop tests."""

import csv
import dataclasses
import inspect
import sys

import numpy as np
import pytest

from mffcn import train as train_module
from mffcn.dsp import SegmentTriple, mix_at_snr
from mffcn.formats import FormatError, load_checkpoint, save_mten
from mffcn.gradcheck import check_gradients
from mffcn.model import FusionStrategy, init_params, mffcn_forward, save_model
from mffcn.tensor import NonFiniteError, Tape, Tensor, TensorError, _accumulate
from mffcn.train import (
    AdamState,
    TrainConfig,
    TrainError,
    adam_step,
    load_dataset,
    mse_loss,
    save_dataset,
    synth_dataset,
    train,
)

import composed


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0002
        assert cfg.batch_size == 8

    def test_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(Exception):
            TrainConfig(width_divisor=7)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(TrainError, match="finite"):
            TrainConfig(**kwargs)


class TestMseLoss:
    def test_identical_is_zero(self):
        x = Tensor(np.arange(6.0, dtype=np.float32).reshape(2, 3))
        assert mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_offset_by_one(self):
        x = Tensor(np.zeros((4, 5), dtype=np.float32))
        y = Tensor(np.ones((4, 5), dtype=np.float32))
        assert mse_loss(x, y).item() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(TrainError):
            mse_loss(Tensor(np.zeros((2, 2), dtype=np.float32)),
                     Tensor(np.zeros((2, 3), dtype=np.float32)))

    def test_gradient_is_two_diff_over_n(self):
        rng = np.random.default_rng(0)
        pred = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        target = Tensor(rng.normal(size=(3, 4)))
        with Tape() as tape:
            tape.backward(mse_loss(pred, target))
        expected = 2.0 * (pred.data - target.data) / pred.data.size
        assert np.allclose(pred.grad, expected, atol=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        target = Tensor(rng.normal(size=(2, 3)))

        def fn(args):
            return mse_loss(args[0], target)

        worst = check_gradients(fn, [Tensor(rng.normal(size=(2, 3)))])
        assert worst < 1e-4


def _toy_params(seed=0):
    rng = np.random.default_rng(seed)
    return [("a", Tensor(rng.normal(size=(3, 2)).astype(np.float32), requires_grad=True)),
            ("b", Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True))]


def _feed(p, g):
    """Hand p the gradient g as a backward pass does: into its slot of the flat layout."""
    p.zero_grad()
    _accumulate(p, g)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        named = _toy_params()
        before = [p.data.copy() for _, p in named]
        state = AdamState.initial(named)
        for _, p in named:
            _feed(p, np.zeros_like(p.data))
        adam_step(named, state, lr=0.1)
        for (_, p), b in zip(named, before):
            assert np.array_equal(p.data, b)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        named = _toy_params(1)
        state = AdamState.initial(named)
        grads = []
        for _, p in named:
            g = np.random.default_rng(2).normal(size=p.dims).astype(np.float32)
            g[np.abs(g) < 0.1] = 0.5  # keep |g| clear of the eps floor
            _feed(p, g)
            grads.append(g)
        before = [p.data.copy() for _, p in named]
        adam_step(named, state, lr=0.01)
        for (_, p), b, g in zip(named, before, grads):
            assert np.allclose(p.data, b - 0.01 * np.sign(g), atol=1e-5)

    def test_missing_gradient_raises(self):
        named = _toy_params()
        state = AdamState.initial(named)
        _feed(named[0][1], np.zeros_like(named[0][1].data))
        with pytest.raises(TrainError, match="'b' has no gradient"):
            adam_step(named, state, lr=0.1)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            named = _toy_params(3)
            state = AdamState.initial(named)
            rng = np.random.default_rng(4)
            for _ in range(5):
                for _, p in named:
                    _feed(p, rng.normal(size=p.dims).astype(np.float32))
                adam_step(named, state, lr=0.003)
            runs.append([p.data.copy() for _, p in named])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


def _reference_adam_step(named, moments, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor Adam loop that the flat, blocked adam_step replaced."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    for name, (data, grad) in named.items():
        g = np.asarray(grad, dtype=data.dtype)
        m, v = moments[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        data -= (lr * update).astype(data.dtype)


def _edge_gradient(rng, shape, dtype):
    """Normal draws with zeros, signed zeros, denormals and +-1e30 spread through."""
    g = rng.normal(size=shape).astype(dtype)
    flat = g.reshape(-1)
    tiny = np.finfo(dtype).smallest_subnormal
    for k, value in enumerate((0.0, -0.0, tiny, -tiny, 1e30, -1e30)):
        flat[k::7] = value
    return g


class TestFlatAdam:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [None, 5])
    def test_bitwise_equal_to_per_tensor_loop(self, monkeypatch, dtype, block):
        if block is not None:  # blocks that straddle tensors and end part-full
            monkeypatch.setattr(train_module, "ADAM_BLOCK", block)
        rng = np.random.default_rng(41)
        shapes = [(3, 2), (4,), (5, 7, 3), (300, 250)]  # 75,000 elements: two default blocks
        named = [(f"p{k}", Tensor(rng.normal(size=s).astype(dtype), requires_grad=True))
                 for k, s in enumerate(shapes)]
        ref = {name: [p.data.copy(), None] for name, p in named}
        moments = {name: (np.zeros_like(p.data), np.zeros_like(p.data)) for name, p in named}
        state = AdamState.initial(named)
        with np.errstate(over="ignore"):  # float32 (1e30)^2 overflows v to inf on both paths
            for step in range(1, 6):
                for name, p in named:
                    _feed(p, _edge_gradient(rng, p.dims, dtype))
                    ref[name][1] = p.grad.copy()
                adam_step(named, state, lr=0.003)
                _reference_adam_step(ref, moments, step, lr=0.003)
                for name, p in named:
                    assert p.data.tobytes() == ref[name][0].tobytes(), (step, name)
        assert state.step == 5
        m_ref = np.concatenate([moments[name][0].reshape(-1) for name, _ in named])
        v_ref = np.concatenate([moments[name][1].reshape(-1) for name, _ in named])
        assert state.m.tobytes() == m_ref.tobytes()
        assert state.v.tobytes() == v_ref.tobytes()

    def test_parameters_become_views_of_one_buffer(self):
        named = _toy_params()
        before = [p.data.copy() for _, p in named]
        state = AdamState.initial(named)
        flat = state.flat
        start = 0
        for (_, p), b in zip(named, before):
            assert p.data.base is flat.data
            assert np.array_equal(p.data, b)
            p.data[...] += 1.0  # writes land in the flat buffer at this tensor's span
            assert np.array_equal(flat.data[start:start + p.size], b.reshape(-1) + 1.0)
            start += p.size
        assert start == flat.data.size
        assert state.m.shape == state.v.shape == flat.data.shape

    def test_layout_is_reused_for_the_same_tensors(self):
        named = _toy_params()
        first = AdamState.initial(named).flat
        assert AdamState.initial(named).flat is first
        assert AdamState.initial(named[::-1]).flat is not first

    @pytest.mark.parametrize("outside", ["data", "grad"])
    def test_parameter_outside_the_layout_rejected(self, outside):
        named = _toy_params(5)
        state = AdamState.initial(named)
        for _, p in named:
            _feed(p, np.ones_like(p.data))
        b = named[1][1]
        before = state.flat.data.copy()
        if outside == "data":
            b.data = np.full_like(b.data, 2.0)
        else:
            b.grad = np.ones_like(b.data)
        with pytest.raises(TrainError, match="'b' or its gradient is not in the Adam state's layout"):
            adam_step(named, state, lr=0.1)
        assert state.step == 0 and state.flat.data.tobytes() == before.tobytes()
        # a fresh layout starts from the rebound values
        if outside == "data":
            again = AdamState.initial(named)
            assert again.flat is not state.flat and b.data.base is again.flat.data
            assert np.array_equal(b.data, np.full(b.dims, 2.0, dtype=np.float32))

    def test_mixed_dtypes_rejected(self):
        named = [("a", Tensor(np.ones(2, dtype=np.float32), requires_grad=True)),
                 ("b", Tensor(np.ones(2, dtype=np.float64), requires_grad=True))]
        with pytest.raises(TensorError, match="one dtype"):
            AdamState.initial(named)

    def test_tape_gradients_land_in_the_flat_buffer(self):
        named = _toy_params()
        state = AdamState.initial(named)
        a, b = named[0][1], named[1][1]
        with Tape() as tape:
            tape.backward(composed.add(composed.add((a * a).sum(), b.sum()), b.sum()))
        assert a.grad is state.flat.slots[0] and b.grad is state.flat.slots[1]
        assert np.array_equal(a.grad, 2.0 * a.data)
        assert np.array_equal(b.grad, np.full(b.dims, 2.0, dtype=np.float32))
        a.zero_grad()
        assert a.grad is None  # no gradient until the next backward touches it

    def test_train_reuses_the_layout_across_calls(self):
        cfg = TrainConfig(steps=1, seed=0, width_divisor=16, batch_size=1,
                          strategy=FusionStrategy.LATE)
        data = synth_dataset(0, 1)
        params = init_params(0, FusionStrategy.LATE, 16)
        first = train(cfg, data, params=params).adam.flat
        assert train(cfg, data, params=params).adam.flat is first
        for (_, p), view in zip(params.named, first.views):
            assert p.data is view and p.grad is None


@pytest.fixture()
def mix_snrs(monkeypatch):
    """The SNR of each synth_dataset mixture, in call order."""
    snrs = []

    def spy(clean, noise, snr_db):
        snrs.append(snr_db)
        return mix_at_snr(clean, noise, snr_db)

    monkeypatch.setattr(train_module, "mix_at_snr", spy)
    return snrs


class TestSynthDataset:
    def test_default_snr_range(self):
        assert inspect.signature(synth_dataset).parameters["snr_range_db"].default == (-10.0, 10.0)

    def test_rejects_unordered_snr_range(self):
        with pytest.raises(TrainError, match="ordered"):
            synth_dataset(0, 1, snr_range_db=(5.0, -5.0))

    @pytest.mark.parametrize("snr_range_db", [(float("nan"), 10.0), (-10.0, float("inf"))])
    def test_rejects_non_finite_snr_range(self, snr_range_db):
        with pytest.raises(TrainError, match="finite"):
            synth_dataset(0, 1, snr_range_db=snr_range_db)

    def test_deterministic(self, mix_snrs):
        a = synth_dataset(5, 6)
        snrs_a = list(mix_snrs)
        b = synth_dataset(5, 6)
        assert mix_snrs == snrs_a * 2
        for x, y in zip(a, b):
            assert np.array_equal(x.noisy.values, y.noisy.values)
            assert np.array_equal(x.video.frames, y.video.frames)
            assert np.array_equal(x.clean.values, y.clean.values)

    def test_item_count_and_fields(self):
        items = synth_dataset(0, 6)
        assert len(items) == 6
        # load_dataset builds triples positionally, in this order
        assert [f.name for f in dataclasses.fields(SegmentTriple)] == ["noisy", "video", "clean"]
        assert items[0].noisy.values.shape == (80, 20)
        assert items[0].video.frames.shape == (5, 80, 80)
        assert items[0].clean.values.shape == (80, 20)

    def test_snr_draws_center_on_midpoint(self, mix_snrs):
        synth_dataset(0, 1000)
        assert len(mix_snrs) == 250  # four items per one-second clip
        assert abs(np.mean(mix_snrs) - 0.0) < 0.5

    def test_mouth_follows_audio_energy(self):
        # per clip: total ellipse brightness vs clean Mel energy per video frame
        for seed in (0, 1, 2):
            items = synth_dataset(seed, 4)
            areas, energies = [], []
            for item in items:
                mel_power = np.exp(item.clean.values)
                for t in range(5):
                    areas.append(float(item.video.frames[t].sum()))
                    energies.append(float(mel_power[:, 4 * t:4 * (t + 1)].sum()))
            corr = np.corrcoef(areas, energies)[0, 1]
            assert corr > 0.5, f"seed {seed}: correlation {corr:.3f}"

    def test_roundtrip_through_directory(self, tmp_path):
        items = synth_dataset(1, 5)
        save_dataset(str(tmp_path / "ds"), items)
        loaded = load_dataset(str(tmp_path / "ds"))
        assert len(loaded) == 5
        for a, b in zip(items, loaded):
            assert np.array_equal(a.noisy.values, b.noisy.values)
            assert np.array_equal(a.video.frames, b.video.frames)
            assert np.array_equal(a.clean.values, b.clean.values)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(TrainError, match="no dataset items"):
            load_dataset(str(tmp_path))

    @pytest.mark.parametrize("defect, message", [
        ("missing", r"00003\.clean\.mten: item 3: No such file or directory$"),
        ("gap", r"00001\.noisy\.mten: item 1: No such file or directory$"),
        ("shape", r"00003\.noisy\.mten: item 3: segment must be 80x20, got \(80, 21\)$"),
        ("range", r"00003\.video\.mten: item 3: video pixel values must lie in \[0, 1\]$"),
    ])
    def test_bad_item_names_its_file_and_index(self, tmp_path, defect, message):
        with pytest.raises(FormatError, match=message):
            load_dataset(plant_dataset_defect(tmp_path / "ds", defect))


def plant_dataset_defect(dirpath, defect):
    """A saved four-item dataset whose item 3 (item 1 for "gap") has one defect; returns its directory."""
    save_dataset(str(dirpath), synth_dataset(1, 4))
    if defect == "missing":
        (dirpath / "00003.clean.mten").unlink()
    elif defect == "gap":  # items 2 and 3 stay complete after the hole
        (dirpath / "00001.noisy.mten").unlink()
    elif defect == "shape":
        save_mten(str(dirpath / "00003.noisy.mten"), np.zeros((80, 21), dtype=np.float32))
    else:
        save_mten(str(dirpath / "00003.video.mten"), np.full((5, 80, 80), 300.0, dtype=np.float32))
    return str(dirpath)


class TestTrainLoop:
    def test_zero_steps_checkpoint_equals_init(self, tmp_path):
        cfg = TrainConfig(steps=0, seed=11, width_divisor=16,
                          strategy=FusionStrategy.LATE, batch_size=2)
        data = synth_dataset(11, 2)
        out = str(tmp_path / "zero.mffc")
        result = train(cfg, data, checkpoint_path=out)
        assert result.loss_history == []
        fresh = init_params(11, FusionStrategy.LATE, 16)
        entries = load_checkpoint(out)
        for name, t in fresh.named:
            assert np.array_equal(entries[name], t.data)

    def test_identical_configs_bit_identical(self, tmp_path):
        cfg = TrainConfig(steps=4, seed=3, width_divisor=16, batch_size=2,
                          strategy=FusionStrategy.EARLY, learning_rate=0.001)
        data = synth_dataset(3, 4)
        paths = [str(tmp_path / f"run{k}.mffc") for k in (0, 1)]
        histories = []
        for p in paths:
            histories.append(train(cfg, data, checkpoint_path=p).loss_history)
        assert histories[0] == histories[1]
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_step_runs_without_einsum(self, monkeypatch):
        """Batch norm's channel dot is a matmul: einsum would re-plan it on every backward."""
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called in a train step")

        monkeypatch.setattr(np, "einsum", refuse)
        cfg = TrainConfig(steps=1, seed=0, batch_size=2, width_divisor=16,
                          strategy=FusionStrategy.MULTILAYER)
        assert np.isfinite(train(cfg, synth_dataset(0, 2)).loss_history).all()

    def test_descends_on_fixed_batch(self):
        # small lr on a single repeated batch: nearly every step improves
        cfg = TrainConfig(steps=50, seed=0, learning_rate=1e-4, batch_size=4,
                          width_divisor=16, strategy=FusionStrategy.LATE)
        data = synth_dataset(0, 4)
        h = train(cfg, data).loss_history
        drops = sum(1 for a, b in zip(h, h[1:]) if b < a)
        assert drops >= int(0.95 * (len(h) - 1)), f"only {drops} descending steps"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_abort_names_step(self):
        cfg = TrainConfig(steps=10, seed=0, learning_rate=1e12, batch_size=2,
                          width_divisor=16, strategy=FusionStrategy.LATE)
        data = synth_dataset(0, 2)
        with pytest.raises(NonFiniteError, match="^step "):
            train(cfg, data)

    @pytest.mark.parametrize("at_step", [1, 2])
    def test_nonfinite_parameter_named_with_step(self, monkeypatch, at_step):
        # a NaN planted before step 1 stops its forward; a NaN gradient fed to
        # the update of step 2 makes the parameter non-finite, which the
        # update's own scan catches
        cfg = TrainConfig(steps=3, seed=0, batch_size=2, width_divisor=16,
                          strategy=FusionStrategy.LATE)
        params = init_params(0, FusionStrategy.LATE, 16)
        name, target = params.named[len(params.named) // 2]
        if at_step == 1:
            target.data.flat[0] = np.nan
        else:
            update = train_module.adam_step

            def planted(named, state, lr):
                if state.step + 1 == at_step:
                    target.grad.flat[0] = np.nan
                return update(named, state, lr)

            monkeypatch.setattr(train_module, "adam_step", planted)
        with pytest.raises(NonFiniteError, match=rf"^step {at_step}: .*parameter {name!r}") as info:
            train(cfg, synth_dataset(0, 2), params=params)
        assert isinstance(info.value.__cause__, NonFiniteError) == (at_step == 1)

    def test_acceptance_step_tapes_114_records(self, monkeypatch):
        # multilayer, d=8, batch 4: 111 forward records plus the loss's 3
        lengths = []
        replay = Tape.backward

        def counted(tape, loss):
            lengths.append(len(tape))
            replay(tape, loss)

        monkeypatch.setattr(Tape, "backward", counted)
        cfg = TrainConfig(steps=1, seed=0, width_divisor=8, batch_size=4,
                          strategy=FusionStrategy.MULTILAYER)
        train(cfg, synth_dataset(0, 4))
        assert lengths == [114]

    @pytest.mark.parametrize("strategy, calls", [
        (FusionStrategy.MULTILAYER, 80),  # 42 pointwise convs, 30 attention heads, 8 LSTM gate projections
        (FusionStrategy.EARLY, 16),
        (FusionStrategy.LATE, 16),
        (FusionStrategy.INTERMEDIATE_BOTTLENECK, 11),
        (FusionStrategy.INTERMEDIATE_DECODER, 70),
    ], ids=lambda v: v.value if isinstance(v, FusionStrategy) else None)
    def test_every_channel_mix_is_one_dense_pair(self, monkeypatch, strategy, calls):
        # pointwise convs, attention heads and LSTM input projections all run through
        # _dense_data forward and _dense_grads backward, whichever module calls them
        counts = {"_dense_data": 0, "_dense_grads": 0}
        for module in [m for name, m in sys.modules.items() if name.startswith("mffcn")]:
            for name in counts:
                if hasattr(module, name):
                    def wrapped(*args, _name=name, _fn=getattr(module, name)):
                        counts[_name] += 1
                        return _fn(*args)

                    monkeypatch.setattr(module, name, wrapped)
        cfg = TrainConfig(steps=1, seed=0, width_divisor=16, batch_size=2, strategy=strategy)
        train(cfg, synth_dataset(0, 2))
        assert counts == {"_dense_data": calls, "_dense_grads": calls}

    def test_empty_data_rejected(self):
        cfg = TrainConfig(steps=1, width_divisor=16)
        with pytest.raises(TrainError, match="empty"):
            train(cfg, [])

    def test_mismatched_params_rejected(self):
        cfg = TrainConfig(steps=1, width_divisor=16, strategy=FusionStrategy.LATE)
        params = init_params(0, FusionStrategy.EARLY, 16)
        with pytest.raises(TrainError, match="config says"):
            train(cfg, synth_dataset(0, 2), params=params)

    def test_mismatched_width_rejected(self):
        cfg = TrainConfig(steps=1, width_divisor=32, strategy=FusionStrategy.LATE)
        params = init_params(0, FusionStrategy.LATE, 16)
        with pytest.raises(TrainError, match="^config says width divisor 32, parameters say 16$"):
            train(cfg, synth_dataset(0, 2), params=params)

    def test_loss_csv_written(self, tmp_path):
        cfg = TrainConfig(steps=3, seed=0, width_divisor=16, batch_size=2,
                          strategy=FusionStrategy.LATE)
        data = synth_dataset(0, 2)
        path = str(tmp_path / "loss.csv")
        result = train(cfg, data, loss_csv_path=path)
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["step", "loss"]
        assert [float(loss) for _, loss in rows] == result.loss_history
