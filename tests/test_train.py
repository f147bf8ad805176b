"""Optimizer, loss, synthetic data, and training-loop tests."""

import numpy as np
import pytest

from mffcn.formats import load_checkpoint
from mffcn.gradcheck import check_gradients
from mffcn.model import FusionStrategy, init_params, mffcn_forward, save_model
from mffcn.tensor import Tape, Tensor
from mffcn.train import (
    AdamState,
    SynthItem,
    TrainConfig,
    TrainError,
    adam_step,
    load_dataset,
    mse_loss,
    save_dataset,
    synth_dataset,
    train,
)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 0.0002
        assert cfg.batch_size == 8
        assert cfg.snr_range_db == (-10.0, 10.0)

    def test_validation(self):
        with pytest.raises(TrainError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainError):
            TrainConfig(batch_size=0)
        with pytest.raises(TrainError):
            TrainConfig(snr_range_db=(5.0, -5.0))
        with pytest.raises(Exception):
            TrainConfig(width_divisor=7)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"snr_range_db": (float("nan"), 10.0)},
        {"snr_range_db": (-10.0, float("inf"))},
    ])
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(TrainError, match="finite"):
            TrainConfig(**kwargs)

    def test_from_file_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("snr_low = nan\n")
        with pytest.raises(TrainError, match="SNR"):
            TrainConfig.from_file(str(path))

    def test_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "steps = 12\n"
            "learning_rate=0.001\n"
            "strategy = early\n"
            "snr_low = -3\n"
            "snr_high = 3  # inline comment\n"
            "width_divisor=16\n")
        cfg = TrainConfig.from_file(str(path))
        assert cfg.steps == 12
        assert cfg.learning_rate == 0.001
        assert cfg.strategy is FusionStrategy.EARLY
        assert cfg.snr_range_db == (-3.0, 3.0)
        assert cfg.width_divisor == 16

    def test_from_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps=5\nseed=3\n")
        cfg = TrainConfig.from_file(str(path), steps=9)
        assert cfg.steps == 9
        assert cfg.seed == 3

    def test_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("such config\n")
        with pytest.raises(TrainError, match="key=value"):
            TrainConfig.from_file(str(path))
        path.write_text("volume=11\n")
        with pytest.raises(TrainError, match="unknown config key"):
            TrainConfig.from_file(str(path))


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


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        named = _toy_params()
        for _, p in named:
            p.grad = np.zeros_like(p.data)
        before = [p.data.copy() for _, p in named]
        state = AdamState.initial(named)
        adam_step(named, state, lr=0.1)
        for (_, p), b in zip(named, before):
            assert np.array_equal(p.data, b)
        assert state.step == 1

    def test_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        named = _toy_params(1)
        grads = []
        for _, p in named:
            g = np.random.default_rng(2).normal(size=p.dims).astype(np.float32)
            g[np.abs(g) < 0.1] = 0.5  # keep |g| clear of the eps floor
            p.grad = g
            grads.append(g)
        before = [p.data.copy() for _, p in named]
        adam_step(named, AdamState.initial(named), lr=0.01)
        for (_, p), b, g in zip(named, before, grads):
            assert np.allclose(p.data, b - 0.01 * np.sign(g), atol=1e-5)

    def test_missing_gradient_raises(self):
        named = _toy_params()
        named[0][1].grad = np.zeros_like(named[0][1].data)
        with pytest.raises(TrainError, match="no gradient"):
            adam_step(named, AdamState.initial(named), lr=0.1)

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            named = _toy_params(3)
            state = AdamState.initial(named)
            rng = np.random.default_rng(4)
            for _ in range(5):
                for _, p in named:
                    p.grad = rng.normal(size=p.dims).astype(np.float32)
                adam_step(named, state, lr=0.003)
            runs.append([p.data.copy() for _, p in named])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(5, 6)
        b = synth_dataset(5, 6)
        for x, y in zip(a, b):
            assert np.array_equal(x.noisy.values, y.noisy.values)
            assert np.array_equal(x.video.frames, y.video.frames)
            assert np.array_equal(x.clean.values, y.clean.values)
            assert x.snr_db == y.snr_db

    def test_item_count_and_unpacking(self):
        items = synth_dataset(0, 6)
        assert len(items) == 6
        noisy, video, clean = items[0]
        assert noisy.values.shape == (80, 20)
        assert video.frames.shape == (5, 80, 80)
        assert clean.values.shape == (80, 20)

    def test_snr_draws_center_on_midpoint(self):
        items = synth_dataset(0, 1000)
        assert abs(np.mean([it.snr_db for it in items]) - 0.0) < 0.5

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

    def test_threaded_build_matches_serial(self, monkeypatch):
        serial = synth_dataset(7, 8)
        monkeypatch.setenv("MFFCN_THREADS", "4")
        threaded = synth_dataset(7, 8)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.noisy.values, b.noisy.values)
            assert np.array_equal(a.video.frames, b.video.frames)

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
        with pytest.raises(TrainError, match="step"):
            train(cfg, data)

    def test_empty_data_rejected(self):
        cfg = TrainConfig(steps=1, width_divisor=16)
        with pytest.raises(TrainError, match="empty"):
            train(cfg, [])

    def test_mismatched_params_rejected(self):
        cfg = TrainConfig(steps=1, width_divisor=16, strategy=FusionStrategy.LATE)
        params = init_params(0, FusionStrategy.EARLY, 16)
        with pytest.raises(TrainError, match="config says"):
            train(cfg, synth_dataset(0, 2), params=params)

    def test_loss_csv_written(self, tmp_path):
        from mffcn.formats import load_loss_csv
        cfg = TrainConfig(steps=3, seed=0, width_divisor=16, batch_size=2,
                          strategy=FusionStrategy.LATE)
        data = synth_dataset(0, 2)
        path = str(tmp_path / "loss.csv")
        result = train(cfg, data, loss_csv_path=path)
        assert load_loss_csv(path) == result.loss_history
