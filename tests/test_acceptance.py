"""Acceptance gate: eight go/no-go checks, one printed verdict line each,
plus the pinned bytes of criterion 4's training.

Budgets are wall-clock on a desktop CPU. Every check recomputes what it
verifies; nothing here trusts another test's output.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from mffcn.attention import channel_attention, spectral_attention
from mffcn.cli import main as cli_main
from mffcn.dsp import AudioClip, SAMPLE_RATE, log_mel, mix_at_snr, stft
from mffcn.gradcheck import DEFAULT_SEEDS, run_model_check, run_op_suite
from mffcn.metrics import run_ablation, stoi
from mffcn.model import AUDIO_HW_TRACE, N_LAYERS, init_params, shape_trace
from mffcn.tensor import Tensor, no_grad
from mffcn.synth import clean_voice

REL_TOL = 1e-4          # gradient agreement, criteria 1
WEIGHT_TOL = 1e-6       # attention weight closure, criterion 3
OVERFIT_RATIO = 0.10    # loss shrinkage, criterion 4
SNR_TOL_DB = 0.01       # mixing accuracy, criterion 7
BIN_SHARE = 0.99        # tone concentration, criterion 7


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}  {detail}", flush=True)


# One training of criterion 4's exact configuration: argv is the checkpoint path and
# the JSON path for the loss history (float.hex) and the seconds it took.
_OVERFIT_CHILD = """
import json, sys, time
from mffcn.train import TrainConfig, synth_dataset, train
started = time.perf_counter()
config = TrainConfig(steps=500, seed=0, learning_rate=0.0002, batch_size=4, width_divisor=8)
result = train(config, synth_dataset(0, 4), checkpoint_path=sys.argv[1])
with open(sys.argv[2], "w") as fh:
    json.dump({"history": [x.hex() for x in result.loss_history],
               "seconds": time.perf_counter() - started}, fh)
"""


@pytest.fixture(scope="module")
def overfit_pair(tmp_path_factory):
    """Criterion 4's exact configuration, run twice at once for criterion 8.

    Each run is a child process with one BLAS thread, set before numpy
    loads: training is bit-identical for a fixed BLAS thread count.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = tmp_path_factory.mktemp("overfit")
    children = {tag: subprocess.Popen([sys.executable, "-c", _OVERFIT_CHILD, str(out / f"{tag}.mffc"),
                                       str(out / f"{tag}.json")], env=env, stderr=subprocess.PIPE, text=True)
                for tag in ("first", "second")}
    runs = {}
    try:
        for tag, child in children.items():
            _, err = child.communicate(timeout=1200)
            assert child.returncode == 0, err
            report = json.loads((out / f"{tag}.json").read_text())
            runs[tag] = ([float.fromhex(x) for x in report["history"]],
                         (out / f"{tag}.mffc").read_bytes(), report["seconds"])
    finally:
        for child in children.values():  # a failed or timed-out run leaves no training behind
            child.kill()
            child.wait(timeout=60)
    return runs


def test_criterion_1_gradient_suite(capsys):
    started = time.perf_counter()
    results = list(run_op_suite(seeds=DEFAULT_SEEDS, tol=REL_TOL))
    for seed in DEFAULT_SEEDS:
        results.append(run_model_check(seed=seed, width_divisor=16, tol=REL_TOL))
    elapsed = time.perf_counter() - started

    worst = max(results, key=lambda r: r.worst_err)
    ok = all(r.ok and r.worst_err < REL_TOL for r in results) and elapsed < 300
    _verdict(capsys, 1, ok,
             f"ops + end-to-end over {len(DEFAULT_SEEDS)} seeds, worst "
             f"{worst.worst_err:.2e} ({worst.name}) < {REL_TOL:g}, {elapsed:.0f}s")
    bad = [r for r in results if not r.ok or r.worst_err >= REL_TOL]
    assert not bad, [f"{r.name}: {r.worst_err:.3e} {r.detail}" for r in bad]
    assert elapsed < 300


def test_criterion_2_shape_trace(capsys):
    started = time.perf_counter()
    rc = cli_main(["trace-shapes"])
    trace = shape_trace(1)
    elapsed = time.perf_counter() - started

    terminal = (1024, 5, 1)
    ends = (trace["audio"][N_LAYERS], trace["video"][N_LAYERS])
    # video layer 1 is wider until the alignment pool; traces meet from 2 on
    agree = all(trace["audio"][i] == trace["video"][i] for i in range(2, N_LAYERS + 1))
    ok = rc == 0 and ends == (terminal, terminal) and agree and elapsed < 1.0
    _verdict(capsys, 2, ok,
             f"both branches end at {terminal}, exit {rc}, {elapsed * 1e3:.0f}ms")
    assert rc == 0
    assert ends == (terminal, terminal)
    assert agree
    assert elapsed < 1.0


def test_criterion_3_attention_invariants(capsys):
    started = time.perf_counter()
    blocks = []
    for seed in range(5):
        params = init_params(seed, width_divisor=16)
        for layer, fp in sorted(params.fusion.items()):
            blocks.append((layer, fp))

    rng = np.random.default_rng(99)
    worst_sum = 0.0
    mask_lo, mask_hi = 1.0, 0.0
    invocations = 0
    with no_grad():
        while invocations < 1000:
            layer, fp = blocks[invocations % len(blocks)]
            c = fp.fc_v.weight.dims[0]
            h, w = AUDIO_HW_TRACE[layer]
            v = Tensor(rng.normal(scale=2.0, size=(1, c, h, w)))
            a = Tensor(rng.normal(scale=2.0, size=(1, c, h, w)))
            fused, w_v, w_a = channel_attention(v, a, fp, return_weights=True)
            _, mask = spectral_attention(fused, fp.spectral, return_mask=True)
            worst_sum = max(worst_sum, float(np.max(np.abs(w_v.data + w_a.data - 1.0))))
            mask_lo = min(mask_lo, float(mask.data.min()))
            mask_hi = max(mask_hi, float(mask.data.max()))
            invocations += 1
    elapsed = time.perf_counter() - started

    ok = worst_sum < WEIGHT_TOL and 0.0 < mask_lo and mask_hi < 1.0 and elapsed < 60
    _verdict(capsys, 3, ok,
             f"{invocations} fusion invocations, max |w_v + w_a - 1| = "
             f"{worst_sum:.1e}, mask within (0,1) by margins {mask_lo:.1e} and "
             f"{1.0 - mask_hi:.1e}, {elapsed:.0f}s")
    assert worst_sum < WEIGHT_TOL
    assert 0.0 < mask_lo and mask_hi < 1.0
    assert elapsed < 60


def test_criterion_4_overfit(capsys, overfit_pair):
    history, _, elapsed = overfit_pair["first"]
    ratio = history[-1] / history[0]
    ok = ratio <= OVERFIT_RATIO and elapsed < 600
    _verdict(capsys, 4, ok,
             f"500 steps, loss {history[0]:.4f} -> {history[-1]:.4f} "
             f"(ratio {ratio:.3f} <= {OVERFIT_RATIO}), {elapsed:.0f}s")
    assert ratio <= OVERFIT_RATIO
    assert elapsed < 600


def test_criterion_5_ablation_harness(capsys):
    started = time.perf_counter()
    reports = run_ablation(seed=0)
    elapsed = time.perf_counter() - started

    grid = {(r.strategy, r.snr_db) for r in reports}
    wanted = {(s, snr)
              for s in ("early", "late", "mid-bottleneck", "mid-decoder", "multilayer")
              for snr in (0.0, -5.0)}
    finite = all(r.is_finite() for r in reports)
    ok = grid == wanted and len(reports) == 10 and finite and elapsed < 900
    _verdict(capsys, 5, ok,
             f"5 strategies x 2 SNRs, {len(reports)} finite reports, {elapsed:.0f}s")
    assert grid == wanted
    assert len(reports) == 10
    assert finite
    assert elapsed < 900


def test_criterion_6_stoi_self_consistency(capsys):
    started = time.perf_counter()
    x, _ = clean_voice(np.random.default_rng(0))
    self_score = stoi(x, x)

    base = stoi(x, AudioClip(x.samples * 0.5))
    invariant = all(
        stoi(x, AudioClip(x.samples * c)) == base for c in (0.25, 0.125, 0.0625)
    ) and stoi(AudioClip(x.samples * 0.5), x) == base == stoi(x, x)

    monotone_seeds = 0
    for seed in range(10):
        clean, _ = clean_voice(np.random.default_rng(seed))
        n = np.random.default_rng(500 + seed).normal(size=len(clean))
        n *= np.sqrt(np.mean(clean.samples**2) / np.mean(n**2))
        scores = []
        for snr in (-5, 0, 5, 10):
            mixture = clean.samples + n * 10 ** (-snr / 20)
            peak = np.max(np.abs(mixture))
            if peak > 1.0:
                mixture = mixture * (0.5 / peak)
            scores.append(stoi(clean, AudioClip(mixture)))
        monotone_seeds += all(a <= b + 1e-9 for a, b in zip(scores, scores[1:]))
    elapsed = time.perf_counter() - started

    ok = self_score >= 0.99 and invariant and monotone_seeds >= 9 and elapsed < 60
    _verdict(capsys, 6, ok,
             f"self-score {self_score:.4f} >= 0.99, binary-gain invariance "
             f"{'exact' if invariant else 'BROKEN'}, monotone {monotone_seeds}/10, "
             f"{elapsed:.0f}s")
    assert self_score >= 0.99
    assert invariant
    assert monotone_seeds >= 9
    assert elapsed < 60


def test_criterion_7_dsp_checks(capsys):
    rng = np.random.default_rng(3)

    segs = log_mel(AudioClip(rng.uniform(-0.5, 0.5, size=3680)))
    one_segment = len(segs) == 1 and segs[0].values.shape == (80, 20)

    clean = AudioClip(rng.uniform(-0.5, 0.5, size=SAMPLE_RATE))
    noise = AudioClip(rng.uniform(-0.5, 0.5, size=SAMPLE_RATE))
    worst_gap = 0.0
    for target in (-10.0, -3.0, 0.0, 7.5, 10.0):
        mix = mix_at_snr(clean, noise, target)
        achieved = 10.0 * np.log10(
            np.sum(clean.samples**2) / np.sum((mix.noise_scale * noise.samples)**2))
        worst_gap = max(worst_gap, abs(achieved - target))

    k = 40  # 25 Hz bin spacing puts this tone at 1 kHz
    t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
    tone = AudioClip(0.5 * np.sin(2 * np.pi * (25.0 * k) * t))
    frame = np.abs(stft(tone)[:, 4]) ** 2
    on_bin = int(np.argmax(frame)) == k
    share = frame[k - 1:k + 2].sum() / frame.sum()

    ok = one_segment and worst_gap < SNR_TOL_DB and on_bin and share >= BIN_SHARE
    _verdict(capsys, 7, ok,
             f"3680 samples -> {len(segs)} segment, SNR gap {worst_gap:.4f} dB "
             f"< {SNR_TOL_DB}, tone share {share:.4f} >= {BIN_SHARE}")
    assert one_segment
    assert worst_gap < SNR_TOL_DB
    assert on_bin
    assert share >= BIN_SHARE


def test_criterion_8_determinism(capsys, overfit_pair):
    hist_a, bytes_a, _ = overfit_pair["first"]
    hist_b, bytes_b, _ = overfit_pair["second"]
    same_history = hist_a == hist_b
    same_checkpoint = bytes_a == bytes_b
    ok = same_history and same_checkpoint
    _verdict(capsys, 8, ok,
             f"loss history {'bit-identical' if same_history else 'DIFFERS'} "
             f"({len(hist_a)} steps, two processes), checkpoint "
             f"{'bit-identical' if same_checkpoint else 'DIFFERS'} "
             f"({len(bytes_a)} bytes)")
    assert same_history
    assert same_checkpoint


# sha256 of criterion 4's loss history (its float.hex strings joined in order) and of its
# checkpoint bytes, at one BLAS thread: a change that moves one bit of training fails here.
TRAINING_HISTORY_SHA256 = "8cf533b784f6280c3c6efb8affefb37438c8bdb61c5b1eedf5ea03c12c965fc0"
TRAINING_CHECKPOINT_SHA256 = "2e48dc48f96edc346474a1ec54a73b61dfa85a88a74aba48345f5bdc4222d655"


def test_overfit_training_bytes_pinned(overfit_pair):
    history, checkpoint, _ = overfit_pair["first"]
    hexes = "".join(float.hex(x) for x in history)
    assert hashlib.sha256(hexes.encode()).hexdigest() == TRAINING_HISTORY_SHA256
    assert hashlib.sha256(checkpoint).hexdigest() == TRAINING_CHECKPOINT_SHA256
