"""Command-line front door for the kit.

Exit codes: 0 success, 1 a verification gate failed, 2 bad input or
unusable files, 3 a computation produced non-finite numbers.
"""

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from .dsp import (
    SAMPLE_RATE,
    SEG_VIDEO_FRAMES,
    AudioClip,
    DspError,
    VideoSegment,
    bilinear_resize,
    log_mel,
    segment_samples,
)
from .formats import (
    FormatError,
    export_spectrogram,
    load_mten,
    load_pgm,
    load_video,
    load_wav,
    save_mten,
)
from .gradcheck import DEFAULT_SEEDS, REL_TOL, run_model_check, run_op_suite
from .metrics import MetricError, ablation_to_csv, evaluate_params, format_ablation, run_ablation
from .model import (
    FusionStrategy,
    ModelError,
    N_LAYERS,
    enhance_segments,
    load_model,
    scaled_filters,
    shape_trace,
)
from .tensor import NonFiniteError, TensorError
from .train import TrainConfig, TrainError, load_dataset, synth_dataset, train

STRATEGY_NAMES = tuple(s.value for s in FusionStrategy)


def _add_common(sub, *flags):
    """Attach the shared long-form flags a subcommand declares."""
    if "seed" in flags:
        sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    if "width-divisor" in flags:
        sub.add_argument("--width-divisor", type=int, default=1, metavar="D",
                         help="divide every channel count by D (default 1)")
    if "strategy" in flags:
        sub.add_argument("--strategy", choices=STRATEGY_NAMES, default="multilayer",
                         help="fusion wiring (default multilayer)")
    if "lr" in flags:
        sub.add_argument("--lr", type=float, default=0.0002,
                         help="Adam learning rate (default 0.0002)")
    if "batch" in flags:
        sub.add_argument("--batch", type=int, default=8,
                         help="items per optimization step (default 8)")
    if "steps" in flags:
        sub.add_argument("--steps", type=int, default=100,
                         help="optimization steps (default 100)")
    if "snr" in flags:
        sub.add_argument("--snr-low", type=float, default=-10.0,
                         help="lowest mixing SNR in dB (default -10)")
        sub.add_argument("--snr-high", type=float, default=10.0,
                         help="highest mixing SNR in dB (default 10)")
    if "out" in flags:
        sub.add_argument("--out", default=".", metavar="DIR",
                         help="output directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mffcn",
        description="Audio-visual speech enhancement kit: verification, "
                    "training, inference, and reporting.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gradcheck", help="compare every backward rule and the "
                        "full network against finite differences")
    _add_common(p, "seed")
    p.add_argument("--width-divisor", type=int, default=16, metavar="D",
                   help="channel divisor for the whole-network row (default 16)")
    p.add_argument("--tolerance", type=float, default=REL_TOL,
                   help=f"maximum allowed relative error (default {REL_TOL:g})")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("trace-shapes", help="print the layer-by-layer shape "
                        "schedule for both branches and the decoder")
    _add_common(p, "width-divisor")
    p.set_defaults(func=cmd_trace_shapes)

    p = subs.add_parser("train", help="train a model on a saved or synthetic dataset")
    _add_common(p, "seed", "width-divisor", "strategy", "lr", "batch", "steps",
                "snr", "out")
    p.add_argument("--data", metavar="DIR",
                   help="dataset directory (omit to synthesize one from --seed)")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("enhance", help="run a checkpoint over a noisy WAV plus "
                        "video frames, writing Mel tensors and spectrogram images")
    p.add_argument("noisy_wav", help="16 kHz mono WAV to enhance")
    p.add_argument("video", help="directory of frame_######.pgm files or a [T,H,W] .mten")
    p.add_argument("clean_wav", nargs="?", default=None,
                   help="optional reference WAV for a side-by-side image")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    _add_common(p, "out")
    p.set_defaults(func=cmd_enhance)

    p = subs.add_parser("eval", help="score a checkpoint on synthetic mixtures")
    p.add_argument("--checkpoint", required=True, metavar="FILE")
    _add_common(p, "seed", "out")
    p.add_argument("--snr-low", type=float, default=-5.0,
                   help="lowest evaluation SNR in dB (default -5)")
    p.add_argument("--snr-high", type=float, default=0.0,
                   help="highest evaluation SNR in dB (default 0)")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("ablate", help="train all five fusion wirings "
                        "identically and tabulate their scores")
    _add_common(p, "seed", "lr", "batch", "out")
    p.add_argument("--width-divisor", type=int, default=8, metavar="D",
                   help="channel divisor (default 8)")
    p.add_argument("--steps", type=int, default=50,
                   help="training steps per wiring (default 50)")
    p.add_argument("--snr-low", type=float, default=-5.0,
                   help="lowest evaluation SNR in dB (default -5)")
    p.add_argument("--snr-high", type=float, default=0.0,
                   help="highest evaluation SNR in dB (default 0)")
    p.set_defaults(func=cmd_ablate)

    p = subs.add_parser("export-spec", help="convert a spectrogram between "
                        ".mten and .pgm/.csv representations")
    p.add_argument("input", help=".mten -> .pgm + .csv; .pgm or .csv -> .mten")
    _add_common(p, "out")
    p.set_defaults(func=cmd_export_spec)
    return parser


# ----------------------------------------------------------------------------
# Verification commands
# ----------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    tol = args.tolerance
    seeds = tuple(s + args.seed for s in DEFAULT_SEEDS)
    results = list(run_op_suite(seeds=seeds, tol=tol))
    results.append(run_model_check(seed=args.seed, width_divisor=args.width_divisor,
                                   tol=tol))

    width = max(len(r.name) for r in results) + 2
    print(f"{'op'.ljust(width)}{'max rel-err':>12}   result")
    failed = []
    for r in results:
        ok = r.ok and r.worst_err <= tol and tol > 0
        print(f"{r.name.ljust(width)}{r.worst_err:>12.3e}   {'pass' if ok else 'FAIL'}")
        if r.detail and not ok:
            print(f"{''.ljust(width)}{r.detail}")
        if not ok:
            failed.append(r)
    if failed:
        worst = max(failed, key=lambda r: r.worst_err)
        print(f"worst offender: {worst.name} ({worst.worst_err:.3e})", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks within {tol:g}")
    return 0


def cmd_trace_shapes(args) -> int:
    trace = shape_trace(args.width_divisor)
    widths = scaled_filters(args.width_divisor)

    def fmt(shape):
        return "x".join(str(n) for n in shape)

    print(f"{'layer':>5}  {'kernel':>7} {'stride':>7} {'pool':>7}   "
          f"{'audio':>12} {'video':>12}")
    print(f"{'in':>5}  {'':>7} {'':>7} {'':>7}   "
          f"{fmt(trace['audio'][0]):>12} {fmt(trace['video'][0]):>12}")
    for i in range(1, N_LAYERS + 1):
        k, s, pl = trace["kernels"][i - 1], trace["audio_strides"][i - 1], trace["video_pools"][i - 1]
        print(f"{i:>5}  {fmt(k):>7} {fmt(s):>7} {fmt(pl):>7}   "
              f"{fmt(trace['audio'][i]):>12} {fmt(trace['video'][i]):>12}")
    print("decoder:", "  ".join(fmt(s) for s in trace["decoder"]))
    print("parameters:", "  ".join(
        f"{name}={count:,}" for name, count in trace["parameter_counts"].items()))

    mismatches = []
    final = (widths[-1], 5, 1)
    for branch in ("audio", "video"):
        if trace[branch][N_LAYERS] != final:
            mismatches.append(f"{branch} branch ends at {trace[branch][N_LAYERS]}, wanted {final}")
    for i in range(2, N_LAYERS + 1):
        if trace["audio"][i] != trace["video"][i]:
            mismatches.append(f"branches disagree at layer {i}")
    if trace["decoder"][-1][0] != 1 or trace["decoder"][-1][1:] != trace["audio"][0][1:]:
        mismatches.append(f"decoder ends at {trace['decoder'][-1]}")
    for line in mismatches:
        print(f"trace mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


# ----------------------------------------------------------------------------
# Workflow commands
# ----------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = TrainConfig(steps=args.steps, seed=args.seed, learning_rate=args.lr,
                         batch_size=args.batch,
                         snr_range_db=(args.snr_low, args.snr_high),
                         strategy=FusionStrategy.from_name(args.strategy),
                         width_divisor=args.width_divisor)
    if args.data:
        data = load_dataset(args.data)
        print(f"loaded {len(data)} items from {args.data}")
    else:
        data = synth_dataset(args.seed, 8 * args.batch,
                             snr_range_db=config.snr_range_db)
        print(f"synthesized {len(data)} items (seed {args.seed})")

    os.makedirs(args.out, exist_ok=True)
    ck_path = os.path.join(args.out, "checkpoint.mffc")
    csv_path = os.path.join(args.out, "loss.csv")
    result = train(config, data, checkpoint_path=ck_path, loss_csv_path=csv_path)
    if result.loss_history:
        print(f"step 1 loss {result.loss_history[0]:.6f}, "
              f"step {len(result.loss_history)} loss {result.loss_history[-1]:.6f}")
    print(f"wrote {ck_path} and {csv_path}")
    return 0


def _video_unit_frames(path: str) -> np.ndarray:
    """Frames as float64 in [0, 1] at 80x80, from PGM files or a tensor."""
    frames = np.asarray(load_video(path), dtype=np.float64)
    if frames.max() > 1.5:  # 8-bit pixel convention
        frames = frames / 255.0
    if frames.shape[1:] != (80, 80):
        frames = np.stack([bilinear_resize(f, 80, 80) for f in frames])
    return np.clip(frames, 0.0, 1.0)


def cmd_enhance(args) -> int:
    params = load_model(args.checkpoint)
    clip = AudioClip(load_wav(args.noisy_wav))
    frames = _video_unit_frames(args.video)

    noisy_segs = log_mel(clip, clip_id=os.path.basename(args.noisy_wav))
    n = min(len(noisy_segs), frames.shape[0] // SEG_VIDEO_FRAMES)
    if n == 0:
        raise DspError(
            f"need at least 1 aligned segment, got {len(noisy_segs)} audio "
            f"segments but only {frames.shape[0]} video frames ({SEG_VIDEO_FRAMES} per segment)")

    os.makedirs(args.out, exist_ok=True)
    videos = [VideoSegment(frames[SEG_VIDEO_FRAMES * k:SEG_VIDEO_FRAMES * (k + 1)]) for k in range(n)]
    enhanced = enhance_segments(noisy_segs[:n], videos, params)
    for k, seg in enumerate(enhanced):
        save_mten(os.path.join(args.out, f"enhanced_{k:03d}.mten"), seg.values)
    audio_left = len(clip) - segment_samples(n)
    print(f"enhanced {n} segments; dropped {audio_left} trailing audio samples "
          f"({audio_left / SAMPLE_RATE:.3f} s) and {frames.shape[0] - SEG_VIDEO_FRAMES * n} "
          f"trailing video frames that no segment covers")

    noisy_cat = np.concatenate([s.values for s in noisy_segs[:n]], axis=1)
    enh_cat = np.concatenate([s.values for s in enhanced], axis=1)
    written = list(export_spectrogram(os.path.join(args.out, "noisy"), noisy_cat))
    written += export_spectrogram(os.path.join(args.out, "enhanced"), enh_cat)

    if args.clean_wav:
        clean_segs = log_mel(AudioClip(load_wav(args.clean_wav)), clip_id="clean")
        if len(clean_segs) >= n:
            clean_cat = np.concatenate([s.values for s in clean_segs[:n]], axis=1)
            written += export_spectrogram(os.path.join(args.out, "clean"), clean_cat)
            dist = float(np.sqrt(np.mean((enh_cat - clean_cat) ** 2)))
            print(f"log-spectral distance to reference: {dist:.4f}")
        else:
            print(f"reference WAV too short ({len(clean_segs)} segments), skipping",
                  file=sys.stderr)

    print(f"wrote {n} .mten files and "
          f"{', '.join(os.path.basename(w) for w in written)} under {args.out}")
    return 0


def _write_reports(reports, args, csv_name: str) -> int:
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, csv_name)
    with open(csv_path, "w") as fh:
        fh.write(ablation_to_csv(reports))
    print(format_ablation(reports), end="")
    print(f"wrote {csv_path}")
    if not all(r.is_finite() for r in reports):
        print("non-finite metric in report", file=sys.stderr)
        return 3
    return 0


def cmd_eval(args) -> int:
    params = load_model(args.checkpoint)
    snrs = sorted({args.snr_low, args.snr_high}, reverse=True)
    reports = [evaluate_params(params, snr_db=s, seed=args.seed) for s in snrs]
    return _write_reports(reports, args, "eval.csv")


def cmd_ablate(args) -> int:
    reports = run_ablation(seed=args.seed, width_divisor=args.width_divisor,
                           train_steps=args.steps, train_items=2 * args.batch,
                           batch_size=args.batch, learning_rate=args.lr,
                           snrs_db=sorted({args.snr_low, args.snr_high}, reverse=True))
    code = _write_reports(reports, args, "ablation.csv")
    txt_path = os.path.join(args.out, "ablation.txt")
    with open(txt_path, "w") as fh:
        fh.write(format_ablation(reports))
    print(f"wrote {txt_path}")
    return code


def cmd_export_spec(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.input))[0]
    if args.input.endswith(".mten"):
        arr = load_mten(args.input)
        pgm, csv_path = export_spectrogram(os.path.join(args.out, stem), arr)
        print(f"wrote {pgm} and {csv_path}")
    elif args.input.endswith(".pgm"):
        out = os.path.join(args.out, stem + ".mten")
        save_mten(out, load_pgm(args.input).astype(np.float32))
        print(f"wrote {out} (8-bit pixel values, scale not recovered)")
    elif args.input.endswith(".csv"):
        arr = np.loadtxt(args.input, delimiter=",", dtype=np.float64, ndmin=2)
        out = os.path.join(args.out, stem + ".mten")
        save_mten(out, arr)
        print(f"wrote {out}")
    else:
        raise FormatError(f"{args.input}: expected a .mten, .pgm, or .csv file")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except TrainError as exc:
        numeric = "non-finite" in str(exc)
        print(f"{'numeric failure' if numeric else 'error'}: {exc}", file=sys.stderr)
        return 3 if numeric else 2
    except (FormatError, DspError, ModelError, MetricError, TensorError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
