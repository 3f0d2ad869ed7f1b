"""Single entry point exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data error: a ``DataError`` (bad
input, as the library decides it) or an ``OSError``. Any other exception is a
bug and propagates. Diagnostics go to stderr; data goes to files or stdout.
Every source of randomness takes an explicit seed, and a call reads nothing
but its arguments and input files, so identical arguments over identical
inputs give bit-identical outputs, at any ``--parallelism`` (default 1).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from . import __version__
from ._atomic import write_atomic, write_in_place
from .audio_io import read_wav, write_wav
from .dataset import SET_DURATIONS_MS, build_set, build_speed_set, load_manifest, save_manifest
from .errors import DataError, positive
from .features import DISTORTION_METRICS, distortion_csv, fbank, load_features, mvn, save_features
from .ltr import DEFAULT_DURATIONS_MS, reverse_segments
from .metrics import trn_report
from .perturb import DEFAULT_SPEED_FACTORS, SpecAugmentPolicy, spec_augment, speed_perturb
from .scoring import FusionWeights, Vocabulary, ctc_loss_labels, load_grid, load_hypotheses, rescore_hypotheses

__all__ = ["main", "run"]

_DATA_ERRORS = (DataError, OSError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    try:
        return positive("the value", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [positive("each number", float(part)) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, in {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true", help="per-file progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    # option groups shared by ltr/speed and by build-set/build-speed-set
    audio = _Parser(add_help=False)
    audio.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    audio.add_argument("--out", dest="out_path", required=True, metavar="WAV")
    audio.add_argument("--codec", choices=("pcm16", "float32"), default="float32")
    build = _Parser(add_help=False)
    build.add_argument("--manifest", required=True, metavar="JSONL")
    build.add_argument("--out-dir", required=True)
    build.add_argument("--out-manifest", required=True, metavar="JSONL")
    build.add_argument("--parallelism", type=_positive_int, default=1)

    # the lambdas look up their library call when run, so a patched global is the one used
    p = sub.add_parser("ltr", parents=[audio], help="render locally time-reversed audio")
    p.add_argument("--segment-ms", type=_positive_float, required=True, help="reversed segment duration in ms")
    p.set_defaults(func=_cmd_audio, transform=lambda buffer, args: reverse_segments(buffer, args.segment_ms))

    p = sub.add_parser("speed", parents=[audio], help="speed-perturb audio by a playback factor")
    p.add_argument("--factor", type=_positive_float, required=True)
    p.set_defaults(func=_cmd_audio, transform=lambda buffer, args: speed_perturb(buffer, args.factor))

    p = sub.add_parser("specaug", help="mask time and frequency regions of a feature file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--freq-masks", type=int, default=SpecAugmentPolicy.num_freq_masks)
    p.add_argument("--freq-width", type=int, default=SpecAugmentPolicy.max_freq_mask_width,
                   help="max frequency-mask width in bins")
    p.add_argument("--time-masks", type=int, default=SpecAugmentPolicy.num_time_masks)
    p.add_argument("--time-fraction", type=float, default=SpecAugmentPolicy.max_time_mask_fraction,
                   help="max time-mask width as a fraction of frames")
    p.add_argument("--in", dest="in_path", required=True, metavar="FEAT")
    p.add_argument("--out", dest="out_path", required=True, metavar="FEAT")
    p.set_defaults(func=_cmd_specaug)

    p = sub.add_parser("featurize", help="extract log-mel filterbank features to an FBK1 file")
    p.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p.add_argument("--out", dest="out_path", required=True, metavar="FEAT")
    p.add_argument("--dims", type=_positive_int, default=80)
    p.add_argument("--window-ms", type=_positive_float, default=25.0)
    p.add_argument("--shift-ms", type=_positive_float, default=10.0)
    p.add_argument("--no-mvn", action="store_true", help="skip mean-variance normalization")
    p.set_defaults(func=_cmd_featurize)

    p = sub.add_parser("build-set", parents=[build],
                       help="build a 3-fold training set from a manifest (originals + one LTR pair)")
    p.add_argument("--set", dest="set_id", type=int, choices=SET_DURATIONS_MS, required=True,
                   metavar=f"{{1..{len(SET_DURATIONS_MS)}}}")
    p.set_defaults(func=_cmd_build, build=lambda records, args: build_set(
        records, args.set_id, args.out_dir, parallelism=args.parallelism))

    p = sub.add_parser("build-speed-set", parents=[build], help="build a speed-perturbed training set from a manifest")
    p.add_argument("--factors", type=_float_list, default=DEFAULT_SPEED_FACTORS, metavar="F,F,...")
    p.set_defaults(func=_cmd_build, build=lambda records, args: build_speed_set(
        records, args.factors, args.out_dir, parallelism=args.parallelism))

    p = sub.add_parser("analyze", help="per-duration LTR distortion metrics as CSV (segment_ms,value)")
    p.add_argument("--metric", choices=DISTORTION_METRICS, required=True)
    p.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p.add_argument("--durations", type=_float_list, default=DEFAULT_DURATIONS_MS, metavar="MS,MS,...")
    p.add_argument("--out", dest="out_path", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("score", help="sequence scoring over posterior grids and hypothesis lists")
    score_sub = p.add_subparsers(dest="score_command", required=True, metavar="what")
    pc = score_sub.add_parser("ctc", help="CTC loss of a token sequence against a PST1 grid")
    pc.add_argument("--grid", required=True, metavar="PST")
    pc.add_argument("--vocab", required=True, help="space-separated token labels, in grid column order")
    pc.add_argument("--tokens", required=True, help="space-separated target labels (may be empty)")
    pc.set_defaults(func=_cmd_score_ctc)
    pf = score_sub.add_parser("fuse", help="rescore a JSONL hypothesis list by shallow fusion")
    pf.add_argument("--alpha", type=float, required=True, help="CTC weight in [0, 1]")
    pf.add_argument("--beta", type=float, required=True, help="language-model weight >= 0")
    pf.add_argument("--hyps", required=True, metavar="JSONL")
    pf.set_defaults(func=_cmd_score_fuse)

    p = sub.add_parser("wer", help="error rate between TRN reference and hypothesis files")
    p.add_argument("--ref", required=True, metavar="TRN")
    p.add_argument("--hyp", required=True, metavar="TRN")
    p.add_argument("--unit", choices=("word", "char", "phone"), default="word")
    p.add_argument("--confusions", type=_positive_int, default=None, metavar="N", help="print the top N substitution pairs")
    p.add_argument("--json-out", default=None, metavar="PATH", help="also write the report as JSON")
    p.set_defaults(func=_cmd_wer)

    return parser


def _cmd_audio(args) -> int:
    write_wav(args.transform(read_wav(args.in_path), args), args.out_path, args.codec)
    return 0


def _cmd_specaug(args) -> int:
    policy = SpecAugmentPolicy(args.freq_masks, args.freq_width, args.time_masks, args.time_fraction, args.seed)
    save_features(spec_augment(load_features(args.in_path), policy), args.out_path)
    return 0


def _cmd_featurize(args) -> int:
    features = fbank(read_wav(args.in_path), args.dims, args.window_ms, args.shift_ms)
    save_features(features if args.no_mvn else mvn(features), args.out_path)
    return 0


def _cmd_build(args) -> int:
    out = args.build(load_manifest(args.manifest), args)
    save_manifest(out, args.out_manifest)
    print(f"wrote {len(out)} records to {args.out_manifest}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    csv = distortion_csv(read_wav(args.in_path), args.metric, args.durations)
    if args.out_path:
        write_atomic(args.out_path, csv.encode("utf-8"))
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_score_ctc(args) -> int:
    vocab = Vocabulary(tuple(args.vocab.split()))
    print(f"{ctc_loss_labels(load_grid(args.grid), vocab, args.tokens.split()):.12g}")
    return 0


def _cmd_score_fuse(args) -> int:
    weights = FusionWeights(ctc_weight=args.alpha, lm_weight=args.beta)
    best = rescore_hypotheses(load_hypotheses(args.hyps), weights)
    print(json.dumps({"tokens": list(best.tokens), "fused_score": best.fused_score,
                      "log_p_ctc": best.log_p_ctc, "log_p_att": best.log_p_att, "log_p_lm": best.log_p_lm},
                     ensure_ascii=False))
    return 0


def _cmd_wer(args) -> int:
    report = trn_report(args.ref, args.hyp, args.unit, args.confusions or 10)
    if args.json_out:
        write_in_place(args.json_out, (json.dumps(report, ensure_ascii=False, indent=2) + "\n").encode("utf-8"))
    errors = report["substitutions"] + report["insertions"] + report["deletions"]
    print(f"{args.unit} error rate: {100.0 * report['error_rate']:.2f}%  "
          f"({errors} errors / {report['ref_len']} ref tokens, {report['utterances']} utterances)")
    print(f"S={report['substitutions']} I={report['insertions']} D={report['deletions']} H={report['hits']}")
    if args.confusions and report["confusions"]:
        print("top substitutions:")
        for ref_tok, hyp_tok, count in report["confusions"]:
            print(f"  {ref_tok} -> {hyp_tok}  {count}")
    return 0


# Building the nine subparsers costs about two milliseconds, so in-process
# callers of run() share one parser.
_PARSER = build_parser()


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version / --help
        return int(exc.code or 0)
    # For this call only, the library's log lines go to this call's stderr and
    # no other handler; the logging setup is put back afterwards.
    logger = logging.getLogger("ltrkit")
    level, propagate = logger.level, logger.propagate
    handler = logging.StreamHandler(sys.stderr)
    logger.addHandler(handler)
    logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
    logger.propagate = False
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
