"""Single entry point exposing every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to stderr;
data goes to files or stdout. Every source of randomness takes an explicit
seed, so identical arguments over identical inputs give bit-identical outputs,
at any ``--parallelism``.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .audio_io import WavFormatError, read_wav, write_wav
from .dataset import (
    AugmentationSet,
    ManifestError,
    build_set,
    build_speed_set,
    load_manifest,
    save_manifest,
)
from .features import DISTORTION_METRICS, distortion_curve, fbank, load_features, mvn, save_features
from .ltr import DEFAULT_DURATIONS_MS, LtrConfig, reverse_segments
from .matrix_io import MatrixFormatError
from .metrics import TrnFormatError, corpus_report, read_trn, tokenize, top_confusions
from .perturb import SpecAugmentPolicy, spec_augment, speed_perturb
from .scoring import FusionWeights, Vocabulary, ctc_loss, load_grid, load_hypotheses, rescore_hypotheses

__all__ = ["main", "run"]

_DATA_ERRORS = (WavFormatError, MatrixFormatError, ManifestError, TrnFormatError, OSError, ValueError, KeyError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError(f"expected positive comma-separated numbers, got {text!r}")
    return values


def _default_parallelism() -> int:
    raw = os.environ.get("LTRKIT_PARALLELISM", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ltrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--verbose", action="store_true", help="per-file progress on stderr")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ltr", parents=[], help="render locally time-reversed audio")
    p.add_argument("--segment-ms", type=_positive_float, required=True, help="reversed segment duration in ms")
    p.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p.add_argument("--out", dest="out_path", required=True, metavar="WAV")
    p.add_argument("--codec", choices=("pcm16", "float32"), default="float32")
    p.set_defaults(func=_cmd_ltr)

    p = sub.add_parser("speed", help="speed-perturb audio by a playback factor")
    p.add_argument("--factor", type=_positive_float, required=True)
    p.add_argument("--in", dest="in_path", required=True, metavar="WAV")
    p.add_argument("--out", dest="out_path", required=True, metavar="WAV")
    p.add_argument("--codec", choices=("pcm16", "float32"), default="float32")
    p.set_defaults(func=_cmd_speed)

    p = sub.add_parser("specaug", help="mask time and frequency regions of a feature file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--freq-masks", type=int, default=2)
    p.add_argument("--freq-width", type=int, default=27, help="max frequency-mask width in bins")
    p.add_argument("--time-masks", type=int, default=2)
    p.add_argument("--time-fraction", type=float, default=0.05, help="max time-mask width as a fraction of frames")
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

    p = sub.add_parser("build-set", help="build a 3-fold training set from a manifest (originals + one LTR pair)")
    p.add_argument("--set", dest="set_id", type=int, choices=range(1, 6), required=True, metavar="{1..5}")
    p.add_argument("--manifest", required=True, metavar="JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out-manifest", required=True, metavar="JSONL")
    p.add_argument("--parallelism", type=_positive_int, default=_default_parallelism())
    p.set_defaults(func=_cmd_build_set)

    p = sub.add_parser("build-speed-set", help="build a speed-perturbed training set from a manifest")
    p.add_argument("--factors", type=_float_list, default=(0.9, 1.0, 1.1), metavar="F,F,...")
    p.add_argument("--manifest", required=True, metavar="JSONL")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--out-manifest", required=True, metavar="JSONL")
    p.add_argument("--parallelism", type=_positive_int, default=_default_parallelism())
    p.set_defaults(func=_cmd_build_speed_set)

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


def _cmd_ltr(args) -> int:
    buffer = read_wav(args.in_path)
    write_wav(reverse_segments(buffer, LtrConfig(args.segment_ms)), args.out_path, args.codec)
    return 0


def _cmd_speed(args) -> int:
    buffer = read_wav(args.in_path)
    write_wav(speed_perturb(buffer, args.factor), args.out_path, args.codec)
    return 0


def _cmd_specaug(args) -> int:
    policy = SpecAugmentPolicy(
        num_freq_masks=args.freq_masks,
        max_freq_mask_width=args.freq_width,
        num_time_masks=args.time_masks,
        max_time_mask_fraction=args.time_fraction,
        seed=args.seed,
    )
    save_features(spec_augment(load_features(args.in_path), policy), args.out_path)
    return 0


def _cmd_featurize(args) -> int:
    features = fbank(read_wav(args.in_path), args.dims, args.window_ms, args.shift_ms)
    if not args.no_mvn:
        features = mvn(features)
    save_features(features, args.out_path)
    return 0


def _cmd_build_set(args) -> int:
    records = load_manifest(args.manifest)
    out = build_set(records, AugmentationSet(args.set_id), args.out_dir, parallelism=args.parallelism)
    save_manifest(out, args.out_manifest)
    print(f"wrote {len(out)} records to {args.out_manifest}", file=sys.stderr)
    return 0


def _cmd_build_speed_set(args) -> int:
    records = load_manifest(args.manifest)
    out = build_speed_set(records, args.factors, args.out_dir, parallelism=args.parallelism)
    save_manifest(out, args.out_manifest)
    print(f"wrote {len(out)} records to {args.out_manifest}", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    rows = distortion_curve(read_wav(args.in_path), args.metric, args.durations)
    csv = "segment_ms,value\n" + "".join(f"{duration_ms:g},{value:.9g}\n" for duration_ms, value in rows)
    if args.out_path:
        Path(args.out_path).write_text(csv, encoding="utf-8")
    else:
        sys.stdout.write(csv)
    return 0


def _cmd_score_ctc(args) -> int:
    vocab = Vocabulary(tuple(args.vocab.split()))
    grid = load_grid(args.grid)
    if grid.num_tokens != vocab.size:
        raise ValueError(f"grid has {grid.num_tokens} token columns but the vocabulary has {vocab.size}")
    loss = ctc_loss(grid, vocab.encode(args.tokens.split()))
    print(f"{loss:.12g}")
    return 0


def _cmd_score_fuse(args) -> int:
    weights = FusionWeights(ctc_weight=args.alpha, lm_weight=args.beta)
    best = rescore_hypotheses(load_hypotheses(args.hyps), weights)
    print(json.dumps({"tokens": list(best.tokens), "fused_score": best.fused_score,
                      "log_p_ctc": best.log_p_ctc, "log_p_att": best.log_p_att, "log_p_lm": best.log_p_lm},
                     ensure_ascii=False))
    return 0


def _cmd_wer(args) -> int:
    refs = read_trn(args.ref)
    hyps = read_trn(args.hyp)
    if not refs:
        raise ValueError(f"{args.ref}: no utterances")
    missing = sorted(set(refs) ^ set(hyps))
    if missing:
        raise ValueError(f"utt_ids not present in both files: {', '.join(missing[:5])}")

    pairs = []
    for utt_id, ref_text in refs.items():
        ref = tokenize(ref_text, args.unit)
        if not ref:
            raise ValueError(f"{args.ref}: utterance {utt_id!r} has an empty reference; error rate is undefined")
        pairs.append((ref, tokenize(hyps[utt_id], args.unit)))
    report = corpus_report(pairs)

    print(f"{args.unit} error rate: {100.0 * report.rate:.2f}%  "
          f"({report.total_errors} errors / {report.ref_len} ref tokens, {len(pairs)} utterances)")
    print(f"S={report.substitutions} I={report.insertions} D={report.deletions} H={report.hits}")
    confusions = top_confusions([report], args.confusions) if args.confusions else []
    if confusions:
        print("top substitutions:")
        for (ref_tok, hyp_tok), count in confusions:
            print(f"  {ref_tok} -> {hyp_tok}  {count}")
    if args.json_out:
        payload = {
            "unit": args.unit,
            "error_rate": report.rate,
            "ref_len": report.ref_len,
            "utterances": len(pairs),
            "substitutions": report.substitutions,
            "insertions": report.insertions,
            "deletions": report.deletions,
            "hits": report.hits,
            "confusions": [[ref_tok, hyp_tok, count] for (ref_tok, hyp_tok), count in
                           top_confusions([report], args.confusions or 10)],
        }
        Path(args.json_out).write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return 0


@functools.lru_cache(maxsize=8)
def _parser_for(parallelism_env: str | None) -> argparse.ArgumentParser:
    # Building the nine subparsers costs about a millisecond, so in-process
    # callers of run() share one parser. The key is the environment value
    # that build_parser() reads for the --parallelism default.
    return build_parser()


def run(argv) -> int:
    """Parse and dispatch; returns the process exit code instead of exiting."""
    parser = _parser_for(os.environ.get("LTRKIT_PARALLELISM"))
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --version / --help
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING, stream=sys.stderr, format="%(message)s"
    )
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
