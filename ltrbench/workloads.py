"""The three workloads, as lists of operations run in whole rounds.

An operation is one ``ltrkit.cli.run(argv)`` call or one group of library
calls, and feeds one throughput with an amount of work (seconds of source
audio, frames, hypotheses or reference tokens). Each workload runs all
eleven operation families so that every end-to-end metric is measured in
every workload; its own commands run on the full-size part of the corpus,
the others on the small shared part. ``decode`` also runs the two fault
probes, whose expected outcome is exit code 2.

A round runs every operation once, in order, from this one process: a closed
loop with one client, where each command starts after the previous returned.
The ``pN`` builds run last in every round; their throughputs are reported by
the traced run only (see README.md).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hostspeed
import oracle
from corpus import LABELS, Corpus, tokens_to_text, write_trn

FUSION = {"ctc_weight": 0.3, "lm_weight": 0.5}
SET_ID = 1  # LTR durations 5 and 10 ms: the most segments per second
LTR_MS = (5.0, 10.0)
SPEED_FACTORS = (0.9, 1.0, 1.1)
VOCAB = " ".join(LABELS)
SERIAL = (
    "build_set.p1.audio_s_per_s",
    "build_speed_set.p1.audio_s_per_s",
    "featurize.audio_s_per_s",
    "specaug.frames_per_s",
    "analyze.audio_s_per_s",
    "score_nbest.hyps_per_s",
    "score_ctc.frames_per_s",
    "wer_word.ref_tokens_per_s",
    "wer_char.ref_tokens_per_s",
)
PARALLEL = ("build_set.pN.audio_s_per_s", "build_speed_set.pN.audio_s_per_s")
THROUGHPUTS = SERIAL + PARALLEL  # the order of a round: the parallel builds run last

# How many times each round repeats an operation family, so that every
# metric gets at least about 0.1 s of work per round, and the p1 `build-set`
# of `augment`, one 0.6 s command whose CPU time moves by ±12% from call to
# call, gets three samples. Fixed per workload: the number of operations in
# a round never depends on timing.
REPEATS = {
    "augment": {"build_set.p1.audio_s_per_s": 3, "specaug.frames_per_s": 4, "analyze.audio_s_per_s": 2, "score_ctc.frames_per_s": 3,
                "wer_word.ref_tokens_per_s": 20, "wer_char.ref_tokens_per_s": 6},
    "frontend": {"build_set.p1.audio_s_per_s": 2, "build_set.pN.audio_s_per_s": 2, "score_nbest.hyps_per_s": 2,
                 "score_ctc.frames_per_s": 3, "wer_word.ref_tokens_per_s": 20, "wer_char.ref_tokens_per_s": 6},
    "decode": {"build_set.p1.audio_s_per_s": 2, "build_set.pN.audio_s_per_s": 2, "specaug.frames_per_s": 4,
               "analyze.audio_s_per_s": 2, "wer_word.ref_tokens_per_s": 10, "wer_char.ref_tokens_per_s": 3},
}


@dataclass
class Op:
    metric: str | None  # None for a fault probe
    work: float
    run: Callable[[], bool]
    prepare: Callable[[], None] | None = None


def speed(round_: dict) -> float:
    """Factor that scales a round's times to the reference host's speed."""
    return hostspeed.REFERENCE_S / round_["kernel_s"]


class Workload:
    def __init__(self, lk, corpus: Corpus, work: Path, nproc: int, name: str) -> None:
        self.lk = lk
        self.corpus = corpus
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.nproc = nproc
        self.results: dict = {}
        self.errors: list[str] = []
        families: dict[str, list[Op]] = {}
        for op in self._augment_ops() + self._frontend_ops() + self._decode_ops():
            families.setdefault(op.metric, []).append(op)
        self.ops = [op for metric in THROUGHPUTS for op in families[metric] * REPEATS[name].get(metric, 1)]
        if name == "decode":
            self.ops += self._probe_ops()

    # ------------------------------------------------------------ plumbing

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.lk.cli.run(argv)
        return code, out.getvalue()

    def expect_ok(self, argv: list[str]) -> Callable[[], bool]:
        def run() -> bool:
            code, _ = self.cli(argv)
            if code != 0:
                self.errors.append(f"exit {code}: ltrkit {' '.join(argv)}")
            return code == 0

        return run

    def keep(self, key, value) -> None:
        """Store an op's result; every round must reproduce the first one."""
        if key in self.results and self.results[key] != value:
            self.errors.append(f"{key}: result changed between rounds")
        self.results[key] = value

    # ------------------------------------------------------------ operations

    def _augment_ops(self) -> list[Op]:
        aset = self.corpus.augment
        ops = []
        for command, tag in (("build-set", "build_set"), ("build-speed-set", "build_speed_set")):
            for label, parallelism in (("p1", 1), ("pN", self.nproc)):
                out = self.work / f"{tag}.{label}"
                argv = [command, "--manifest", aset.manifest, "--out-dir", str(out), "--out-manifest", str(out / "out.jsonl"), "--parallelism", str(parallelism)]
                argv[1:1] = ["--set", str(SET_ID)] if command == "build-set" else []
                ops.append(Op(f"{tag}.{label}.audio_s_per_s", aset.audio_s, self.expect_ok(argv), functools.partial(self._empty, out)))
        return ops

    def _frontend_ops(self) -> list[Op]:
        ops = []
        feats = self.work / "feats"
        for u in self.corpus.frontend.utts:
            ops.append(Op("featurize.audio_s_per_s", u.duration_s, self.expect_ok(["featurize", "--in", u.path, "--out", str(feats / f"{u.utt_id}.fbk")])))
        for k, u in enumerate(self.corpus.frontend.utts):
            frames = oracle.fbank_shape(u.samples, u.rate)[0]
            argv = ["specaug", "--seed", str(k), "--in", str(feats / f"{u.utt_id}.fbk"), "--out", str(feats / f"{u.utt_id}.sa.fbk")]
            ops.append(Op("specaug.frames_per_s", frames, self.expect_ok(argv)))
        for u in self.corpus.analyze:
            for metric in ("boundary", "spectral-distance"):
                argv = ["analyze", "--metric", metric, "--in", u.path, "--out", str(feats / f"{u.utt_id}.{metric}.csv")]
                ops.append(Op("analyze.audio_s_per_s", u.duration_s, self.expect_ok(argv)))
        return ops

    def _nbest(self, u) -> Callable[[], bool]:
        lk = self.lk
        weights = lk.FusionWeights(**FUSION)

        def run() -> bool:
            grid = lk.load_grid(u.grid_path)
            greedy = lk.greedy_ctc_decode(grid)
            hyps = [
                lk.Hypothesis(h, -lk.ctc_loss(grid, h), -lk.attention_loss(att, h), lk.tabular_lm_score(u.lm_table, h))
                for h, att in zip(u.hyps, u.attention)
            ]
            best = lk.rescore_hypotheses(hyps, weights)
            self.keep(("nbest", u.utt_id), (greedy, tuple((h.log_p_ctc, h.log_p_att, h.log_p_lm) for h in hyps), best.tokens))
            return True

        return run

    def _score_ctc(self, u) -> Callable[[], bool]:
        argv = ["score", "ctc", "--grid", u.grid_path, "--vocab", VOCAB, "--tokens", " ".join(LABELS[t] for t in u.reference)]

        def run() -> bool:
            code, out = self.cli(argv)
            if code == 0:
                self.keep(("score_ctc", u.utt_id), float(out))
            return code == 0

        return run

    def _wer(self, utts, unit: str) -> Op:
        stem = self.work / f"wer.{unit}"
        ref = Path(f"{stem}.ref.trn")
        write_trn(ref, [(u.utt_id, u.text) for u in utts])
        hyp, report = Path(f"{stem}.hyp.trn"), Path(f"{stem}.json")

        def prepare() -> None:
            write_trn(hyp, [(u.utt_id, tokens_to_text(self.results[("nbest", u.utt_id)][2])) for u in utts])

        def run() -> bool:
            ok = self.expect_ok(["wer", "--ref", str(ref), "--hyp", str(hyp), "--unit", unit, "--json-out", str(report)])()
            if ok:
                self.keep(("wer", unit), json.loads(report.read_text(encoding="utf-8")))
            return ok

        tokens = sum(len(u.text.split()) if unit == "word" else len(oracle.char_units(u.text)) for u in utts)
        return Op(f"wer_{unit}.ref_tokens_per_s", tokens, run, prepare)

    def _probe(self, argv: list[str]) -> Callable[[], bool]:
        def run() -> bool:
            try:
                code, _ = self.cli(argv)
            except Exception as exc:  # the known fault escapes cli.run as an exception
                self.keep(("probe", argv[1]), type(exc).__name__)
                return False
            self.keep(("probe", argv[1]), code)
            return code == 2

        return run

    def _decode_ops(self) -> list[Op]:
        dset = self.corpus.decode
        ops = [Op("score_nbest.hyps_per_s", len(u.hyps), self._nbest(u)) for u in dset.utts]
        ops += [Op("score_ctc.frames_per_s", u.frames, self._score_ctc(u)) for u in dset.utts]
        return ops + [self._wer(dset.short, "word"), self._wer(dset.long, "char")]

    def _probe_ops(self) -> list[Op]:
        """The known faults: a tie between a string and an integer token in
        ``score fuse``, and a NaN entry in a PST1 grid. Both should exit 2."""
        probes = self.corpus.probes
        return [
            Op(None, 0, self._probe(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", probes["tie"]])),
            Op(None, 0, self._probe(["score", "ctc", "--grid", probes["nan_grid"], "--vocab", "a b", "--tokens", "a"])),
        ]

    # ------------------------------------------------------------ rounds

    def round(self) -> dict:
        """Run every op once; returns each op's seconds, the failures, the
        round's wall time, the peak RSS before the parallel builds, and the
        host's median time for the fixed kernel of ``hostspeed``, which runs
        before each operation family.

        A serial op runs wholly on this thread, so it is timed by this
        thread's CPU time: on a dedicated core that equals its wall time,
        and it leaves out the time a shared host takes the vCPU away. A
        parallel build is timed by the wall clock."""
        times = []
        kernel = []
        failed = 0
        serial_peak_rss_mb = None
        started = time.perf_counter()
        self._empty(self.work / "feats")
        for k, op in enumerate(self.ops):
            if k == 0 or op.metric != self.ops[k - 1].metric:
                kernel.append(hostspeed.sample())
            if op.prepare:
                op.prepare()
            parallel = op.metric in PARALLEL
            if parallel and serial_peak_rss_mb is None:
                serial_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            clock = time.perf_counter if parallel else time.thread_time
            t0 = clock()
            try:
                ok = op.run()
            except Exception as exc:
                self.errors.append(f"{op.metric}: {type(exc).__name__}: {exc}")
                ok = False
            times.append(clock() - t0)
            failed += not ok
        return {"times": times, "failed": failed, "attempted": len(self.ops), "wall": time.perf_counter() - started,
                "serial_peak_rss_mb": serial_peak_rss_mb, "kernel_s": statistics.median(kernel)}

    @staticmethod
    def _empty(path: Path) -> None:
        """Start a build, or a round's features, on an empty output
        directory, as a fresh run would. Files deleted within seconds of
        being written are never written back, so the disk stays out of the
        measurement."""
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)

    def run_for(self, seconds: float, min_rounds: int, between: Callable[[], None] | None = None) -> list[dict]:
        """Whole rounds for ``seconds``: no round starts that would likely
        end after them, unless fewer than ``min_rounds`` have run. Calls
        ``between`` before each round."""
        rounds = []
        started = time.perf_counter()
        while len(rounds) < min_rounds or time.perf_counter() - started + rounds[-1]["wall"] <= seconds:
            if between:
                between()
            rounds.append(self.round())
        return rounds

    def throughputs(self, rounds: list[dict]) -> dict[str, float]:
        """Each metric's work over the sum of its operations' median times.

        Each round's times are first scaled to the reference host's speed
        (``hostspeed``). Every operation's time is then its median over the
        rounds, which sheds the bursts of a shared machine; the sum pools
        the operations of one metric as a single pass over its part of the
        corpus."""
        work: dict[str, float] = {}
        seconds: dict[str, float] = {}
        for i, op in enumerate(self.ops):
            if op.metric:
                work[op.metric] = work.get(op.metric, 0.0) + op.work
                seconds[op.metric] = seconds.get(op.metric, 0.0) + statistics.median(r["times"][i] * speed(r) for r in rounds)
        return {m: work[m] / seconds[m] for m in THROUGHPUTS}

    # ------------------------------------------------------------ checks

    def verify(self, rng: np.random.Generator) -> list[str]:
        """Independent checks of the last round's outputs; returns failures."""
        problems = list(dict.fromkeys(self.errors))
        for check in (self._check_augment, self._check_frontend, self._check_decode):
            try:
                check(rng)
            except (oracle.CheckError, OSError, KeyError, ValueError) as exc:  # a missing or malformed output fails too
                problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
        return problems

    def _check_augment(self, rng) -> None:
        sources = oracle.read_jsonl(self.corpus.augment.manifest)
        ltr_variants = [("", None, None, 1.0)] + [(f"-ltr{ms:g}", "ltr", ms, 1.0) for ms in LTR_MS]
        speed_variants = [("" if f == 1.0 else f"-sp{f:g}", "speed", f, 1.0 / f) for f in SPEED_FACTORS]
        digests = {}
        for tag, variants in (("build_set", ltr_variants), ("build_speed_set", speed_variants)):
            for label in ("p1", "pN"):
                out = self.work / f"{tag}.{label}"
                lines = oracle.read_jsonl(out / "out.jsonl")
                oracle.check_manifest(lines, sources, variants)
                for line in lines:
                    line["audio_path"] = line["audio_path"].replace(str(out), "<out>")
                digests[(tag, label, "out.jsonl")] = json.dumps(lines)
                for wav in sorted(out.glob("*.wav")):
                    digests[(tag, label, wav.name)] = hashlib.sha256(wav.read_bytes()).hexdigest()
            for key in [k for k in digests if k[:2] == (tag, "p1")]:
                oracle.require(digests.get((tag, "pN", key[2])) == digests[key], f"{tag} {key[2]} differs between p1 and p{self.nproc}")
            oracle.require(len([k for k in digests if k[:2] == (tag, "pN")]) == len([k for k in digests if k[:2] == (tag, "p1")]), f"{tag}: p1 and pN wrote different file sets")
        for u in self.corpus.augment.utts:
            source, rate = oracle.wav_mono(Path(u.path).read_bytes())
            for ms in LTR_MS:
                oracle.check_ltr(source, rate, (self.work / "build_set.p1" / f"{u.utt_id}-ltr{ms:g}.wav").read_bytes(), ms)
            for f in SPEED_FACTORS:
                if f != 1.0:
                    oracle.check_speed(source, rate, (self.work / "build_speed_set.p1" / f"{u.utt_id}-sp{f:g}.wav").read_bytes(), f)

    def _check_frontend(self, rng) -> None:
        feats = self.work / "feats"
        for u in self.corpus.frontend.utts:
            values = oracle.parse_matrix((feats / f"{u.utt_id}.fbk").read_bytes(), b"FBK1")
            expected = oracle.fbank_shape(u.samples, u.rate)
            oracle.require(values.shape == expected, f"{u.utt_id}: FBK1 shape {values.shape}, expected {expected}")
            oracle.check_mvn(values, u.utt_id)
            oracle.check_specaug(values, oracle.parse_matrix((feats / f"{u.utt_id}.sa.fbk").read_bytes(), b"FBK1"))
        tone_path, tone_hz = self.corpus.tone
        raw = feats / "tone.raw.fbk"
        code, _ = self.cli(["featurize", "--no-mvn", "--in", tone_path, "--out", str(raw)])
        oracle.require(code == 0, f"featurize --no-mvn on the tone exited {code}")
        oracle.check_tone_band(oracle.parse_matrix(raw.read_bytes(), b"FBK1"), 16000, tone_hz)
        sampled = self.corpus.analyze[int(rng.integers(0, len(self.corpus.analyze)))]
        for u in self.corpus.analyze:
            x, rate = oracle.wav_mono(Path(u.path).read_bytes())
            rows = oracle.parse_csv((feats / f"{u.utt_id}.boundary.csv").read_text())
            oracle.require([ms for ms, _ in rows] == [5.0 * k for k in range(1, 11)], f"{u.utt_id}: boundary sweep durations")
            for ms, value in rows:
                oracle.check_close(value, oracle.boundary_reference(x, rate, ms), 1e-8, f"{u.utt_id} boundary {ms:g} ms")
            rows = oracle.parse_csv((feats / f"{u.utt_id}.spectral-distance.csv").read_text())
            oracle.require(len(rows) == 10, f"{u.utt_id}: spectral-distance sweep has {len(rows)} rows")
            if u is sampled:
                for ms, value in [rows[i] for i in rng.choice(len(rows), size=3, replace=False)]:
                    oracle.check_close(value, oracle.spectral_reference(x, rate, ms), 1e-6, f"{u.utt_id} spectral distance {ms:g} ms")

    def _check_decode(self, rng) -> None:
        dset = self.corpus.decode
        for u in dset.utts:
            greedy, components, winner = self.results[("nbest", u.utt_id)]
            oracle.require(greedy == u.reference, f"{u.utt_id}: greedy decode is not the reference")
            entries = [(h, c, a, l) for h, (c, a, l) in zip(u.hyps, components)]
            best = oracle.fusion_argmax(entries, FUSION["ctc_weight"], FUSION["lm_weight"])
            oracle.require(winner == u.hyps[best], f"{u.utt_id}: fusion winner differs from the argmax")
            ref_index = u.hyps.index(u.reference)
            oracle.check_close(self.results[("score_ctc", u.utt_id)], -components[ref_index][0], 1e-11, f"{u.utt_id}: score ctc vs ctc_loss")
        sample = [dset.long[0]] + [dset.utts[i] for i in rng.choice(len(dset.utts), size=4, replace=False)]
        for u in sample:
            probs = oracle.parse_matrix(Path(u.grid_path).read_bytes(), b"PST1").astype(np.float64)
            k = int(rng.integers(0, len(u.hyps)))
            got = -self.results[("nbest", u.utt_id)][1][k][0]
            want = oracle.ctc_reference(probs, u.hyps[k])
            if math.isinf(want):
                oracle.require(math.isinf(got), f"{u.utt_id} hyp {k}: ctc_loss {got!r}, expected inf")
            else:
                oracle.check_close(got, want, 1e-9, f"{u.utt_id} hyp {k}: ctc_loss")
        for frames in (2, 3, 4):
            grid = rng.dirichlet(np.ones(3), size=frames)
            total = 0.0
            for length in range(frames + 1):
                for target in np.ndindex(*(2,) * length):
                    loss = self.lk.ctc_loss(grid, target)
                    total += 0.0 if math.isinf(loss) else math.exp(-loss)
            oracle.require(abs(total - 1.0) <= 1e-9, f"CTC probability over all targets of a {frames}-frame grid sums to {total!r}")
        for unit, utts in (("word", dset.short), ("char", dset.long)):
            split = str.split if unit == "word" else oracle.char_units
            pairs = [(split(u.text), split(tokens_to_text(self.results[("nbest", u.utt_id)][2]))) for u in utts]
            oracle.check_wer(self.results[("wer", unit)], pairs)
