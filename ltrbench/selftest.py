"""Self-test of the checkers: each must reject a deliberately wrong output.

Every case builds a correct output from the benchmark's own references,
confirms the checker accepts it, then damages it in one small way and
confirms the checker rejects it. A checker that accepts both shows a vacuous
check. Run directly (``python3 ltrbench/selftest.py``) or through
:func:`failures`, which ``run.py`` calls before every run.
"""

from __future__ import annotations

import itertools
import math
import struct
import sys

import numpy as np

import oracle
from corpus import encode_wav


def _float_wav(samples: np.ndarray, rate: int) -> bytes:
    return encode_wav(np.asarray(samples, dtype=np.float64)[:, None], rate, "float32")


def _ctc_enumerated(probs: np.ndarray, target: tuple[int, ...]) -> float:
    """-log of the summed probability of every frame path collapsing to target."""
    blank = probs.shape[1] - 1
    total = 0.0
    for path in itertools.product(range(probs.shape[1]), repeat=probs.shape[0]):
        collapsed = [label for i, label in enumerate(path) if label != blank and (i == 0 or label != path[i - 1])]
        if tuple(collapsed) == target:
            total += math.prod(probs[t, label] for t, label in enumerate(path))
    return -math.log(total)


def _cases(rng: np.random.Generator):
    rate = 16000
    x = np.round(rng.uniform(-0.9, 0.9, 4000) * 32768.0) / 32768.0
    seg = oracle.ms_to_samples(5.0, rate)

    good = oracle.ltr_reference(x, seg)
    bad = good.copy()
    bad[seg : 2 * seg] = x[seg : 2 * seg]  # one segment left unreversed
    yield "LTR reversal", lambda y: oracle.check_ltr(x, rate, _float_wav(y, rate), 5.0), good, bad

    n_out = oracle.speed_length(len(x), 1.1)
    good = np.array([x[int(p)] + (p - int(p)) * (x[min(int(p) + 1, len(x) - 1)] - x[int(p)]) for p in np.arange(n_out) * 1.1])
    bad = good.copy()
    bad[1234] += 1e-5
    yield "speed interpolation", lambda y: oracle.check_speed(x, rate, _float_wav(y, rate), 1.1), good, bad
    yield "speed length", lambda y: oracle.check_speed(x, rate, _float_wav(y, rate), 1.1), good, good[:-1]

    sources = [{"utt_id": "u1", "text": "a b", "duration_s": 2.0}]
    variants = [("", "speed", 1.0, 1.0), ("-sp1.1", "speed", 1.1, 1 / 1.1)]
    good = [{"utt_id": "u1", "text": "a b", "duration_s": 2.0, "augment": {"type": "speed", "param": 1.0}},
            {"utt_id": "u1-sp1.1", "text": "a b", "duration_s": 2.0 / 1.1, "augment": {"type": "speed", "param": 1.1}}]
    bad = [dict(good[0]), dict(good[1], duration_s=2.0)]
    yield "manifest durations", lambda m: oracle.check_manifest(m, sources, variants), good, bad

    feats = rng.standard_normal((200, 80))
    good = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    yield "MVN statistics", lambda v: oracle.check_mvn(v, "selftest"), good, good * 1.01

    masked = good.copy()
    masked[:, 10:30] = 0.0
    masked[50:58, :] = 0.0
    too_wide = good.copy()
    too_wide[:, 10:70] = 0.0  # wider than two 27-bin masks
    yield "specaug mask width", lambda v: oracle.check_specaug(good, v), masked, too_wide
    stray = masked.copy()
    stray[100, 5] = 0.0  # a lone zeroed cell
    yield "specaug whole rows and columns", lambda v: oracle.check_specaug(good, v), masked, stray

    tone = 0.5 * np.sin(2.0 * np.pi * 1000.0 * np.arange(8000) / rate)
    raw = oracle.log_mel(tone, rate)
    yield "tone band", lambda v: oracle.check_tone_band(v, rate, 1000.0), raw, raw[:, ::-1]

    want = oracle.boundary_reference(x, rate, 5.0)
    yield "boundary value", lambda v: oracle.check_close(v, want, 1e-8, "boundary"), want, want * (1 + 1e-6)

    probs = rng.dirichlet(np.ones(4), size=12)
    loss = oracle.ctc_reference(probs, (0, 1, 1, 2))
    yield "CTC loss", lambda v: oracle.check_close(v, loss, 1e-9, "ctc"), loss, loss + 1e-6
    tiny = probs[:5]
    enumerated = _ctc_enumerated(tiny, (0, 1, 1))
    yield "CTC oracle vs path enumeration", lambda v: oracle.check_close(v, enumerated, 1e-12, "ctc oracle"), oracle.ctc_reference(tiny, (0, 1, 1)), enumerated * (1 + 1e-9)

    winner = oracle.fusion_argmax([((0,), -1.0, -1.0, -1.0), ((1,), -2.0, -0.5, -1.0)], 0.3, 0.5)
    yield "fusion argmax", lambda w: oracle.require(w == 1, "argmax"), winner, 1 - winner

    ref, hyp = "the cat sat on the mat".split(), "the hat sat on mat".split()
    errors = oracle.edit_distance(ref, hyp)
    report = {"substitutions": 1, "insertions": 0, "deletions": 1, "hits": 4, "ref_len": 6, "error_rate": errors / 6}
    off_by_one = dict(report, deletions=2, hits=3)  # one edit too many, H+S+D still 6
    yield "wer counts", lambda r: oracle.check_wer(r, [(ref, hyp)]), report, off_by_one
    yield "wer H+S+D", lambda r: oracle.check_wer(r, [(ref, hyp)]), report, dict(report, hits=5)

    header = struct.pack("<II", 2, 2)
    yield "matrix size", lambda b: oracle.parse_matrix(b, b"FBK1"), b"FBK1" + header + bytes(16), b"FBK1" + header + bytes(12)


def failures() -> list[str]:
    problems = []
    for name, check, good, bad in _cases(np.random.default_rng(5)):
        try:
            check(good)
        except oracle.CheckError as exc:
            problems.append(f"{name}: rejected a correct output ({exc})")
            continue
        try:
            check(bad)
        except oracle.CheckError:
            continue
        problems.append(f"{name}: accepted a wrong output")
    return problems


if __name__ == "__main__":
    found = failures()
    for line in found:
        print(line)
    print("checker self-test:", "FAILED" if found else "every checker rejected its wrong output")
    sys.exit(1 if found else 0)
