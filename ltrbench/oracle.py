"""Reference computations made apart from ltrkit, and the checkers built on them.

Nothing in this module imports ltrkit. WAV and matrix files are parsed from
their bytes, and every expected value is recomputed from its definition:
segment reversal from the half-up ms-to-samples rule, linear interpolation
sample by sample, log-mel features from the textbook recipe, the CTC forward
recursion as scalar log-space Python, and edit distance with two rows.

Every checker raises :class:`CheckError` naming what disagreed.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from typing import Sequence

import numpy as np

PCM16, FLOAT32 = 1, 3


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- containers


def parse_wav(data: bytes) -> tuple[np.ndarray, int, int]:
    """(frames x channels raw array, sample rate, format tag) of a WAV file."""
    require(len(data) >= 12 and data[:4] == b"RIFF" and data[8:12] == b"WAVE", "not a RIFF/WAVE file")
    fmt = body = None
    pos = 12
    while pos + 8 <= len(data):
        chunk, size = data[pos : pos + 4], int.from_bytes(data[pos + 4 : pos + 8], "little")
        if chunk == b"fmt ":
            fmt = data[pos + 8 : pos + 8 + size]
        elif chunk == b"data":
            body = data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    require(fmt is not None and body is not None, "WAV lacks a fmt or data chunk")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    require((tag, bits) in ((PCM16, 16), (FLOAT32, 32)), f"unexpected codec tag={tag} bits={bits}")
    require(block_align == channels * bits // 8 and byte_rate == rate * block_align, "inconsistent fmt chunk")
    raw = np.frombuffer(body, dtype="<i2" if tag == PCM16 else "<f4")
    require(raw.size % channels == 0, "data chunk is not a whole number of frames")
    return raw.reshape(-1, channels), rate, tag


def wav_mono(data: bytes) -> tuple[np.ndarray, int]:
    """Mono float64 samples as the WAV contract defines them: PCM-16 ``v`` is
    ``v / 32768``, channels are averaged, values are clipped to [-1, 1]."""
    raw, rate, tag = parse_wav(data)
    values = raw.astype(np.float64)
    if tag == PCM16:
        values = values / 32768.0
    mono = values[:, 0] if values.shape[1] == 1 else values.sum(axis=1) / values.shape[1]
    return np.clip(mono, -1.0, 1.0), rate


def parse_matrix(data: bytes, magic: bytes) -> np.ndarray:
    """Float32 (rows, cols) matrix of an FBK1/PST1 container."""
    require(data[:4] == magic, f"expected magic {magic!r}, found {data[:4]!r}")
    rows, cols = struct.unpack("<II", data[4:12])
    require(len(data) == 12 + 4 * rows * cols, f"size {len(data)} does not fit {rows}x{cols}")
    return np.frombuffer(data, dtype="<f4", offset=12).reshape(rows, cols)


def encode_matrix(values: np.ndarray, magic: bytes) -> bytes:
    values = np.asarray(values, dtype="<f4")
    return magic + struct.pack("<II", *values.shape) + values.tobytes()


# ---------------------------------------------------------------- audio transforms


def ms_to_samples(ms: float, rate: int) -> int:
    """Half-up rounding of ``ms * rate / 1000``, in exact rational arithmetic."""
    exact = Fraction(str(ms)) * rate / 1000
    return max(1, math.floor(exact + Fraction(1, 2)))


def ltr_reference(x: np.ndarray, segment: int) -> np.ndarray:
    out = np.empty_like(x)
    for start in range(0, len(x), segment):
        out[start : start + segment] = x[start : start + segment][::-1]
    return out


def check_ltr(source: np.ndarray, rate: int, output_wav: bytes, segment_ms: float) -> None:
    raw, out_rate, tag = parse_wav(output_wav)
    require(tag == FLOAT32 and raw.shape[1] == 1 and out_rate == rate, "LTR output is not mono float32 at the source rate")
    expected = ltr_reference(source, ms_to_samples(segment_ms, rate)).astype("<f4")
    require(raw.shape[0] == expected.size, f"LTR output has {raw.shape[0]} samples, expected {expected.size}")
    bad = np.flatnonzero(raw[:, 0].view("<u4") != expected.view("<u4"))
    require(bad.size == 0, f"LTR {segment_ms:g} ms output differs from per-segment reversal at {bad.size} samples")


def speed_length(n: int, factor: float) -> int:
    return math.floor(n / factor + 0.5)


def interp_reference(x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Linear interpolation of ``x`` at fractional positions, held at the last sample."""
    k = np.minimum(np.floor(positions).astype(np.int64), len(x) - 1)
    nxt = np.minimum(k + 1, len(x) - 1)
    frac = positions - k
    return x[k] * (1.0 - frac) + x[nxt] * frac


def check_speed(source: np.ndarray, rate: int, output_wav: bytes, factor: float) -> None:
    raw, out_rate, tag = parse_wav(output_wav)
    require(tag == FLOAT32 and raw.shape[1] == 1 and out_rate == rate, "speed output is not mono float32 at the source rate")
    out = raw[:, 0].astype(np.float64)
    expected_len = speed_length(len(source), factor)
    require(out.size == expected_len, f"speed {factor:g} output has {out.size} samples, expected round(n/f)={expected_len}")
    want = interp_reference(source, np.arange(expected_len) * factor)
    worst = int(np.argmax(np.abs(out - want)))
    require(abs(out[worst] - want[worst]) <= 1e-6, f"speed {factor:g} sample {worst} is {out[worst]!r}, interpolation gives {want[worst]!r}")


def check_manifest(lines: list[dict], sources: list[dict], variants: list[tuple[str, str, float, float]]) -> None:
    """``variants`` holds (id suffix or '' for the source, tag type, param, duration scale)."""
    require(len(lines) == len(sources) * len(variants), f"{len(lines)} records for {len(sources)} sources")
    for k, src in enumerate(sources):
        for j, (suffix, tag, param, scale) in enumerate(variants):
            got = lines[k * len(variants) + j]
            require(got["utt_id"] == src["utt_id"] + suffix, f"record id {got['utt_id']!r}, expected {src['utt_id'] + suffix!r}")
            require(got["text"] == src["text"], f"{got['utt_id']}: transcript changed")
            require(abs(got["duration_s"] - src["duration_s"] * scale) <= 1e-9 * src["duration_s"], f"{got['utt_id']}: duration {got['duration_s']}")
            if tag is None:
                require("augment" not in got, f"{got['utt_id']}: source record gained a tag")
            else:
                require(got.get("augment") == {"type": tag, "param": param}, f"{got['utt_id']}: lineage tag {got.get('augment')}")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------- features


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_edges_hz(dims: int, rate: int) -> np.ndarray:
    mels = np.linspace(0.0, float(hz_to_mel(rate / 2.0)), dims + 2)
    return 700.0 * (10.0 ** (mels / 2595.0) - 1.0)


def log_mel(x: np.ndarray, rate: int, dims: int = 80) -> np.ndarray:
    """25 ms Hamming frames every 10 ms, 0.97 pre-emphasis inside each frame,
    magnitude spectrum at the next power of two, triangular mel filters from
    0 Hz to Nyquist, natural log of energies floored at 1e-10."""
    win, hop = ms_to_samples(25.0, rate), ms_to_samples(10.0, rate)
    frames = 1 + (len(x) - win) // hop
    idx = hop * np.arange(frames)[:, None] + np.arange(win)[None, :]
    f = x[idx]
    pre = np.concatenate([f[:, :1] * 0.03, f[:, 1:] - 0.97 * f[:, :-1]], axis=1)
    hamming = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(win) / (win - 1))
    nfft = 1
    while nfft < win:
        nfft *= 2
    magnitude = np.abs(np.fft.rfft(pre * hamming, nfft))
    edges = mel_edges_hz(dims, rate)
    freqs = np.arange(nfft // 2 + 1) * rate / nfft
    filters = np.zeros((dims, freqs.size))
    for b in range(dims):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        filters[b] = np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo), (hi - freqs) / (hi - mid)))
    return np.log(np.maximum(magnitude @ filters.T, 1e-10))


def fbank_shape(n: int, rate: int, dims: int = 80) -> tuple[int, int]:
    win, hop = ms_to_samples(25.0, rate), ms_to_samples(10.0, rate)
    return 1 + (n - win) // hop, dims


def check_mvn(values: np.ndarray, label: str) -> None:
    v = values.astype(np.float64)
    mean, std = v.mean(axis=0), v.std(axis=0)
    require(np.all(np.abs(mean) <= 1e-4), f"{label}: column mean up to {np.abs(mean).max():.3g} after MVN")
    constant = np.all(v == 0.0, axis=0)
    require(np.all(np.abs(std[~constant] - 1.0) <= 1e-3), f"{label}: column std off 1 by up to {np.abs(std[~constant] - 1).max():.3g}")


def check_tone_band(raw_fbank: np.ndarray, rate: int, tone_hz: float) -> None:
    band = int(np.argmax(raw_fbank.astype(np.float64).mean(axis=0)))
    edges = mel_edges_hz(raw_fbank.shape[1], rate)
    require(edges[band] < tone_hz < edges[band + 2], f"{tone_hz:.1f} Hz tone peaks in band {band} spanning {edges[band]:.1f}-{edges[band + 2]:.1f} Hz")


def _coverable(indices: np.ndarray, masks: int, width: int) -> bool:
    """Whether ``masks`` intervals of at most ``width`` positions cover ``indices``."""
    remaining = sorted(int(i) for i in indices)
    for _ in range(masks):
        if not remaining:
            break
        start = remaining[0]
        remaining = [i for i in remaining if i >= start + width]
    return not remaining


def check_specaug(before: np.ndarray, after: np.ndarray, freq_width: int = 27, time_fraction: float = 0.05) -> None:
    require(before.shape == after.shape, f"specaug changed the shape {before.shape} -> {after.shape}")
    changed = before != after
    require(np.all(after[changed] == 0.0), "specaug changed cells to values other than 0")
    zero_rows = np.all(after == 0.0, axis=1)
    zero_cols = np.all(after == 0.0, axis=0)
    require(np.all(zero_rows[:, None] | zero_cols[None, :] | ~changed), "specaug zeroed cells outside whole rows and columns")
    masked_cols = np.flatnonzero(zero_cols & changed.any(axis=0))
    masked_rows = np.flatnonzero(zero_rows & changed.any(axis=1))
    require(_coverable(masked_cols, 2, min(freq_width, after.shape[1])), f"frequency masks {masked_cols.tolist()} exceed two of width {freq_width}")
    max_rows = int(time_fraction * after.shape[0])
    require(_coverable(masked_rows, 2, max_rows), f"time masks over {masked_rows.size} rows exceed two of width {max_rows}")


def boundary_reference(x: np.ndarray, rate: int, segment_ms: float) -> float:
    seg = ms_to_samples(segment_ms, rate)
    y = ltr_reference(x, seg)
    starts = np.arange(seg, len(y), seg)
    return float(np.mean(np.abs(y[starts] - y[starts - 1])))


def spectral_reference(x: np.ndarray, rate: int, segment_ms: float) -> float:
    a = log_mel(x, rate)
    b = log_mel(ltr_reference(x, ms_to_samples(segment_ms, rate)), rate)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def parse_csv(text: str) -> list[tuple[float, float]]:
    lines = text.strip().splitlines()
    require(lines[:1] == ["segment_ms,value"], "analyze CSV lacks its header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def check_close(got: float, want: float, rel: float, label: str) -> None:
    require(abs(got - want) <= rel * abs(want), f"{label}: got {got!r}, expected {want!r} within {rel:g} relative")


# ---------------------------------------------------------------- scoring


def _lse(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def ctc_reference(probs: np.ndarray, target: Sequence[int]) -> float:
    """-log P(target | grid) by the scalar forward recursion in log space."""
    blank = probs.shape[1] - 1
    states = [blank]
    for token in target:
        states += [int(token), blank]
    logp = [[math.log(p) if p > 0.0 else -math.inf for p in row] for row in probs.tolist()]
    alpha = [-math.inf] * len(states)
    alpha[0] = logp[0][states[0]]
    if len(states) > 1:
        alpha[1] = logp[0][states[1]]
    skip = [s >= 2 and states[s] != blank and states[s] != states[s - 2] for s in range(len(states))]
    for row in logp[1:]:
        new = []
        for s, label in enumerate(states):
            a = alpha[s]
            if s >= 1:
                a = _lse(a, alpha[s - 1])
            if skip[s]:
                a = _lse(a, alpha[s - 2])
            new.append(a + row[label])
        alpha = new
    total = alpha[-1] if len(states) == 1 else _lse(alpha[-1], alpha[-2])
    return math.inf if total == -math.inf else -total


def fusion_argmax(components: Sequence[tuple[tuple, float, float, float]], ctc_weight: float, lm_weight: float) -> int:
    """Index of the best (tokens, log_p_ctc, log_p_att, log_p_lm) entry: highest
    fused score, then lexicographically smaller tokens, then earlier."""

    def term(weight: float, value: float) -> float:
        return 0.0 if weight == 0.0 else weight * value

    scored = [
        (-(term(ctc_weight, c) + term(1.0 - ctc_weight, a) + term(lm_weight, l)), tokens, i)
        for i, (tokens, c, a, l) in enumerate(components)
    ]
    return min(scored)[2]


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            current.append(min(previous[j - 1] + (r != h), previous[j] + 1, current[j - 1] + 1))
        previous = current
    return previous[-1]


def char_units(text: str) -> list[str]:
    return list("".join(text.split()))


def check_wer(report: dict, pairs: Sequence[tuple[list[str], list[str]]]) -> None:
    errors = sum(edit_distance(r, h) for r, h in pairs)
    ref_len = sum(len(r) for r, _ in pairs)
    s, i, d, h = (report[k] for k in ("substitutions", "insertions", "deletions", "hits"))
    require(report["ref_len"] == ref_len, f"wer ref_len {report['ref_len']}, expected {ref_len}")
    require(s + i + d == errors, f"wer counts S+I+D={s + i + d}, edit distance gives {errors}")
    require(h + s + d == ref_len, f"wer H+S+D={h + s + d} differs from ref_len {ref_len}")
    require(abs(report["error_rate"] - errors / ref_len) <= 1e-12, f"wer rate {report['error_rate']}")
