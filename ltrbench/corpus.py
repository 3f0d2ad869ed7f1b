"""Seeded synthetic corpus: audio with manifests, PST1 posterior grids with
N-best lists, TRN references, and the two fault-probe inputs.

The make-up of every set is a fixed list of shapes (duration, sample rate,
channels, codec; transcript length, grid length, N-best size) in a fixed
order. The seed draws the contents (waveforms, words, grids, N-best edits,
attention and LM tables), never the shapes or their order, so every seed
asks for the same work. Files are written by
the benchmark's own encoders; ltrkit only ever reads them.
"""

from __future__ import annotations

import json
import os
import string
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import encode_matrix

LETTERS = tuple(string.ascii_lowercase)
SEPARATOR = "_"
LABELS = LETTERS + (SEPARATOR,)  # grid columns 0..26; the blank is column 27
BLANK = len(LABELS)


@dataclass(frozen=True)
class Utterance:
    utt_id: str
    path: str
    text: str
    duration_s: float
    rate: int
    samples: int


@dataclass
class AudioSet:
    utts: list[Utterance]
    manifest: str

    @property
    def audio_s(self) -> float:
        return sum(u.duration_s for u in self.utts)


@dataclass
class DecodeUtt:
    utt_id: str
    grid_path: str
    frames: int
    reference: tuple[int, ...]
    hyps: list[tuple[int, ...]]
    attention: list[np.ndarray]
    lm_table: dict

    @property
    def text(self) -> str:
        return tokens_to_text(self.reference)


@dataclass
class DecodeSet:
    short: list[DecodeUtt]
    long: list[DecodeUtt]

    @property
    def utts(self) -> list[DecodeUtt]:
        return self.short + self.long


def tokens_to_text(tokens) -> str:
    return " ".join("".join(LABELS[t] for t in tokens).split(SEPARATOR)).strip()


# ---------------------------------------------------------------- shapes


def full_audio_shapes() -> list[tuple[float, int, int, str]]:
    """50 utterances from 1 s to 40 s; one in five at 8 kHz, one in four
    stereo, one in four float32. The longest are above 4 MiB as float64
    (524288 samples), the shortest far inside it; all together hold about
    14.9 M samples, about 114 MiB as float64."""
    shapes = []
    for i, duration in enumerate(np.linspace(1.0, 40.0, 50)):
        rate = 8000 if i % 5 == 2 else 16000
        channels = 2 if i % 4 == 3 else 1
        codec = "float32" if i % 4 == 1 else "pcm16"
        shapes.append((round(float(duration), 3), rate, channels, codec))
    return shapes


MINI_AUDIO_SHAPES = [(3.0, 16000, 1, "pcm16"), (7.0, 8000, 2, "pcm16"), (12.0, 16000, 1, "float32"), (36.0, 16000, 2, "pcm16")]
# (chars in the reference, frames per reference token, N-best size)
SHORT_SHAPES = [(c, r, n) for c, r, n in zip([16, 24, 32, 44, 56, 70, 86, 104] * 6, [1.2, 1.5, 1.8, 2.2, 2.6, 3.0] * 8, [3, 4, 6, 8, 10, 12] * 8)]
LONG_SHAPES = [(c, r, n) for c, r, n in zip([160, 200, 240, 280, 320, 360], [1.2, 1.5, 2.0] * 2, [2, 3, 4] * 2)]
MINI_SHORT_SHAPES = SHORT_SHAPES[:4]
MINI_LONG_SHAPES = LONG_SHAPES[:1]
ANALYZE_RANKS = (3, 17, 29, 41)  # the fixed analyze subset of the full audio set, by duration rank


def fixed_order(n: int) -> np.ndarray:
    """The record order of a set: shuffled, so long and short records mix in
    the thread pool, but the same for every seed, so that every seed makes
    the same sequence of allocations and the same peak memory."""
    return np.random.default_rng(0).permutation(n)


# ---------------------------------------------------------------- audio


def write_durably(path: Path, data: bytes) -> None:
    """Write and fsync, so that no write-back of the corpus overlaps the
    timed rounds."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def encode_wav(channels_data: np.ndarray, rate: int, codec: str) -> bytes:
    """``channels_data`` is (frames, channels) in [-1, 1]."""
    if codec == "pcm16":
        payload = np.clip(np.rint(channels_data * 32767.0), -32768, 32767).astype("<i2").tobytes()
        tag, bits = 1, 16
    else:
        payload = channels_data.astype("<f4").tobytes()
        tag, bits = 3, 32
    channels = channels_data.shape[1]
    align = channels * bits // 8
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * align, align, bits)
    return b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(payload)) + payload


def synth_speech(rng: np.random.Generator, n: int, rate: int) -> np.ndarray:
    """Syllable-like stretches: voiced harmonic sound with a drifting pitch,
    noise bursts, and near-silence, each under a smooth envelope."""
    out = np.empty(n)
    pos = 0
    while pos < n:
        length = min(n - pos, int(rng.uniform(0.06, 0.3) * rate))
        kind = rng.choice(3, p=(0.6, 0.25, 0.15))
        env = np.sin(np.linspace(0.0, np.pi, length)) ** 2 * rng.uniform(0.2, 0.8)
        if kind == 0:
            f0 = rng.uniform(90.0, 260.0) * (1.0 + np.linspace(0.0, rng.uniform(-0.15, 0.15), length))
            phase = 2.0 * np.pi * np.cumsum(f0) / rate
            voiced = np.zeros(length)
            for k in range(1, 7):
                if k * f0[0] < 0.45 * rate:
                    voiced += rng.uniform(0.2, 1.0) / k * np.sin(k * phase)
            seg = env * voiced / 2.0
        elif kind == 1:
            seg = env * rng.standard_normal(length) * 0.25
        else:
            seg = rng.standard_normal(length) * 1e-3
        out[pos : pos + length] = seg
        pos += length
    return np.clip(out, -0.95, 0.95)


def make_audio_set(root: Path, name: str, shapes, rng: np.random.Generator, lexicon: list[str]) -> AudioSet:
    directory = root / "audio" / name
    directory.mkdir(parents=True, exist_ok=True)
    utts = []
    for k in fixed_order(len(shapes)):
        duration, rate, channels, codec = shapes[k]
        n = int(round(duration * rate * rng.uniform(0.99, 1.01)))
        mono = synth_speech(rng, n, rate)
        data = mono[:, None] if channels == 1 else np.stack([mono, 0.8 * mono + 0.01 * rng.standard_normal(n)], axis=1)
        utt_id = f"{name}{k:03d}"
        path = directory / f"{utt_id}.wav"
        write_durably(path, encode_wav(data, rate, codec))
        words = rng.choice(lexicon, size=max(2, int(duration * 2.5)))
        utts.append(Utterance(utt_id, str(path), " ".join(words), n / rate, rate, n))
    manifest = root / f"{name}.jsonl"
    write_manifest(manifest, utts)
    return AudioSet(utts, str(manifest))


def write_manifest(path: Path, utts: list[Utterance]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for u in utts:
            handle.write(json.dumps({"utt_id": u.utt_id, "audio_path": u.path, "text": u.text, "duration_s": u.duration_s}) + "\n")


def make_tone(root: Path, rng: np.random.Generator) -> tuple[str, float]:
    tone_hz = float(rng.uniform(300.0, 3500.0))
    rate = 16000
    t = np.arange(2 * rate) / rate
    path = root / "tone.wav"
    path.write_bytes(encode_wav((0.5 * np.sin(2.0 * np.pi * tone_hz * t))[:, None], rate, "pcm16"))
    return str(path), tone_hz


# ---------------------------------------------------------------- decode


def lexicon_words(rng: np.random.Generator, count: int = 400) -> list[str]:
    return ["".join(rng.choice(LETTERS, size=int(rng.integers(2, 8)))) for _ in range(count)]


WORD_LENGTHS = (4, 6, 3, 5, 2, 7)


def reference_tokens(rng: np.random.Generator, chars: int) -> tuple[int, ...]:
    """Exactly ``chars`` letters split into words of 2 to 7 letters.

    The split depends on ``chars`` alone and the seed only orders the words
    and picks their letters, so a shape has the same number of words, and of
    tokens, under every seed. When the seed drew the split, the word count
    of ``augment``'s four small ``wer --unit word`` references moved with
    the seed, and so did their throughput, which per-call overhead bounds:
    12-18% quartile spread over ten seeds."""
    lengths = []
    left = chars
    while left > 0:
        take = left if left <= 7 else min(WORD_LENGTHS[len(lengths) % len(WORD_LENGTHS)], left - 2)
        lengths.append(take)
        left -= take
    tokens: list[int] = []
    for length in rng.permutation(lengths):
        if tokens:
            tokens.append(LABELS.index(SEPARATOR))
        tokens.extend(int(v) for v in rng.integers(0, len(LETTERS), size=length))
    return tuple(tokens)


def peaky_grid(rng: np.random.Generator, reference: tuple[int, ...], frames: int) -> np.ndarray:
    """A (frames, 28) float32-valued grid whose per-frame argmax path
    collapses to ``reference``; every entry is positive."""
    gaps_min = [0] + [1 if a == b else 0 for a, b in zip(reference, reference[1:])] + [0]
    minimum = len(reference) + sum(gaps_min)
    extra = rng.multinomial(frames - minimum, np.full(2 * len(reference) + 1, 1.0 / (2 * len(reference) + 1)))
    path = []
    for i, token in enumerate(reference):
        path += [BLANK] * (gaps_min[i] + int(extra[2 * i]))
        path += [token] * (1 + int(extra[2 * i + 1]))
    path += [BLANK] * int(extra[-1])
    path = np.asarray(path)
    width = BLANK + 1
    rest = rng.dirichlet(np.full(width, 0.3), size=frames)
    rest[np.arange(frames), path] = 0.0
    rest /= rest.sum(axis=1, keepdims=True)
    peak = rng.uniform(0.55, 0.95, size=frames)
    probs = np.maximum(rest * (1.0 - peak)[:, None], 1e-7).astype(np.float32).astype(np.float64)
    probs[np.arange(frames), path] = 0.0
    probs[np.arange(frames), path] = (1.0 - probs.sum(axis=1)).astype(np.float32)
    return probs


def edit(rng: np.random.Generator, tokens: tuple[int, ...]) -> tuple[int, ...]:
    out = list(tokens)
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(out)))
        kind = int(rng.integers(0, 3))
        letter = int(rng.integers(0, len(LETTERS)))
        if kind == 0:
            out[i] = letter
        elif kind == 1 and len(out) > 1:
            del out[i]
        else:
            out.insert(i, letter)
    return tuple(out)


def step_probs(rng: np.random.Generator, hyp: tuple[int, ...]) -> np.ndarray:
    rows = rng.dirichlet(np.full(len(LABELS), 0.5), size=len(hyp))
    peak = rng.uniform(0.3, 0.9, size=len(hyp))
    rows *= (1.0 - peak)[:, None]
    rows[np.arange(len(hyp)), hyp] += peak
    return rows / rows.sum(axis=1, keepdims=True)


def make_decode_utt(root: Path, utt_id: str, shape, rng: np.random.Generator) -> DecodeUtt:
    chars, ratio, nbest = shape
    reference = reference_tokens(rng, chars)
    frames = int(round(len(reference) * ratio))
    probs = peaky_grid(rng, reference, frames)
    path = root / "grids" / f"{utt_id}.pst"
    write_durably(path, encode_matrix(probs, b"PST1"))
    hyps = {reference}
    while len(hyps) < nbest:
        hyps.add(edit(rng, reference))
    hyps = sorted(hyps)
    hyps = [hyps[i] for i in rng.permutation(len(hyps))]
    attention = [step_probs(rng, h) for h in hyps]
    in_table = [h for h in hyps if rng.random() < 0.7]
    mass = rng.dirichlet(np.ones(len(in_table) + 1)) * 0.9 if in_table else []
    table = {h: float(p) for h, p in zip(in_table, mass)}
    return DecodeUtt(utt_id, str(path), frames, reference, hyps, attention, table)


def make_decode_set(root: Path, name: str, short_shapes, long_shapes, rng: np.random.Generator) -> DecodeSet:
    (root / "grids").mkdir(parents=True, exist_ok=True)
    short = [make_decode_utt(root, f"{name}s{k:03d}", short_shapes[k], rng) for k in fixed_order(len(short_shapes))]
    long = [make_decode_utt(root, f"{name}l{k:03d}", long_shapes[k], rng) for k in fixed_order(len(long_shapes))]
    return DecodeSet(short, long)


def write_trn(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for utt_id, text in rows:
            handle.write(f"{text} ({utt_id})\n")


def make_probes(root: Path) -> dict[str, str]:
    """Inputs of the two known-fault probes; they do not depend on the seed."""
    tie = root / "probe_tie.jsonl"
    line = {"log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0}
    tie.write_text(json.dumps({"tokens": ["a"], **line}) + "\n" + json.dumps({"tokens": [1], **line}) + "\n")
    nan_grid = root / "probe_nan.pst"
    nan_grid.write_bytes(encode_matrix(np.array([[0.5, 0.25, 0.25], [np.nan, 0.5, 0.5]]), b"PST1"))
    return {"tie": str(tie), "nan_grid": str(nan_grid)}


@dataclass
class Corpus:
    """Everything one workload reads. The workload's own part is full size;
    the parts it shares with the other workloads are small."""

    augment: AudioSet
    frontend: AudioSet
    analyze: list[Utterance]
    decode: DecodeSet
    tone: tuple[str, float]
    probes: dict[str, str]
    tiny_manifest: str


def generate(root: str, seed: int, workload: str) -> Corpus:
    root_path = Path(root)
    rng = np.random.default_rng([seed, 7411])
    lexicon = lexicon_words(rng)
    mini = make_audio_set(root_path, "mini", MINI_AUDIO_SHAPES, rng, lexicon)
    full = make_audio_set(root_path, "full", full_audio_shapes(), rng, lexicon) if workload in ("augment", "frontend") else None
    if workload == "decode":
        decode = make_decode_set(root_path, "dec", SHORT_SHAPES, LONG_SHAPES, rng)
    else:
        decode = make_decode_set(root_path, "minidec", MINI_SHORT_SHAPES, MINI_LONG_SHAPES, rng)
    if workload == "frontend":
        analyze = [u for u in full.utts if int(u.utt_id[-3:]) in ANALYZE_RANKS]
    else:
        analyze = [min(mini.utts, key=lambda u: u.duration_s)]
    tiny = root_path / "tiny.jsonl"
    write_manifest(tiny, [min(mini.utts, key=lambda u: u.duration_s)])
    return Corpus(
        augment=full if workload == "augment" else mini,
        frontend=full if workload == "frontend" else mini,
        analyze=sorted(analyze, key=lambda u: u.utt_id),
        decode=decode,
        tone=make_tone(root_path, rng),
        probes=make_probes(root_path),
        tiny_manifest=str(tiny),
    )
