"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen (without ``-s`` they appear in pytest's captured output).
"""

import functools
import hashlib
import itertools
import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer, read_wav, write_wav
from ltrkit.cli import run
from ltrkit.dataset import SET_DURATIONS_MS, ManifestRecord, build_set, build_speed_set, save_manifest
from ltrkit.features import FeatureMatrix, boundary_discontinuity, fbank, mvn
from ltrkit.ltr import DEFAULT_DURATIONS_MS, reverse_segments, segment_samples
from ltrkit.metrics import align, corpus_rate
from ltrkit.perturb import DEFAULT_SPEED_FACTORS
from ltrkit.scoring import FusionWeights, Hypothesis, collapse, ctc_loss, ctc_loss_bruteforce, fused_score, mtl_loss, rescore_hypotheses


def criterion(number, label):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                detail = test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL - {label}")
                raise
            print(f"ACCEPTANCE {number} PASS - {label}" + (f" ({detail})" if detail else ""))

        return wrapper

    return decorate


@criterion(1, "LTR involution, length/energy/segment-multiset preservation")
def test_criterion_1_ltr_involution():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    rates = (8000, 16000, 44100)
    for _ in range(200):
        n = int(rng.integers(1, 100_001))
        rate = int(rates[rng.integers(0, 3)])
        buf = AudioBuffer(rng.uniform(-1.0, 1.0, n), rate)
        for duration_ms in DEFAULT_DURATIONS_MS:
            once = reverse_segments(buf, duration_ms)
            twice = reverse_segments(once, duration_ms)
            assert np.array_equal(twice.samples, buf.samples), "double application must be the identity, bit-exactly"
            assert len(once) == n and once.sample_rate_hz == rate

            seg = segment_samples(duration_ms, rate)
            full = (n // seg) * seg
            x, y = buf.samples, once.samples
            sorted_x = np.sort(x[:full].reshape(-1, seg), axis=1)
            sorted_y = np.sort(y[:full].reshape(-1, seg), axis=1)
            assert np.array_equal(sorted_x, sorted_y), "per-segment sample multisets must be preserved"
            assert np.array_equal(np.sort(x[full:]), np.sort(y[full:]))
            # identical multisets make these sums bitwise identical
            assert np.sort(x * x).sum() == np.sort(y * y).sum(), "energy must be preserved exactly"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds the 10s budget"
    return f"2000 cases in {elapsed:.1f}s"


@criterion(2, "CTC forward algorithm agrees with the path-enumeration oracle")
def test_criterion_2_ctc_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(515)
    checked = infeasible = 0
    for _ in range(500):
        frames = int(rng.integers(1, 9))
        num_tokens = int(rng.integers(1, 4))
        probs = rng.uniform(0.0, 1.0, size=(frames, num_tokens + 1))
        probs /= probs.sum(axis=1, keepdims=True)
        target = rng.integers(0, num_tokens, size=int(rng.integers(0, 5))).tolist()

        fast = ctc_loss(probs, target)
        slow = ctc_loss_bruteforce(probs, target)
        if math.isinf(slow):
            assert math.isinf(fast), "forward and oracle must agree on infeasibility"
            infeasible += 1
        else:
            assert fast == pytest.approx(slow, rel=1e-9)
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 500
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"
    return f"500 instances ({infeasible} infeasible) in {elapsed:.1f}s"


@criterion(3, "CTC losses partition the path space (sum of exp(-loss) is 1)")
def test_criterion_3_ctc_normalization():
    rng = np.random.default_rng(97)
    for _ in range(50):
        frames = int(rng.integers(1, 7))
        num_tokens = int(rng.integers(1, 3))
        probs = rng.uniform(0.0, 1.0, size=(frames, num_tokens + 1))
        probs /= probs.sum(axis=1, keepdims=True)
        sequences = {collapse(p, num_tokens) for p in itertools.product(range(num_tokens + 1), repeat=frames)}
        total = sum(math.exp(-ctc_loss(probs, seq)) for seq in sequences)
        assert total == pytest.approx(1.0, abs=1e-6)


@criterion(4, "training-set recipe shape: 3-fold LTR sets and 3-fold speed set")
def test_criterion_4_recipe_shape(tmp_path):
    rng = np.random.default_rng(7)
    manifest = []
    for i in range(20):
        n = int(rng.integers(800, 4800))
        path = tmp_path / f"utt{i:02d}.wav"
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, n), 16000), path, "float32")
        manifest.append(ManifestRecord(f"utt{i:02d}", str(path), f"words for {i}", n / 16000))
    source_lengths = {r.utt_id: len(read_wav(r.audio_path)) for r in manifest}
    source_texts = Counter(r.text for r in manifest)

    for set_id in range(1, 6):
        out = build_set(manifest, set_id, tmp_path / f"set{set_id}")
        assert len(out) == 60
        expected_durations = SET_DURATIONS_MS[set_id]
        ltr_records = [r for r in out if r.augment is not None]
        assert len(ltr_records) == 40
        assert {r.augment.param for r in ltr_records} == set(expected_durations)
        for record in ltr_records:
            source_id = record.utt_id.rsplit("-ltr", 1)[0]
            assert record.utt_id == f"{source_id}-ltr{record.augment.param:g}"
            assert len(read_wav(record.audio_path)) == source_lengths[source_id], "rendered files must keep the source length"
        assert Counter(r.text for r in out) == Counter({text: 3 * k for text, k in source_texts.items()})

    speed = build_speed_set(manifest, DEFAULT_SPEED_FACTORS, tmp_path / "speed")
    assert len(speed) == 60
    originals = {r.utt_id: r for r in manifest}
    for record in speed:
        factor = record.augment.param
        source_id = record.utt_id if factor == 1.0 else record.utt_id.rsplit("-sp", 1)[0]
        assert record.duration_s == pytest.approx(originals[source_id].duration_s / factor, rel=1e-9)
    return "sets 1-5 and speed set, 60 records each"


@criterion(5, "fusion equations: MTL endpoints, fused arithmetic, LM-shift invariance")
def test_criterion_5_fusion_equations():
    assert mtl_loss(3.25, 777.0, 1.0) == 3.25
    assert mtl_loss(777.0, 3.25, 0.0) == 3.25
    assert mtl_loss(math.inf, 3.25, 0.0) == 3.25
    assert mtl_loss(3.25, math.inf, 1.0) == 3.25

    rng = np.random.default_rng(55)
    for _ in range(100):
        ctc, att, lm = (-rng.exponential(3.0) for _ in range(3))
        alpha = float(rng.uniform(0, 1))
        beta = float(rng.uniform(0, 2))
        by_hand = alpha * ctc + (1 - alpha) * att + beta * lm
        got = fused_score(Hypothesis((0,), ctc, att, lm), FusionWeights(alpha, beta))
        assert got == pytest.approx(by_hand, abs=1e-12)

    for _ in range(100):
        weights = FusionWeights(float(rng.uniform(0, 1)), float(rng.uniform(0, 2)))
        hypotheses = [
            Hypothesis(
                tuple(rng.integers(0, 4, size=int(rng.integers(0, 5))).tolist()),
                float(-rng.exponential(2.0)),
                float(-rng.exponential(2.0)),
                float(-rng.exponential(2.0)),
            )
            for _ in range(int(rng.integers(1, 8)))
        ]
        shift = float(rng.uniform(-6, 6))
        shifted = [Hypothesis(h.tokens, h.log_p_ctc, h.log_p_att, h.log_p_lm + shift) for h in hypotheses]
        assert rescore_hypotheses(hypotheses, weights).tokens == rescore_hypotheses(shifted, weights).tokens


@criterion(6, "alignment totals match an independent edit-distance program")
def test_criterion_6_metrics_oracle():
    def reference_distance(a, b):
        prev = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            row = [i] + [0] * len(b)
            for j in range(1, len(b) + 1):
                row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
            prev = row
        return prev[len(b)]

    rng = np.random.default_rng(321)
    alphabet = "abcd"
    for _ in range(1000):
        ref = [alphabet[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 7)))]
        hyp = [alphabet[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 7)))]
        report = align(ref, hyp)
        assert report.total_errors == reference_distance(ref, hyp)
        assert report.hits + report.substitutions + report.deletions == len(ref)
        clean = align(ref, ref)
        assert clean.total_errors == 0 and clean.hits == len(ref)

    pairs = [(["t"] * 10, ["t"] * 9 + ["x"]), (["t"] * 10, ["t"] * 10), (["a", "b"], ["a"])]
    by_hand = (1 + 0 + 1) / (10 + 10 + 2)
    assert corpus_rate(pairs) == pytest.approx(by_hand, rel=1e-12)
    return "1000 random pairs"


@criterion(7, "front-end contracts: frame counts, MVN behavior, 440 Hz band")
def test_criterion_7_frontend():
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(400, 80_000))
        frames = fbank(AudioBuffer(np.zeros(n), 16000), dims=20).frames
        assert frames == 1 + (n - 400) // 160

    matrix = rng.normal(3.0, 9.0, size=(70, 16))
    once = mvn(FeatureMatrix(matrix)).values
    assert np.max(np.abs(mvn(FeatureMatrix(once)).values - once)) < 1e-6
    assert np.max(np.abs(mvn(FeatureMatrix(4.2 * matrix - 11.0)).values - once)) < 1e-6

    rate = 16000
    t = np.arange(rate) / rate
    sine = AudioBuffer(0.5 * np.sin(2 * np.pi * 440.0 * t), rate)
    spectrum = np.abs(np.fft.rfft(sine.samples[:8192]))
    dominant_hz = float(np.argmax(spectrum)) * rate / 8192
    assert abs(dominant_hz - 440.0) < 4.0

    edges = 700.0 * (10.0 ** (np.linspace(0.0, 2595.0 * math.log10(1 + 8000 / 700), 82) / 2595.0) - 1.0)
    containing = {band for band in range(80) if edges[band] < 440.0 < edges[band + 2]}
    winners = set(np.argmax(fbank(sine).values[1:-1], axis=1).tolist())
    assert winners <= containing, f"winning bands {winners} outside the 440 Hz bands {containing}"


def _corpus_for_pipeline(root: Path) -> Path:
    rng = np.random.default_rng(31)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(4):
        n = int(rng.integers(1600, 6400))
        path = root / f"utt{i}.wav"
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, n), 16000), path, "float32")
        records.append(ManifestRecord(f"utt{i}", str(path), f"sample text {i}", n / 16000))
    manifest = root / "manifest.jsonl"
    save_manifest(records, manifest)
    return manifest


def _run_pipeline(work: Path, manifest: Path, parallelism: int) -> dict[str, str]:
    """featurize + build-set + specaug with fixed seed; returns path -> sha256."""
    work.mkdir(parents=True, exist_ok=True)
    assert run(["build-set", "--set", "2", "--manifest", str(manifest), "--out-dir", str(work / "aug"),
                "--out-manifest", str(work / "aug.jsonl"), "--parallelism", str(parallelism)]) == 0
    for i in range(4):
        assert run(["featurize", "--in", str(manifest.parent / f"utt{i}.wav"), "--out", str(work / f"utt{i}.fbk")]) == 0
        assert run(["specaug", "--seed", "123", "--in", str(work / f"utt{i}.fbk"), "--out", str(work / f"utt{i}.masked.fbk")]) == 0
    return {
        str(path.relative_to(work)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file()
    }


@criterion(8, "pipeline determinism: repeated runs and parallelism 1 vs 8")
def test_criterion_8_determinism(tmp_path):
    import shutil

    manifest = _corpus_for_pipeline(tmp_path / "corpus")
    work = tmp_path / "work"

    first = _run_pipeline(work, manifest, parallelism=1)
    shutil.rmtree(work)
    second = _run_pipeline(work, manifest, parallelism=1)
    assert first == second, "identical runs must produce bit-identical artifacts"
    shutil.rmtree(work)
    parallel = _run_pipeline(work, manifest, parallelism=8)
    assert first == parallel, "parallelism must not change any artifact"
    return f"{len(first)} artifacts compared"


@criterion(9, "boundary-noise trend on a fixed speech-like chirp, with CSV report")
def test_criterion_9_boundary_trend(tmp_path):
    rate = 16000
    t = np.arange(2 * rate) / rate
    # pitch-like 120 Hz fundamental + formant-like 300->3000 Hz sweep + slow envelope
    sweep_phase = 2 * np.pi * (300 * t + (3000 - 300) / 4.0 * t * t)
    x = 0.55 * np.sin(2 * np.pi * 120 * t) + 0.25 * np.sin(sweep_phase)
    x *= 0.5 * (1 + 0.3 * np.cos(2 * np.pi * 1.5 * t - np.pi))
    chirp = AudioBuffer(x, rate)
    wav_path = tmp_path / "chirp.wav"
    write_wav(chirp, wav_path, "float32")

    for duration_ms in DEFAULT_DURATIONS_MS:
        seg = segment_samples(duration_ms, rate)
        # at 16 kHz every 5 ms step is a whole number of samples, so the
        # boundary rate rate/seg is exactly the same rational as 1000/ms
        assert seg == rate * duration_ms / 1000.0
        assert rate / seg == 1000.0 / duration_ms, "boundary events per second must equal 1000/segment_ms"

    csv_path = tmp_path / "boundary.csv"
    assert run(["analyze", "--metric", "boundary", "--in", str(wav_path), "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "segment_ms,value"
    values = {float(ms): float(v) for ms, v in (line.split(",") for line in lines[1:])}
    assert set(values) == set(DEFAULT_DURATIONS_MS)

    # the CSV must mirror the library computation
    for duration_ms, reported in values.items():
        computed = boundary_discontinuity(reverse_segments(chirp, duration_ms), duration_ms)
        assert reported == pytest.approx(computed, rel=1e-6)

    assert values[5.0] >= values[50.0], "short segments must show at least as much boundary noise"
    print("boundary report (segment_ms,value):")
    for line in lines[1:]:
        print(f"  {line}")
    return f"5ms mean {values[5.0]:.4f} >= 50ms mean {values[50.0]:.4f}"
