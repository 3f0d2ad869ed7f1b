"""Building 3-fold augmented training sets from a manifest.

Synthesizes a four-utterance corpus, writes its JSONL manifest, then builds
one duration set of locally time-reversed copies and one speed-perturbed set,
printing the resulting manifests.

Run:  python3 demos/02_augmented_training_sets.py
"""

import tempfile
from pathlib import Path

import numpy as np

from ltrkit import (
    AudioBuffer,
    ManifestRecord,
    build_set,
    build_speed_set,
    load_manifest,
    save_manifest,
    write_wav,
)

work = Path(tempfile.mkdtemp(prefix="ltrkit-demo-"))
rate = 16000
rng = np.random.default_rng(0)

print(f"working under {work}")
records = []
for i, text in enumerate(["the tide is high", "call me back later", "七 点 半 见", "one more example"]):
    n = int(rng.integers(4000, 12000))
    path = work / f"utt{i}.wav"
    write_wav(AudioBuffer(rng.uniform(-0.7, 0.7, n), rate), path, "float32")
    records.append(ManifestRecord(f"utt{i}", str(path), text, n / rate))
manifest_path = work / "corpus.jsonl"
save_manifest(records, manifest_path)
print(f"wrote a {len(records)}-utterance corpus manifest")

print("\nSet 2 adds 15 ms and 20 ms reversals of every utterance (3x the data):")
augmented = build_set(load_manifest(manifest_path), 2, work / "set2")
for record in augmented:
    tag = f"{record.augment.type}@{record.augment.param:g}" if record.augment else "original"
    print(f"  {record.utt_id:14s} {tag:10s} {record.duration_s:6.3f}s  '{record.text}'")
print(f"total: {len(augmented)} records; transcripts are untouched by design")

print("\nThe speed-perturbation counterpart (factors 0.9 / 1.0 / 1.1):")
speeded = build_speed_set(load_manifest(manifest_path), out_dir=work / "speed")
for record in speeded[:6]:
    print(f"  {record.utt_id:14s} speed@{record.augment.param:<4g} {record.duration_s:6.3f}s")
print(f"  ... {len(speeded)} records in total; the 1.0 fold reuses the original files")

save_manifest(augmented, work / "set2.jsonl")
save_manifest(speeded, work / "speed.jsonl")
print(f"\nmanifests saved under {work}")
