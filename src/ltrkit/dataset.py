"""Corpus manifests and N-fold augmented training-set construction.

A manifest is JSON-lines, one utterance per line:

    {"utt_id": str, "audio_path": str, "text": str, "duration_s": float,
     "augment": {"type": "ltr"|"speed"|"original", "param": float}?}

``utt_id`` must be unique within a manifest. The optional ``augment`` tag
records lineage, so downstream tooling can group or filter derived utterances.

Two builders triple a corpus. :func:`build_set` adds two locally time-reversed
copies of every utterance (the pair of segment durations comes from one of
five fixed duration sets). :func:`build_speed_set` adds one copy per speed
factor; factor 1.0 aliases the original file rather than rewriting it.
Transcripts are never altered: both augmentations are label-preserving.
Derived ids are ``<utt_id>-ltr<ms>`` and ``<utt_id>-sp<factor>``.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .audio_io import read_wav, write_wav
from .ltr import LtrConfig, reverse_segments
from .perturb import DEFAULT_SPEED_FACTORS, speed_perturb

__all__ = [
    "SET_DURATIONS_MS",
    "AugmentTag",
    "AugmentationSet",
    "ManifestError",
    "ManifestRecord",
    "build_set",
    "build_speed_set",
    "load_manifest",
    "save_manifest",
]

# Fixed mapping from set number to the pair of reversal durations it adds.
SET_DURATIONS_MS: dict[int, tuple[float, float]] = {
    1: (5.0, 10.0),
    2: (15.0, 20.0),
    3: (25.0, 30.0),
    4: (35.0, 40.0),
    5: (45.0, 50.0),
}

_AUGMENT_TYPES = ("ltr", "speed", "original")

logger = logging.getLogger(__name__)


class ManifestError(Exception):
    """Raised for malformed manifest files; messages carry the line number."""


@dataclass(frozen=True)
class AugmentTag:
    type: str
    param: float

    def __post_init__(self) -> None:
        if self.type not in _AUGMENT_TYPES:
            raise ValueError(f"augment type must be one of {_AUGMENT_TYPES}, got {self.type!r}")


@dataclass(frozen=True)
class ManifestRecord:
    utt_id: str
    audio_path: str
    text: str
    duration_s: float
    augment: AugmentTag | None = None

    def __post_init__(self) -> None:
        if not self.utt_id:
            raise ValueError("utt_id must be non-empty")
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {self.duration_s} for {self.utt_id!r}")


@dataclass(frozen=True)
class AugmentationSet:
    """One of the five fixed duration sets; set k adds the k-th duration pair."""

    set_id: int

    def __post_init__(self) -> None:
        if self.set_id not in SET_DURATIONS_MS:
            raise ValueError(f"set_id must be in 1..5, got {self.set_id}")

    @property
    def durations_ms(self) -> tuple[float, float]:
        return SET_DURATIONS_MS[self.set_id]


def _record_from_json(obj: dict, line_no: int) -> ManifestRecord:
    fields = {}
    for name, kind in (("utt_id", str), ("audio_path", str), ("text", str), ("duration_s", (int, float))):
        if name not in obj:
            raise ManifestError(f"line {line_no}: missing required field {name!r}")
        value = obj[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ManifestError(f"line {line_no}: field {name!r} has wrong type {type(value).__name__}")
        fields[name] = value
    augment = None
    if obj.get("augment") is not None:
        tag = obj["augment"]
        if not isinstance(tag, dict) or "type" not in tag or "param" not in tag:
            raise ManifestError(f"line {line_no}: augment tag must carry 'type' and 'param'")
        try:
            augment = AugmentTag(tag["type"], float(tag["param"]))
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"line {line_no}: {exc}") from exc
    try:
        return ManifestRecord(
            fields["utt_id"], fields["audio_path"], fields["text"], float(fields["duration_s"]), augment
        )
    except ValueError as exc:
        raise ManifestError(f"line {line_no}: {exc}") from exc


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse a JSONL manifest, preserving order.

    Raises:
        ManifestError: malformed JSON (with line number), missing or
            mistyped fields, or a duplicate ``utt_id`` (named in the message).
    """
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise ManifestError(f"line {line_no}: expected a JSON object")
            record = _record_from_json(obj, line_no)
            if record.utt_id in seen:
                raise ManifestError(f"line {line_no}: duplicate utt_id {record.utt_id!r}")
            seen.add(record.utt_id)
            records.append(record)
    return records


def save_manifest(records: Iterable[ManifestRecord], path: str | Path) -> None:
    """Write records as JSONL in the given order."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            obj: dict = {
                "utt_id": record.utt_id,
                "audio_path": record.audio_path,
                "text": record.text,
                "duration_s": record.duration_s,
            }
            if record.augment is not None:
                obj["augment"] = {"type": record.augment.type, "param": record.augment.param}
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _build(
    manifest: Sequence[ManifestRecord], variants: Sequence[tuple], out_dir: str | Path, parallelism: int
) -> list[ManifestRecord]:
    """One record per (source record, variant), grouped by source in input order.

    A variant is (id suffix, transform, tag, playback speed). A suffix of
    ``None`` keeps the source record, retagged unless the tag is ``None``;
    otherwise the transformed audio is written as float32 WAV under the id
    ``<utt_id>-<suffix>``, with the duration divided by the speed. Source
    audio is read only if some variant renders it.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids = {record.utt_id for record in manifest}
    for derived_id in (f"{r.utt_id}-{v[0]}" for r in manifest for v in variants if v[0] is not None):
        if derived_id in ids:
            raise ValueError(f"derived utt_id {derived_id!r} collides with an existing id")
        ids.add(derived_id)

    def render(record: ManifestRecord) -> list[ManifestRecord]:
        group = []
        buffer = None
        for suffix, transform, tag, speed in variants:
            if suffix is None:
                group.append(record if tag is None else replace(record, augment=tag))
                continue
            if buffer is None:
                buffer = read_wav(record.audio_path)
            derived_id = f"{record.utt_id}-{suffix}"
            out_path = out_dir / f"{derived_id}.wav"
            write_wav(transform(buffer), out_path, "float32")
            logger.info("rendered %s", out_path)
            group.append(ManifestRecord(derived_id, str(out_path), record.text, record.duration_s / speed, tag))
        return group

    # Groups are collected in input order whatever the completion order, so
    # the output is identical for any worker count.
    if parallelism <= 1:
        groups = [render(record) for record in manifest]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            groups = list(pool.map(render, manifest))
    return [record for group in groups for record in group]


def build_set(
    manifest: Sequence[ManifestRecord],
    augmentation_set: AugmentationSet,
    out_dir: str | Path,
    parallelism: int = 1,
) -> list[ManifestRecord]:
    """Triple a corpus with two locally time-reversed copies per utterance.

    Every input record is followed by one rendering per duration in the set,
    written under ``out_dir`` as float32 WAV. Renderings keep the source
    length and transcript; their records carry an ``ltr`` lineage tag and the
    derived id ``<utt_id>-ltr<ms>``.
    """
    variants = [(None, None, None, 1.0)] + [
        (f"ltr{ms:g}", partial(reverse_segments, config=LtrConfig(ms)), AugmentTag("ltr", ms), 1.0)
        for ms in augmentation_set.durations_ms
    ]
    return _build(manifest, variants, out_dir, parallelism)


def build_speed_set(
    manifest: Sequence[ManifestRecord],
    factors: Sequence[float] = DEFAULT_SPEED_FACTORS,
    out_dir: str | Path = ".",
    parallelism: int = 1,
) -> list[ManifestRecord]:
    """One speed-perturbed copy per factor for every utterance.

    Factor 1.0 records alias the original audio path (no rewrite) and keep the
    original id; other factors are resampled, written under ``out_dir`` as
    float32 WAV under the derived id ``<utt_id>-sp<factor>``, with the
    recorded duration scaled by 1/factor. All records carry ``speed`` tags.
    Factors must be positive and distinct.
    """
    if not factors:
        raise ValueError("factors must be non-empty")
    if any(f <= 0 for f in factors):
        raise ValueError(f"speed factors must be positive, got {list(factors)}")
    if len(set(factors)) != len(factors):
        raise ValueError(f"speed factors must be distinct, got {list(factors)}")
    variants = [
        (None, None, AugmentTag("speed", 1.0), 1.0) if f == 1.0
        else (f"sp{f:g}", partial(speed_perturb, factor=f), AugmentTag("speed", f), f)
        for f in factors
    ]
    return _build(manifest, variants, out_dir, parallelism)
