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
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .audio_io import read_wav, write_wav
from .errors import DataError, numbered_lines, positive
from .ltr import LtrConfig, reverse_segments
from .perturb import _MIN_SPEED_FACTOR, DEFAULT_SPEED_FACTORS, speed_perturb

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


class ManifestError(DataError):
    """Raised for malformed manifest files; messages carry the path and line number."""


@dataclass(frozen=True)
class AugmentTag:
    type: str
    param: float

    def __post_init__(self) -> None:
        if self.type not in _AUGMENT_TYPES:
            raise DataError(f"augment type must be one of {_AUGMENT_TYPES}, got {self.type!r}")
        if not math.isfinite(self.param):
            raise DataError(f"augment param must be finite, got {self.param}")


@dataclass(frozen=True)
class ManifestRecord:
    utt_id: str
    audio_path: str
    text: str
    duration_s: float
    augment: AugmentTag | None = None

    def __post_init__(self) -> None:
        if not self.utt_id:
            raise DataError("utt_id must be non-empty")
        positive(f"duration_s of {self.utt_id!r}", self.duration_s)


@dataclass(frozen=True)
class AugmentationSet:
    """One of the five fixed duration sets; set k adds the k-th duration pair."""

    set_id: int

    def __post_init__(self) -> None:
        if self.set_id not in SET_DURATIONS_MS:
            raise DataError(f"set_id must be in 1..5, got {self.set_id}")

    @property
    def durations_ms(self) -> tuple[float, float]:
        return SET_DURATIONS_MS[self.set_id]


def _record_from_json(obj: dict, where: str) -> ManifestRecord:
    fields = {}
    for name, kind in (("utt_id", str), ("audio_path", str), ("text", str), ("duration_s", (int, float))):
        if name not in obj:
            raise ManifestError(f"{where}: missing required field {name!r}")
        value = obj[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ManifestError(f"{where}: field {name!r} has wrong type {type(value).__name__}")
        fields[name] = value
    tag = obj.get("augment")
    if tag is not None and (not isinstance(tag, dict) or "type" not in tag or "param" not in tag):
        raise ManifestError(f"{where}: augment tag must carry 'type' and 'param'")
    try:
        augment = None if tag is None else AugmentTag(tag["type"], float(tag["param"]))
        return ManifestRecord(
            fields["utt_id"], fields["audio_path"], fields["text"], float(fields["duration_s"]), augment
        )
    except (TypeError, ValueError, OverflowError) as exc:  # a rejected field, or float() of a bad JSON value
        raise ManifestError(f"{where}: {exc}") from exc


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    """Parse a JSONL manifest, preserving order.

    Raises:
        ManifestError: malformed JSON, missing, mistyped or out-of-range
            fields, or a duplicate ``utt_id``; each names the path and line.
        DataError: the file is not UTF-8 text.
    """
    records: list[ManifestRecord] = []
    seen: set[str] = set()
    for line_no, line in numbered_lines(path):
        where = f"{path}: line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{where}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise ManifestError(f"{where}: expected a JSON object")
        record = _record_from_json(obj, where)
        if record.utt_id in seen:
            raise ManifestError(f"{where}: duplicate utt_id {record.utt_id!r}")
        seen.add(record.utt_id)
        records.append(record)
    return records


def save_manifest(records: Iterable[ManifestRecord], path: str | Path) -> None:
    """Write records as JSONL in the given order: the fields in declaration
    order, with ``augment`` left out when it is ``None``."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            obj = {key: value for key, value in asdict(record).items() if value is not None}
            handle.write(json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n")


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
            raise DataError(f"derived utt_id {derived_id!r} collides with an existing id")
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
    Factors must be finite, distinct and at least 0.01, checked up front.
    """
    if not factors:
        raise DataError("factors must be non-empty")
    if min(positive("speed factor", f) for f in factors) < _MIN_SPEED_FACTOR:
        raise DataError(f"speed factors must be at least {_MIN_SPEED_FACTOR}, got {list(factors)}")
    if len(set(factors)) != len(factors):
        raise DataError(f"speed factors must be distinct, got {list(factors)}")
    variants = [
        (None, None, AugmentTag("speed", 1.0), 1.0) if f == 1.0
        else (f"sp{f:g}", partial(speed_perturb, factor=f), AugmentTag("speed", f), f)
        for f in factors
    ]
    return _build(manifest, variants, out_dir, parallelism)
