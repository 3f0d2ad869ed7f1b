"""Corpus manifests and N-fold augmented training-set construction.

A manifest is JSON-lines, one utterance per line:

    {"utt_id": str, "audio_path": str, "text": str, "duration_s": float,
     "augment": {"type": "ltr"|"speed"|"original", "param": float}?}

``utt_id`` must be unique within a manifest. The optional ``augment`` tag
records lineage, so downstream tooling can group or filter derived utterances.

Two builders triple a corpus. :func:`build_set` adds two locally time-reversed
copies of every utterance, :func:`build_speed_set` one copy per speed factor;
factor 1.0 aliases the original file rather than rewriting it. Transcripts are
never altered. A copy is described by its tag alone: the tags ``ltr ms`` and
``speed f`` name the WAV files ``<utt_id>-ltr<ms>`` and ``<utt_id>-sp<f>``, so
an ``utt_id`` with a path separator or NUL is rejected.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from ._atomic import write_atomic
from .audio_io import _encode_wav, read_wav, write_wav
from .errors import DataError, json_objects, positive
from .ltr import DEFAULT_DURATIONS_MS, _reverse, segment_samples
from .perturb import _MIN_SPEED_FACTOR, DEFAULT_SPEED_FACTORS, speed_perturb

__all__ = [
    "SET_DURATIONS_MS",
    "AugmentTag",
    "ManifestError",
    "ManifestRecord",
    "build_set",
    "build_speed_set",
    "load_manifest",
    "save_manifest",
]

# Set k adds the k-th consecutive pair of the standard sweep's durations.
SET_DURATIONS_MS: dict[int, tuple[float, float]] = {
    k // 2 + 1: DEFAULT_DURATIONS_MS[k : k + 2] for k in range(0, len(DEFAULT_DURATIONS_MS), 2)
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
        if "\0" in self.audio_path:
            raise DataError(f"audio_path of {self.utt_id!r} holds a NUL character")


def _record_from_json(obj: dict, where: str) -> ManifestRecord:
    for name, kind in (("utt_id", str), ("audio_path", str), ("text", str), ("duration_s", (int, float))):
        if name not in obj:
            raise ManifestError(f"{where}: missing required field {name!r}")
        value = obj[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ManifestError(f"{where}: field {name!r} has wrong type {type(value).__name__}")
    tag = obj.get("augment")
    if tag is not None and (not isinstance(tag, dict) or "type" not in tag or "param" not in tag):
        raise ManifestError(f"{where}: augment tag must carry 'type' and 'param'")
    try:
        augment = None if tag is None else AugmentTag(tag["type"], float(tag["param"]))
        return ManifestRecord(obj["utt_id"], obj["audio_path"], obj["text"], float(obj["duration_s"]), augment)
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
    for where, obj in json_objects(path, ManifestError):
        record = _record_from_json(obj, where)
        if record.utt_id in seen:
            raise ManifestError(f"{where}: duplicate utt_id {record.utt_id!r}")
        seen.add(record.utt_id)
        records.append(record)
    return records


def save_manifest(records: Iterable[ManifestRecord], path: str | Path) -> None:
    """Write records as JSONL in the given order: the fields in declaration
    order, with ``augment`` left out when it is ``None``. The write is atomic:
    ``path`` holds its old content or the whole new manifest, never part of one."""
    lines = []
    for record in records:
        obj = {key: value for key, value in asdict(record).items() if value is not None}
        lines.append(json.dumps(obj, ensure_ascii=False, allow_nan=False) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


def _derived_id(record: ManifestRecord, tag: AugmentTag) -> str:
    return f"{record.utt_id}-{'ltr' if tag.type == 'ltr' else 'sp'}{tag.param:g}"


def _build(
    manifest: Sequence[ManifestRecord], tags: Sequence[AugmentTag | None], out_dir: str | Path, parallelism: int
) -> list[ManifestRecord]:
    """One record per (source record, tag), grouped by source in input order.

    ``None`` keeps the source record and ``AugmentTag("speed", 1.0)`` retags
    it. Any other tag is read from the source and written as a float32 WAV
    named by its derived id: ``ltr ms`` reverses the segments of the float32
    payload, encoded once per utterance; ``speed f`` resamples and divides the
    duration by ``f``. Ids are checked before ``out_dir`` is made.
    """
    unit_speed = AugmentTag("speed", 1.0)
    rendered = [tag for tag in tags if tag is not None and tag != unit_speed]
    ids = {record.utt_id for record in manifest}
    for record in manifest:
        for derived_id in (_derived_id(record, tag) for tag in rendered):
            if any(c and c in derived_id for c in (os.sep, os.altsep, "\0")):
                raise DataError(f"utt_id {record.utt_id!r} holds a path separator or NUL, so it cannot name a file")
            if derived_id in ids:
                raise DataError(f"derived utt_id {derived_id!r} collides with an existing id")
            ids.add(derived_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def render(record: ManifestRecord) -> list[ManifestRecord]:
        group = []
        buffer = header = payload = None
        for tag in tags:
            if tag not in rendered:
                group.append(record if tag is None else replace(record, augment=unit_speed))
                continue
            if buffer is None:
                buffer = read_wav(record.audio_path)
            derived_id = _derived_id(record, tag)
            out_path = out_dir / f"{derived_id}.wav"
            duration_s = record.duration_s
            if tag.type == "ltr":
                if payload is None:
                    header, payload = _encode_wav(buffer, "float32")
                write_atomic(out_path, header, _reverse(payload, segment_samples(tag.param, buffer.sample_rate_hz)))
            else:
                write_wav(speed_perturb(buffer, tag.param), out_path)
                duration_s /= tag.param
            group.append(ManifestRecord(derived_id, str(out_path), record.text, duration_s, tag))
        return group

    # Groups are taken in input order, so the records and log lines are the
    # same for any worker count; below parallelism 2 the pool starts no thread.
    out = []
    with ThreadPoolExecutor(max_workers=max(parallelism, 1)) as pool:
        for record, group in zip(manifest, (pool.map if parallelism > 1 else map)(render, manifest)):
            for derived in (r for r in group if r.utt_id != record.utt_id):
                logger.info("rendered %s", derived.audio_path)
            out += group
    return out


def build_set(
    manifest: Sequence[ManifestRecord], set_id: int, out_dir: str | Path, parallelism: int = 1
) -> list[ManifestRecord]:
    """Triple a corpus with two locally time-reversed copies per utterance.

    Every input record is followed by one rendering per duration of
    ``SET_DURATIONS_MS[set_id]``, written under ``out_dir`` as float32 WAV.
    Renderings keep the source length and transcript; their records carry an
    ``ltr`` lineage tag and the derived id ``<utt_id>-ltr<ms>``. They are
    reversed on the source's encoded float32 samples, byte-identical to
    ``write_wav(reverse_segments(...))``.
    """
    if set_id not in SET_DURATIONS_MS:
        raise DataError(f"set_id must be in 1..{len(SET_DURATIONS_MS)}, got {set_id}")
    return _build(manifest, [None] + [AugmentTag("ltr", ms) for ms in SET_DURATIONS_MS[set_id]], out_dir, parallelism)


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
    return _build(manifest, [AugmentTag("speed", f) for f in factors], out_dir, parallelism)
