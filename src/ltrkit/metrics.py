"""Error-rate scoring: Levenshtein alignment with backtrace, error-type
counts, and substitution confusion tables.

Rates are (substitutions + insertions + deletions) / reference length. The
same alignment serves word, character, and phone units; only tokenization
differs. Corpus rates are pooled (total errors over total reference tokens),
not averaged per utterance. One numpy kernel aligns a whole corpus in padded
batches; a single pair is its smallest case.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, numbered_lines

__all__ = [
    "ErrorReport",
    "TrnFormatError",
    "align",
    "corpus_rate",
    "corpus_report",
    "read_trn",
    "tokenize",
    "top_confusions",
    "trn_report",
]

_UNITS = ("word", "char", "phone")
# Padded cells per kernel batch: 2**22 int32 cells is 16 MiB.
_BUCKET_CELLS = 1 << 22
# Cells one pair may need (1 GiB as int32); a longer pair is rejected.
_MAX_PAIR_CELLS = 1 << 28


class TrnFormatError(DataError):
    """Raised for transcript files without the trailing ``(utt_id)`` marker."""


@dataclass(frozen=True)
class ErrorReport:
    """Alignment outcome for one reference/hypothesis pair, or pooled over a
    corpus by :func:`corpus_report`.

    ``hits + substitutions + deletions == ref_len`` always holds. The rate
    can exceed 1 through insertions. ``confusions`` (ref token, hyp token) ->
    count is copied into a read-only mapping and left out of the hash.
    """

    substitutions: int
    insertions: int
    deletions: int
    hits: int
    ref_len: int
    confusions: Mapping[tuple[str, str], int] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "confusions", MappingProxyType(dict(self.confusions)))

    @property
    def total_errors(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def rate(self) -> float:
        """Errors per reference token.

        Raises:
            DataError: if ``ref_len`` is 0 (every reference was empty).
        """
        if self.ref_len == 0:
            raise DataError("all references are empty; error rate is undefined")
        return self.total_errors / self.ref_len


def tokenize(text: str, unit: str) -> list[str]:
    """Split a transcript into scoring units.

    ``word`` and ``phone`` split on whitespace runs; ``char`` removes all
    whitespace and yields one unit per grapheme (a base character plus any
    combining marks), so decomposed accents count once.
    """
    if unit not in _UNITS:
        raise DataError(f"unit must be one of {_UNITS}, got {unit!r}")
    if unit in ("word", "phone"):
        return text.split()
    clusters: list[str] = []
    for ch in "".join(text.split()):
        if clusters and unicodedata.combining(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def _buckets(pairs: list[tuple[list, list]]):
    """Pairs sorted by length, cut into batches of at most ``_BUCKET_CELLS``
    padded cells (a pair that alone needs more gets a batch of its own)."""
    bucket: list[tuple[list, list]] = []
    n_max = m_max = 0
    for ref, hyp in sorted(pairs, key=lambda pair: (len(pair[0]), len(pair[1]))):
        n, m = max(n_max, len(ref)), max(m_max, len(hyp))
        if bucket and (n + 1) * (len(bucket) + 1) * (m + 1) > _BUCKET_CELLS:
            yield bucket
            bucket, n, m = [], len(ref), len(hyp)
        bucket.append((ref, hyp))
        n_max, m_max = n, m
    if bucket:
        yield bucket


def _cost_matrix(bucket: list[tuple[list, list]]) -> np.ndarray:
    """Unit-cost edit distances of a batch: ``cost[i, b, j]`` aligns
    ``ref[:i]`` with ``hyp[:j]`` of pair ``b``.

    Tokens are mapped to integer codes, and each step fills row ``i`` for
    every pair and every hypothesis position at once. Shorter pairs are
    padded to the longest; a real cell depends only on cells above and to
    its left, so padding never changes its value.
    """
    n_max = max(len(ref) for ref, _ in bucket)
    m_max = max(len(hyp) for _, hyp in bucket)
    codes: dict = {}
    ref_codes = np.full((n_max, len(bucket), 1), -1, np.int32)
    hyp_codes = np.full((len(bucket), m_max), -2, np.int32)
    for b, (ref, hyp) in enumerate(bucket):
        ref_codes[: len(ref), b, 0] = [codes.setdefault(token, len(codes)) for token in ref]
        hyp_codes[b, : len(hyp)] = [codes.setdefault(token, len(codes)) for token in hyp]

    # Rows hold cost[i, b, j] - j while they are filled. In that frame a
    # diagonal step costs -match, a deletion +1 and an insertion 0, so the
    # insertions of a row are one prefix-minimum scan along j.
    cost = np.empty((n_max + 1, len(bucket), m_max + 1), np.int32)
    cost[0] = 0
    match = np.empty((len(bucket), m_max), np.bool_)
    deletion = np.empty((len(bucket), m_max), np.int32)
    for i in range(1, n_max + 1):
        prev, row = cost[i - 1], cost[i]
        np.equal(hyp_codes, ref_codes[i - 1], out=match)
        np.subtract(prev[:, :-1], match, out=row[:, 1:])
        np.add(prev[:, 1:], 1, out=deletion)
        np.minimum(row[:, 1:], deletion, out=row[:, 1:])
        row[:, 0] = i
        np.minimum.accumulate(row, axis=1, out=row)
    cost += np.arange(m_max + 1, dtype=np.int32)
    return cost


def _backtrace(cost: np.ndarray, ref: list, hyp: list, confusions: Counter) -> tuple[int, int, int, int]:
    # Preference at equal cost: substitution, deletion, insertion.
    hits = subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost.item(i, j) == cost.item(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] == hyp[j - 1]:
                hits += 1
            else:
                subs += 1
                confusions[(ref[i - 1], hyp[j - 1])] += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost.item(i, j) == cost.item(i - 1, j) + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return subs, ins, dels, hits


def corpus_report(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> ErrorReport:
    """Pooled alignment counts over a corpus of (reference, hypothesis) pairs.

    Each pair is aligned on its own; the report sums their substitutions,
    insertions, deletions, hits and reference lengths and merges their
    confusions. A pair with an empty reference adds its hypothesis tokens as
    insertions. All pairs are aligned in padded batches by one numpy kernel
    that fills the cost matrix one reference position at a time.

    Raises:
        DataError: if one pair needs more than ``_MAX_PAIR_CELLS`` matrix
            cells; this is checked for every pair before any is aligned.
    """
    pairs = [(list(ref), list(hyp)) for ref, hyp in pairs]
    for ref, hyp in pairs:
        if (len(ref) + 1) * (len(hyp) + 1) > _MAX_PAIR_CELLS:
            raise DataError(
                f"aligning a {len(ref)}-token reference with a {len(hyp)}-token hypothesis needs more than "
                f"{_MAX_PAIR_CELLS} cost-matrix cells"
            )
    totals = (0, 0, 0, 0)
    confusions: Counter = Counter()
    for bucket in _buckets(pairs):
        cost = _cost_matrix(bucket)
        for b, (ref, hyp) in enumerate(bucket):
            counts = _backtrace(cost[:, b], ref, hyp, confusions)
            totals = tuple(map(sum, zip(totals, counts)))
    return ErrorReport(*totals, sum(len(ref) for ref, _ in pairs), confusions)


def align(ref: Sequence[str], hyp: Sequence[str]) -> ErrorReport:
    """Minimum-edit-distance alignment of hypothesis against reference: the
    one-pair case of :func:`corpus_report`.

    Raises:
        DataError: if the reference is empty (the rate would be undefined),
            or if the pair is too long to align (see :func:`corpus_report`).
    """
    if len(ref) == 0:
        raise DataError("reference is empty; error rate is undefined")
    return corpus_report([(ref, hyp)])


def corpus_rate(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> float:
    """Pooled rate over a corpus: sum of errors over sum of reference lengths.

    Pairs with an empty reference contribute their hypothesis tokens as
    insertions; at least one reference must be non-empty.
    """
    return corpus_report(pairs).rate


def top_confusions(reports: Sequence[ErrorReport], n: int) -> list[tuple[tuple[str, str], int]]:
    """The ``n`` most frequent substitution pairs, ties in lexicographic order."""
    if n < 1:
        raise DataError(f"n must be at least 1, got {n}")
    merged: Counter = Counter()
    for report in reports:
        merged.update(report.confusions)
    return sorted(merged.items(), key=lambda item: (-item[1], item[0]))[:n]


def read_trn(path: str | Path) -> dict[str, str]:
    """Parse a TRN transcript file: per line, tokens then ``(utt_id)``.

    Returns id -> transcript in file order.

    Raises:
        TrnFormatError: missing id marker or duplicate id (with line number).
        DataError: the file is not UTF-8 text (naming the path).
    """
    out: dict[str, str] = {}
    for line_no, line in numbered_lines(path):
        line = line.strip()
        if not line.endswith(")") or "(" not in line:
            raise TrnFormatError(f"{path}: line {line_no} lacks a trailing (utt_id)")
        text, _, utt_id = line[:-1].rpartition("(")
        utt_id = utt_id.strip()
        if not utt_id:
            raise TrnFormatError(f"{path}: line {line_no} has an empty utt_id")
        if utt_id in out:
            raise TrnFormatError(f"{path}: line {line_no} repeats utt_id {utt_id!r}")
        out[utt_id] = text.strip()
    return out


def trn_report(ref_path: str | Path, hyp_path: str | Path, unit: str, confusions: int = 10) -> dict:
    """The pooled error report of a hypothesis TRN file against a reference
    one, as the JSON object ``ltrkit wer --json-out`` writes, with the top
    ``confusions`` substitution pairs. A reference file without utterances,
    an utt_id in only one file, or an empty reference is a :class:`DataError`."""
    refs = read_trn(ref_path)
    hyps = read_trn(hyp_path)
    if not refs:
        raise DataError(f"{ref_path}: no utterances")
    missing = sorted(set(refs) ^ set(hyps))
    if missing:
        raise DataError(f"utt_ids not present in both files: {', '.join(missing[:5])}")
    pairs = []
    for utt_id, ref_text in refs.items():
        ref = tokenize(ref_text, unit)
        if not ref:
            raise DataError(f"{ref_path}: utterance {utt_id!r} has an empty reference; error rate is undefined")
        pairs.append((ref, tokenize(hyps[utt_id], unit)))
    report = corpus_report(pairs)
    return {
        "unit": unit,
        "error_rate": report.rate,
        "ref_len": report.ref_len,
        "utterances": len(pairs),
        "substitutions": report.substitutions,
        "insertions": report.insertions,
        "deletions": report.deletions,
        "hits": report.hits,
        "confusions": [[ref_tok, hyp_tok, count] for (ref_tok, hyp_tok), count in top_confusions([report], confusions)],
    }
