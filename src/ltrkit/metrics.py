"""Error-rate scoring: Levenshtein alignment with backtrace, error-type
counts, and substitution confusion tables.

Rates are (substitutions + insertions + deletions) / reference length. The
same alignment serves word, character, and phone units; only tokenization
differs. Corpus rates are pooled (total errors over total reference tokens),
not averaged per utterance.

Only what differs is aligned: a pair's longest common prefix and suffix count
as hits and only the middle is aligned. This is exact. When the last tokens
match, D(i, j) = D(i-1, j-1), so the backtrace takes the suffix as hits first;
past a prefix of length p the matrix is the middle's, and on its boundary the
only path of cost j - p is p hits and j - p insertions. A middle empty on one
side is all insertions or all deletions, and one token a side is one
substitution. Other middles go to a diagonal-transition pass (Ukkonen; Landau
and Vishkin), whose work grows with the square of the edit distance and not
with the middle's length, and whose backtrace takes the steps the matrix's
would. A middle more edits apart than the square root of its length is
left to Myers' bit-vector algorithm in Hyyrö's global form, one step on
m-bit ints per reference token. Tokens are equal when ``a is b or a == b``,
as in list equality. The size guard bounds whole pairs.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import DataError, at_least, numbered_lines

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
# Cells (n + 1) * (m + 1) one whole pair may span; a longer pair is
# rejected. It bounds the aligner's two m-bit ints per reference row.
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
    text = "".join(text.split())
    if text.isascii():  # no ASCII character is a combining mark
        return list(text)
    clusters: list[str] = []
    for ch in text:
        if clusters and unicodedata.combining(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def _common_prefix(ref: list, hyp: list, i: int = 0, j: int = 0) -> int:
    """Length of the common prefix of ``ref[i:]`` and ``hyp[j:]``, by slice
    comparisons of doubling, then halving, length."""
    top, k, step = min(len(ref) - i, len(hyp) - j), 0, 1
    while k + step <= top and ref[i + k : i + k + step] == hyp[j + k : j + k + step]:
        k, step = k + step, 2 * step
    while step > 1:
        step //= 2
        if k + step <= top and ref[i + k : i + k + step] == hyp[j + k : j + k + step]:
            k += step
    return k


def _fronts(ref: list, hyp: list) -> tuple[list[dict[int, int]], list[dict[int, int]]] | None:
    """Diagonal-transition edit distance (Ukkonen; Landau and Vishkin).
    ``ends[e][k]`` is the last row i with cost(i, i + k) <= e, and level e
    matched tokens along diagonal k from row ``starts[e][k]`` to it; the
    distance is ``len(ends) - 1``. Level e costs one step per diagonal,
    about (e + 1)**2 in all, where :func:`_bit_align` costs one row step
    per reference token and a backtrace step per token; so once e**2
    exceeds ``len(ref) + len(hyp)``, the pass gives up and returns None. It
    does so at once when the length difference, a lower bound on the
    distance, already reaches that level.

    Level e starts diagonal k at the furthest of a substitution, deletion or
    insertion from level e - 1, clipped to the matrix (adjacent cells differ
    by at most 1)."""
    n, m = len(ref), len(hyp)
    if (n - m) ** 2 > n + m:
        return None
    starts, ends = [{0: 0}], [{0: _common_prefix(ref, hyp)}]
    while ends[-1].get(m - n, -1) < n:
        e, prev = len(ends), ends[-1]
        if e * e > n + m:
            return None
        start, end, get = {}, {}, prev.get
        low = -min(n, e)
        left, mid = get(low - 1, -1), get(low, -1)  # level e - 1 on diagonals k - 1 and k
        for k in range(low, min(m, e) + 1):
            right = get(k + 1, -1)
            i = mid + 1 if mid >= right else right + 1
            if left > i:
                i = left
            left, mid = mid, right
            if i > n or i + k > m:
                i = min(n, m - k)
            start[k] = i
            if i < n and i + k < m and (ref[i] is hyp[i + k] or ref[i] == hyp[i + k]):
                i += _common_prefix(ref, hyp, i, i + k)
            end[k] = i
        starts.append(start)
        ends.append(end)
    return starts, ends


def _bit_align(ref: list, hyp: list, confusions: Counter) -> tuple[int, int, int, int]:
    """Myers' bit-vector edit distance (1999) in Hyyrö's global form, with
    a backtrace. Bit j - 1 of an int stands for hypothesis position j, and
    one step per reference token turns row i - 1 into row i. Row i keeps
    ``d0``, whose bit is set iff D(i, j) = D(i-1, j-1), and ``hp``, whose
    bit is set iff D(i, j) = D(i-1, j) + 1; ``vp`` and ``vn`` carry the
    row's +1 and -1 steps along j. Results are masked to m bits, since
    ``~x`` of a Python int is negative and a sum can carry past bit m.
    Tokens match through a dict, which compares by ``is``, then ``==``."""
    mask = (1 << len(hyp)) - 1
    peq: dict = {}
    for j, token in enumerate(hyp):
        peq[token] = peq.get(token, 0) | 1 << j
    vp, vn, rows = mask, 0, []
    for token in ref:
        eq = peq.get(token, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = vn | ~(d0 | vp) & mask
        rows.append((d0, hp))
        hp = hp << 1 | 1  # D(i, 0) = D(i-1, 0) + 1
        vp = ((vp & d0) << 1 | ~(d0 | hp)) & mask
        vn = d0 & hp
    hits = subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    while i and j:
        d0, hp = rows[i - 1]
        if ref[i - 1] is hyp[j - 1] or ref[i - 1] == hyp[j - 1]:
            hits, i, j = hits + 1, i - 1, j - 1
        elif not d0 >> (j - 1) & 1:
            subs += 1
            confusions[(ref[i - 1], hyp[j - 1])] += 1
            i, j = i - 1, j - 1
        elif hp >> (j - 1) & 1:
            dels, i = dels + 1, i - 1
        else:
            ins, j = ins + 1, j - 1
    return subs, ins + j, dels + i, hits


def _trace_fronts(starts: list[dict[int, int]], ends: list[dict[int, int]], ref: list, hyp: list,
                  confusions: Counter) -> tuple[int, int, int, int]:
    # At a cell (i, j) of cost e a match is a hit, and a run that level e
    # matched is taken whole. Otherwise the step is the first of
    # substitution, deletion and insertion (the preference at equal cost, as
    # in _bit_align) whose source level e - 1 reaches.
    hits = subs = dels = ins = 0
    i, j = len(ref), len(hyp)
    for e in range(len(ends) - 1, -1, -1):
        start = starts[e][j - i]
        if start < i:
            hits, i, j = hits + i - start, start, j - i + start
        while i and j and ref[i - 1 : i] == hyp[j - 1 : j]:
            hits, i, j = hits + 1, i - 1, j - 1
        if not (i and j):
            break
        if ends[e - 1].get(j - i, -1) >= i - 1:
            subs += 1
            confusions[(ref[i - 1], hyp[j - 1])] += 1
            i, j = i - 1, j - 1
        elif ends[e - 1].get(j - i + 1, -1) >= i - 1:
            dels, i = dels + 1, i - 1
        else:
            ins, j = ins + 1, j - 1
    return subs, ins + j, dels + i, hits


def corpus_report(pairs: Iterable[tuple[Sequence[str], Sequence[str]]]) -> ErrorReport:
    """Pooled alignment counts over a corpus of (reference, hypothesis) pairs.

    Each pair is aligned on its own; the report sums their substitutions,
    insertions, deletions, hits and reference lengths and merges their
    confusions. A pair with an empty reference adds its hypothesis tokens as
    insertions. A pair's longest common prefix and suffix count as hits, and
    only the differing middles are aligned: by a diagonal-transition pass
    whose work follows the number of edits when they are few, and otherwise
    by a bit-vector aligner that steps through the reference one token at a
    time over m-bit ints.

    Raises:
        DataError: if one whole pair needs more than ``_MAX_PAIR_CELLS``
            matrix cells; this is checked for every pair before any is aligned.
    """
    pairs = [(list(ref), list(hyp)) for ref, hyp in pairs]
    middles = []
    confusions: Counter = Counter()
    hits = substituted = inserted = deleted = 0
    for ref, hyp in pairs:
        if (len(ref) + 1) * (len(hyp) + 1) > _MAX_PAIR_CELLS:
            raise DataError(
                f"aligning a {len(ref)}-token reference with a {len(hyp)}-token hypothesis needs more than "
                f"{_MAX_PAIR_CELLS} cost-matrix cells"
            )
        prefix = _common_prefix(ref, hyp)
        suffix = _common_prefix(ref[prefix:][::-1], hyp[prefix:][::-1])
        hits += prefix + suffix
        ref, hyp = ref[prefix : len(ref) - suffix], hyp[prefix : len(hyp) - suffix]
        if not (ref and hyp):  # only insertions or only deletions are left
            inserted, deleted = inserted + len(hyp), deleted + len(ref)
        elif len(ref) == len(hyp) == 1:  # one substitution
            substituted += 1
            confusions[(ref[0], hyp[0])] += 1
        else:
            middles.append((ref, hyp))
    totals = (substituted, inserted, deleted, hits)
    for ref, hyp in middles:
        fronts = _fronts(ref, hyp)
        if fronts is None:
            counts = _bit_align(ref, hyp, confusions)
        else:
            counts = _trace_fronts(*fronts, ref, hyp, confusions)
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
    n = at_least("n", n, 1)
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
