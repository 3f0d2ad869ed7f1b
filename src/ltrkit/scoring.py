"""Desk-scale sequence scoring over externally supplied probability grids.

Everything here operates on plain per-frame token posteriors rather than a
neural model, so the scoring rules can be exercised and cross-checked in
isolation: CTC loss via the forward algorithm (with a literal path-enumeration
oracle), autoregressive cross-entropy, their convex multi-task combination,
and shallow-fusion rescoring of explicit hypothesis lists.

Conventions. A grid has shape (T, K+1): K token columns and a final blank
column, each row a probability distribution (sums to 1 within 1e-6). Token
sequences are tuples of indices in [0, K). A frame-level path collapses to a
token sequence by deduplicating consecutive repeats and then dropping blanks;
the CTC loss of a target is -log of the total probability of all length-T
paths that collapse to it. Infeasible targets (no such path: the target plus
its required separator blanks needs more than T frames) score ``inf`` rather
than raising, so batch scoring never aborts.

All accumulation is in log space; ``-inf`` is a first-class value standing
for probability zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .matrix_io import POSTERIORS_MAGIC, read_matrix, write_matrix

__all__ = [
    "FusionWeights",
    "Hypothesis",
    "PosteriorGrid",
    "Vocabulary",
    "attention_loss",
    "collapse",
    "ctc_loss",
    "ctc_loss_bruteforce",
    "ctc_min_frames",
    "fused_score",
    "greedy_ctc_decode",
    "interleave_blanks",
    "load_grid",
    "load_hypotheses",
    "mtl_loss",
    "rescore_hypotheses",
    "save_grid",
    "tabular_lm_score",
]

_ROW_SUM_TOL = 1e-6
_BRUTEFORCE_MAX_PATHS = 10_000_000
_LM_FLOOR = 1e-12
_EMISSION_CHUNK_FRAMES = 128


@dataclass(frozen=True)
class Vocabulary:
    """An ordered set of K distinct token labels. The blank label is not a
    member; it implicitly occupies index K (the last grid column)."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 1:
            raise ValueError("vocabulary needs at least one token")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def blank_index(self) -> int:
        return len(self.tokens)

    def index(self, label: str) -> int:
        try:
            return self.tokens.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} is not in the vocabulary") from None

    def encode(self, labels: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index(label) for label in labels)

    def decode(self, indices: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in indices]


@dataclass(frozen=True)
class PosteriorGrid:
    """Per-frame token probabilities: T rows over K tokens plus blank."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
            raise ValueError(f"grid must be (frames, tokens+blank) with at least one of each, got shape {probs.shape}")
        # Written so that NaN, for which every comparison is False, fails too.
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("grid entries must be finite and lie in [0, 1]")
        sums = probs.sum(axis=1)
        worst = int(np.argmax(np.abs(sums - 1.0)))
        if abs(sums[worst] - 1.0) > _ROW_SUM_TOL:
            raise ValueError(f"grid row {worst} sums to {sums[worst]!r}, expected 1 within {_ROW_SUM_TOL}")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_tokens(self) -> int:
        return self.probs.shape[1] - 1

    @property
    def blank_index(self) -> int:
        return self.num_tokens


@dataclass(frozen=True)
class Hypothesis:
    """A candidate token sequence with its component log-probabilities.

    ``fused_score`` is filled in by :func:`rescore_hypotheses`; it is always
    recomputable from the components and the weights used.
    """

    tokens: tuple
    log_p_ctc: float
    log_p_att: float
    log_p_lm: float
    fused_score: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))


@dataclass(frozen=True)
class FusionWeights:
    """Weights for score fusion.

    ``ctc_weight`` interpolates between the CTC and attention log-probabilities
    at decode time, and ``lm_weight`` scales the language-model contribution.
    """

    ctc_weight: float
    lm_weight: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError(f"ctc_weight must be in [0, 1], got {self.ctc_weight}")
        if self.lm_weight < 0.0:
            raise ValueError(f"lm_weight must be non-negative, got {self.lm_weight}")


def _as_grid(grid: PosteriorGrid | np.ndarray) -> PosteriorGrid:
    return grid if isinstance(grid, PosteriorGrid) else PosteriorGrid(np.asarray(grid, dtype=np.float64))


def _validated_target(target: Sequence[int], num_tokens: int) -> tuple[int, ...]:
    target = tuple(int(t) for t in target)
    for t in target:
        if not 0 <= t < num_tokens:
            raise ValueError(f"target token {t} is outside [0, {num_tokens})")
    return target


def collapse(path: Sequence[int], blank_index: int) -> tuple[int, ...]:
    """Reduce a frame-level path to its token sequence: drop consecutive
    duplicates, then drop blanks."""
    out = []
    previous = None
    for label in path:
        if label != previous:
            if label != blank_index:
                out.append(label)
            previous = label
    return tuple(out)


def interleave_blanks(target: Sequence[int], blank_index: int) -> tuple[int, ...]:
    """The 2U+1 state sequence for the forward algorithm: blanks between,
    before, and after the target tokens."""
    out = [blank_index]
    for token in target:
        out.append(token)
        out.append(blank_index)
    return tuple(out)


def ctc_min_frames(target: Sequence[int]) -> int:
    """Fewest frames any path collapsing to ``target`` can have: one per
    token plus one separator blank per adjacent equal pair."""
    target = tuple(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


def ctc_loss(grid: PosteriorGrid | np.ndarray, target: Sequence[int]) -> float:
    """-log of the total probability of all paths collapsing to ``target``.

    Standard forward algorithm over the S = 2U+1 blank-interleaved states in
    log space. Finite and non-negative for feasible targets; ``inf`` when no
    path collapses to the target (too few frames, or every such path has
    probability zero).

    At frame t of T only the band of states ``[max(0, S - 2(T-t)),
    min(S, 2t+2))`` is updated: a state above it is unreachable from the
    start and one below it cannot reach the two final states, so skipping
    them changes no value that reaches the result. The band is empty for
    every frame when U > T, and the loss is then ``inf`` without a pass.
    Emission log-probabilities are gathered per state in chunks of a fixed
    number of frames, so they take O(chunk x S) memory, not O(T x S); the
    forward variables take two preallocated rows of S + 2.
    """
    grid = _as_grid(grid)
    target = _validated_target(target, grid.num_tokens)
    states = np.asarray(interleave_blanks(target, grid.blank_index))
    num_states = len(states)
    frames = grid.num_frames
    if num_states >= 2 * frames + 2:
        return math.inf

    # A state may additionally inherit from two states back when that skip
    # does not jump over a required separator blank.
    can_skip = np.zeros(num_states, dtype=bool)
    can_skip[2:] = (states[2:] != grid.blank_index) & (states[2:] != states[:-2])

    # alpha of the previous and the current frame; state s lives at index
    # s + 2, behind two -inf pads that stand for the states s-1 and s-2 of
    # s = 0. An entry above the band is never written, so it stays -inf.
    prev = np.full(num_states + 2, -np.inf)
    cur = np.full(num_states + 2, -np.inf)
    for start in range(0, frames, _EMISSION_CHUNK_FRAMES):
        with np.errstate(divide="ignore"):
            emit = np.log(grid.probs[start : start + _EMISSION_CHUNK_FRAMES])[:, states]
        for t in range(start, start + len(emit)):
            lo = max(0, num_states - 2 * (frames - t))
            hi = min(num_states, 2 * t + 2)
            out = cur[lo + 2 : hi + 2]
            if t == 0:
                out[:] = emit[0, lo:hi]
            else:
                np.logaddexp(prev[lo + 2 : hi + 2], prev[lo + 1 : hi + 1], out=out)
                np.logaddexp(out, prev[lo:hi], out=out, where=can_skip[lo:hi])
                out += emit[t - start, lo:hi]
            prev, cur = cur, prev

    log_total = prev[-1] if num_states == 1 else np.logaddexp(prev[-1], prev[-2])
    return math.inf if log_total == -np.inf else float(-log_total)


def ctc_loss_bruteforce(grid: PosteriorGrid | np.ndarray, target: Sequence[int]) -> float:
    """Literal enumeration oracle for :func:`ctc_loss`.

    Walks every one of the (K+1)^T frame-level paths, sums the probabilities
    of those whose collapse equals ``target``, and returns -log of the sum.
    Paths are materialized in fixed-size chunks by mixed-radix decoding of
    the path index, so memory stays bounded.

    Raises:
        ValueError: if (K+1)^T exceeds 10^7.
    """
    grid = _as_grid(grid)
    probs = grid.probs
    frames, width = probs.shape
    blank = grid.blank_index
    target = _validated_target(target, grid.num_tokens)

    num_paths = width**frames
    if num_paths > _BRUTEFORCE_MAX_PATHS:
        raise ValueError(f"{num_paths} paths exceed the brute-force budget of {_BRUTEFORCE_MAX_PATHS}")

    target_arr = np.asarray(target, dtype=np.int64)
    digits = width ** np.arange(frames - 1, -1, -1, dtype=np.int64)
    frame_index = np.arange(frames)

    total = 0.0
    chunk = 1 << 16
    for lo in range(0, num_paths, chunk):
        ids = np.arange(lo, min(lo + chunk, num_paths), dtype=np.int64)
        paths = (ids[:, None] // digits) % width
        path_probs = probs[frame_index, paths].prod(axis=1)

        survives = np.ones(paths.shape, dtype=bool)
        survives[:, 1:] = paths[:, 1:] != paths[:, :-1]
        survives &= paths != blank
        candidates = survives.sum(axis=1) == len(target)
        if len(target) == 0:
            total += path_probs[candidates].sum()
        elif np.any(candidates):
            tokens = paths[candidates][survives[candidates]].reshape(-1, len(target))
            matches = (tokens == target_arr).all(axis=1)
            total += path_probs[candidates][matches].sum()

    return -math.log(total) if total > 0.0 else math.inf


def attention_loss(stepwise_probs: Sequence[Sequence[float]] | np.ndarray, target: Sequence[int]) -> float:
    """Autoregressive cross-entropy: -sum over steps of log p(target token).

    ``stepwise_probs`` holds one distribution over the K tokens per output
    step (rows sum to 1 within 1e-6). Empty targets score 0. A zero
    probability at any target position makes the loss ``inf``.
    """
    probs = np.asarray(stepwise_probs, dtype=np.float64)
    target = tuple(int(t) for t in target)
    if len(target) == 0 and probs.size == 0:
        return 0.0
    if probs.ndim != 2:
        raise ValueError(f"stepwise_probs must be 2-D, got shape {probs.shape}")
    if probs.shape[0] != len(target):
        raise ValueError(f"{probs.shape[0]} steps for {len(target)} target tokens")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValueError("stepwise probabilities must lie in [0, 1]")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > _ROW_SUM_TOL):
        raise ValueError(f"every step distribution must sum to 1 within {_ROW_SUM_TOL}")
    _validated_target(target, probs.shape[1])

    picked = probs[np.arange(len(target)), np.asarray(target)]
    if np.any(picked == 0.0):
        return math.inf
    return float(-np.sum(np.log(picked)))


def mtl_loss(ctc_loss_value: float, attention_loss_value: float, task_weight: float) -> float:
    """Convex combination of the two training losses.

    The endpoints return the corresponding loss verbatim, so an infinite
    partner loss cannot leak NaNs into a pure single-task score.
    """
    if not 0.0 <= task_weight <= 1.0:
        raise ValueError(f"task_weight must be in [0, 1], got {task_weight}")
    if task_weight == 0.0:
        return attention_loss_value
    if task_weight == 1.0:
        return ctc_loss_value
    return task_weight * ctc_loss_value + (1.0 - task_weight) * attention_loss_value


def _weighted(weight: float, value: float) -> float:
    # 0 * -inf would be NaN; a zero weight always removes the term instead.
    return 0.0 if weight == 0.0 else weight * value


def fused_score(hypothesis: Hypothesis, weights: FusionWeights) -> float:
    """Decode-time score: CTC and attention log-probabilities interpolated by
    ``ctc_weight``, plus ``lm_weight`` times the language-model log-probability."""
    return (
        _weighted(weights.ctc_weight, hypothesis.log_p_ctc)
        + _weighted(1.0 - weights.ctc_weight, hypothesis.log_p_att)
        + _weighted(weights.lm_weight, hypothesis.log_p_lm)
    )


def rescore_hypotheses(hypotheses: Sequence[Hypothesis], weights: FusionWeights) -> Hypothesis:
    """The hypothesis with the highest fused score.

    Ties break toward the lexicographically smaller token sequence, then
    toward the earlier list position. The returned hypothesis carries its
    ``fused_score``.

    Raises:
        ValueError: if the list is empty, if a fused score is NaN (naming the
            list position of the first such hypothesis), or if two hypotheses
            tie and their token sequences cannot be compared (say a string
            and an integer at the same place).
    """
    if not hypotheses:
        raise ValueError("cannot rescore an empty hypothesis list")
    best = None
    best_score = -math.inf
    for position, hypothesis in enumerate(hypotheses):
        score = fused_score(hypothesis, weights)
        if math.isnan(score):
            raise ValueError(f"hypothesis at list position {position} has a NaN fused score")
        if best is not None and score == best_score:
            try:
                better = hypothesis.tokens < best.tokens
            except TypeError:
                raise ValueError(
                    f"hypotheses at list positions {best_position} and {position} tie on fused score, "
                    f"but their tokens {best.tokens!r} and {hypothesis.tokens!r} cannot be ordered"
                ) from None
        else:
            better = best is None or score > best_score
        if better:
            best, best_score, best_position = hypothesis, score, position
    return replace(best, fused_score=best_score)


def greedy_ctc_decode(grid: PosteriorGrid | np.ndarray) -> tuple[int, ...]:
    """Best-path decode: per-frame argmax (ties toward the lower index),
    collapsed."""
    grid = _as_grid(grid)
    path = np.argmax(grid.probs, axis=1)
    return collapse(path.tolist(), grid.blank_index)


def tabular_lm_score(
    table: Mapping[tuple, float], tokens: Sequence, floor: float = _LM_FLOOR
) -> float:
    """Log-probability of a token sequence under an explicit finite table.

    Sequences outside the table's support (or with a non-positive entry)
    get ``log(floor)``.

    Raises:
        ValueError: if the table's probabilities sum to more than 1.
    """
    mass = sum(table.values())
    if mass > 1.0 + 1e-9:
        raise ValueError(f"table probabilities sum to {mass}, more than 1")
    p = table.get(tuple(tokens), 0.0)
    return math.log(p) if p > 0.0 else math.log(floor)


def save_grid(grid: PosteriorGrid, path: str | Path) -> None:
    """Write a posterior grid as a PST1 container (float32 on disk)."""
    write_matrix(grid.probs, path, POSTERIORS_MAGIC)


def load_grid(path: str | Path) -> PosteriorGrid:
    """Read a PST1 container; row distributions are re-validated on load."""
    return PosteriorGrid(read_matrix(path, POSTERIORS_MAGIC))


def load_hypotheses(path: str | Path) -> list[Hypothesis]:
    """Read a JSONL hypothesis list in file order, skipping blank lines. Each
    line holds ``tokens`` (a list), ``log_p_ctc``, ``log_p_att`` and
    ``log_p_lm``; a bad line is a ``ValueError`` reading ``"<path>: line N: ..."``.
    """
    hypotheses = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                scores = (float(obj[key]) for key in ("log_p_ctc", "log_p_att", "log_p_lm"))
                hypotheses.append(Hypothesis(tuple(obj["tokens"]), *scores))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
    return hypotheses
