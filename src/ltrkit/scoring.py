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
than raising, so batch scoring never aborts. A log-probability of ``-inf``
stands for probability zero.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, FrozenArray, at_least, float_array, fraction, json_objects, number, positive
from .matrix_io import POSTERIORS_MAGIC, MatrixFormatError, read_matrix, write_matrix

__all__ = [
    "FusionWeights",
    "Hypothesis",
    "PosteriorGrid",
    "Vocabulary",
    "attention_loss",
    "collapse",
    "ctc_loss",
    "ctc_loss_bruteforce",
    "ctc_loss_labels",
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
_RESCALE_FRAMES = 32
# The log-probability fields of a Hypothesis, as JSONL hypothesis lists name them.
_SCORE_KEYS = ("log_p_ctc", "log_p_att", "log_p_lm")


@dataclass(frozen=True)
class Vocabulary:
    """An ordered set of K distinct token labels. The blank label is not a
    member; it implicitly occupies index K (the last grid column)."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 1:
            raise DataError("vocabulary needs at least one token")
        if len(set(tokens)) != len(tokens):
            raise DataError("vocabulary labels must be distinct")

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
        try:
            return tuple(self.index(label) for label in labels)
        except KeyError as exc:  # an unknown label is bad input here
            raise DataError(exc.args[0]) from None

    def decode(self, indices: Sequence[int]) -> list[str]:
        return [self.tokens[i] for i in indices]


@dataclass(frozen=True)
class PosteriorGrid(FrozenArray):
    """Per-frame token probabilities: T rows over K tokens plus blank. An
    immutable :class:`~ltrkit.errors.FrozenArray`; a loaded grid is adopted."""

    probs: np.ndarray

    def _check(self) -> None:
        if self.probs.ndim != 2 or self.probs.shape[0] < 1 or self.probs.shape[1] < 2:
            raise DataError(f"grid must be (frames, tokens+blank) with at least one of each, got shape {self.probs.shape}")
        _check_distributions(self.probs, "grid")  # rejects NaN and infinities too

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
    recomputable from the components and the weights used. A component that
    is NaN or ``+inf`` is a :class:`DataError`; ``-inf`` (probability zero)
    is valid.
    """

    tokens: tuple
    log_p_ctc: float
    log_p_att: float
    log_p_lm: float
    fused_score: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for name in _SCORE_KEYS:
            value = getattr(self, name)
            if not number(name, value) < math.inf:  # NaN fails too
                raise DataError(f"{name} must be a log-probability below +inf, got {value}")


@dataclass(frozen=True)
class FusionWeights:
    """Weights for score fusion.

    ``ctc_weight`` interpolates between the CTC and attention log-probabilities
    at decode time, and ``lm_weight`` scales the language-model contribution.
    """

    ctc_weight: float
    lm_weight: float

    def __post_init__(self) -> None:
        fraction("ctc_weight", self.ctc_weight)
        if not 0.0 <= number("lm_weight", self.lm_weight) < math.inf:
            raise DataError(f"lm_weight must be finite and non-negative, got {self.lm_weight}")


def _check_distributions(probs: np.ndarray, what: str) -> None:
    """Entries of the 2-D ``probs`` finite and in [0, 1], rows summing to 1."""
    # Written so that NaN, for which every comparison is False, fails too.
    if not np.all((probs >= 0.0) & (probs <= 1.0)):
        raise DataError(f"{what} entries must be finite and lie in [0, 1]")
    sums = probs.sum(axis=1)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums[worst] - 1.0) > _ROW_SUM_TOL:
        raise DataError(f"{what} row {worst} sums to {float(sums[worst])!r}, but each row must sum to 1 within {_ROW_SUM_TOL}")


def _as_grid(grid: PosteriorGrid | np.ndarray) -> PosteriorGrid:
    return grid if isinstance(grid, PosteriorGrid) else PosteriorGrid(grid)


def _validated_target(target: Sequence[int], num_tokens: int | float, name: str = "target") -> tuple[int, ...]:
    try:
        tokens = tuple(target)
    except TypeError:
        raise DataError(f"{name} must be a sequence of token indices, got {target!r}") from None
    what = f"{name} token"
    try:
        indices = tuple(map(operator.index, tokens))  # at_least's test, without a call per token
    except TypeError:
        indices = None
    if indices is None or min(indices, default=0) < 0:
        indices = tuple(at_least(what, t, 0) for t in tokens)  # raises, naming the first bad token
    if indices and max(indices) >= num_tokens:
        raise DataError(f"{what} {next(t for t in indices if t >= num_tokens)} is outside [0, {num_tokens})")
    return indices


def collapse(path: Sequence[int], blank_index: int) -> tuple[int, ...]:
    """Reduce a frame-level path to its token sequence: drop consecutive
    duplicates, then drop blanks."""
    path = _validated_target(path, math.inf, "path")
    blank_index = at_least("blank_index", blank_index, 0)
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
    return tuple(_interleave(_validated_target(target, math.inf), at_least("blank_index", blank_index, 0)))


def _interleave(target: tuple[int, ...], blank_index: int) -> list[int]:
    """:func:`interleave_blanks` of a checked target and blank index."""
    states = [blank_index] * (2 * len(target) + 1)
    states[1::2] = target
    return states


def ctc_min_frames(target: Sequence[int]) -> int:
    """Fewest frames any path collapsing to ``target`` can have: one per
    token plus one separator blank per adjacent equal pair."""
    return _min_frames(_validated_target(target, math.inf))


def _min_frames(target: tuple[int, ...]) -> int:
    """:func:`ctc_min_frames` of a checked target."""
    return len(target) + sum(1 for a, b in zip(target, target[1:]) if a == b)


def _ctc_lattice(grid: PosteriorGrid, target: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The states of ``target`` and, per state, whether it may also inherit
    from two states back (a skip over no required separator blank)."""
    states = np.array(_interleave(target, grid.blank_index))
    can_skip = np.zeros(len(states), dtype=bool)
    can_skip[2:] = (states[2:] != grid.blank_index) & (states[2:] != states[:-2])
    return states, can_skip


def ctc_loss(grid: PosteriorGrid | np.ndarray, target: Sequence[int]) -> float:
    """-log of the total probability of all paths collapsing to ``target``.

    Forward-backward over the S = 2U+1 blank-interleaved states (Graves et
    al. 2006). Finite for feasible targets, and at least -T*log1p(1e-6), as
    rows may sum to 1 + 1e-6; ``inf`` when no path collapses to the target:
    at once if it needs more than T frames (:func:`ctc_min_frames`), else if
    every such path has probability zero.

    The lattice is walked from both ends at once. The forward half takes
    frames 0 to m = ceil(T/2) - 1 and the backward half frames T-1 down to
    m+1, a frame each per step, and the halves meet between m and m+1:
    P = sum over s of alpha_m(s) * (beta_m+1(s) + beta_m+1(s+1) + skip(s+2) *
    beta_m+1(s+2)), summed pairwise. An odd T gives frame 0 to the forward
    half alone, so at T = 1 the pass is that frame. The backward half holds
    state S-1-r at r: it is the forward pass of the reversed target over the
    reversed frames, and reads states r, r-1 and r-2 as the forward half
    does. One row, [pad pad | forward | pad pad | backward], holds both, so
    each of a step's four numpy calls serves both halves.

    At frame t only the band of states ``[max(0, S - 2(T-t)), min(S,
    2t+2))`` can lie on a complete path (:func:`_ctc_window`; for the
    backward half, in its own frames and states). The steps are walked in
    blocks of 32, and each step of a block updates one slice of the row:
    from the forward band's lower edge at the block's first step to the
    backward band's upper edge at its last, through views built once per
    block. The extra cells change no value that reaches the result. A cell
    above a band sums zeros and stays +0.0, and the inner pads emit 0. A
    state inherits only from itself and the one or two below it, and a lower
    edge rises by two a step once it is above 0, so a cell below a band
    feeds only cells below that band. Every cell of a band thus sees the
    operations the band alone would, in the same order, and a product at
    the meeting that takes a cell outside a band takes a +0.0 too. Emission
    probabilities are gathered per block, so they take O(32 x S) memory, not
    O(T x S); the halves take two rows of 2S + 4.

    The pass runs in probability space, scaled as in Rabiner (1989): after
    every block, each half's band is multiplied by the power of two that
    brings its maximum into [1/2, 1), and each half keeps its own exponent.
    That is exact. Nothing overflows in between: a cell passes its value
    only to itself and the one or two states above it, which emit distinct
    labels, so a step multiplies the total of the cells it reads by at most
    1 + 1e-6. A band thus stays below S(1 + 1e-6)^32 between rescales, and
    a cell below it, which gathers at most two of its cells a step, below
    6TS(1 + 1e-6)^(T+32). Rounding moves log P by at most about (3T +
    ceil(log2 S) + 3)*2^-53: three roundings a frame, three at the meeting
    and those of the pairwise sum. The result stays within that times
    max(1, loss) of the exact log-space pass. Forward and backward
    probabilities stay below (1 + 1e-6)^T, and each half's scale below 2(1 +
    1e-6)^T. So an operation that rounds into the subnormal range (flushes
    to 0 too) moves P by at most 2^-1074(1 + 1e-6)^T, twice that for a
    product of the two halves at the meeting. Counting those twice, there
    are at most 3*T*S such operations: a skip of 0 adds an exact 0 and each
    half's first frame is exact, so each later frame takes fewer than 2.5S,
    rescales add S*T/32 and the meeting 3.5S (none at T = 1). They move P
    by one rounding, 2^-53 P, at most, while the loss is at most 1021 ln 2
    - ln(3*T*S) - T*log1p(1e-6). A larger scaled loss, or a scaled total of
    0, is recomputed in log space.
    """
    grid = _as_grid(grid)
    target = _validated_target(target, grid.num_tokens)
    frames = grid.num_frames
    if _min_frames(target) > frames:
        return math.inf
    states, can_skip = _ctc_lattice(grid, target)
    num_states = len(states)
    back = num_states + 2  # joint state of the backward half's state 0

    # Held as in _ctc_log_loss, with 0 for probability zero, joint state j at
    # index j + 2. The backward half's skips are the forward half's read
    # backwards, two states on. A skip is a product with 0 or 1, which is
    # exact and cheaper than a masked sum.
    skip = np.concatenate((can_skip, [False] * 4, can_skip[::-1]))[:-2].astype(np.float64)
    spare = np.empty(len(skip))
    rows = np.zeros((2, len(skip) + 2))
    alpha, beta = rows[0, 2:back], rows[0, back + 2 :]
    first = frames % 2  # an odd T gives frame 0 to the forward half alone
    if first:
        alpha[:2] = grid.probs[0, states[:2]]
    else:
        alpha[0] = 1.0  # before frame 0
    beta[0] = 1.0  # after frame T - 1
    pads = np.zeros((_RESCALE_FRAMES, 2))
    steps = frames // 2
    exponent = 0  # P is the held total times 2**exponent
    for k0 in range(0, steps, _RESCALE_FRAMES):
        k1 = min(k0 + _RESCALE_FRAMES, steps)
        lo = _ctc_window(first + k0, first + k1, frames, num_states)[0]
        top = _ctc_window(k0, k1, frames, num_states)[1]
        ahead = grid.probs[first + k0 : first + k1][:, states[lo:]]
        behind = grid.probs[frames - k1 : frames - k0][::-1][:, states[::-1][:top]]
        emit = np.concatenate((ahead, pads[: k1 - k0], behind), axis=1)
        skip_w, spare_w = skip[lo : back + top], spare[lo : back + top]
        views = _ctc_views(rows, lo, back + top)
        for k, row in enumerate(emit):
            p0, p1, p2, out = views[k & 1]
            np.add(p0, p1, out=out)
            out += np.multiply(p2, skip_w, out=spare_w)
            out *= row
        if k1 - k0 == _RESCALE_FRAMES:  # an even block: rows[0] holds its last step
            for half, t in ((alpha, first + k1 - 1), (beta, k1 - 1)):
                band = half[slice(*_ctc_window(t, t + 1, frames, num_states))]
                shift = math.frexp(np.maximum.reduce(band))[1]
                np.ldexp(band, -shift, out=band)
                exponent += shift

    last = rows[steps & 1]  # the bracket of P, in the backward half's order
    after = last[back + 2 :] + last[back + 1 : -1] + skip[back:] * last[back:-2]
    total = np.add.reduce(last[2:back] * after[::-1])
    exact_above = 1021 * math.log(2.0) - math.log(3 * frames * num_states) - frames * math.log1p(_ROW_SUM_TOL)
    if total > 0.0 and (loss := 0.0 - (math.log(total) + exponent * math.log(2.0))) <= exact_above:
        return loss  # 0.0 - keeps a sure target at +0.0
    return _ctc_log_loss(grid, states, can_skip)


def _ctc_log_loss(grid: PosteriorGrid, states: np.ndarray, can_skip: np.ndarray) -> float:
    """:func:`ctc_loss` of a checked grid and a target's :func:`_ctc_lattice`
    by the exact forward pass in log space, in blocks of ``_RESCALE_FRAMES``
    frames over each block's window (:func:`_ctc_window`), its emissions
    gathered per block as in :func:`ctc_loss`."""
    frames, num_states = grid.num_frames, len(states)

    # -inf for probability zero: an entry no window has reached, and the two
    # pads, stay -inf.
    rows = np.full((2, num_states + 2), -np.inf)
    for t0 in range(0, frames, _RESCALE_FRAMES):
        t1 = min(t0 + _RESCALE_FRAMES, frames)
        lo, hi = _ctc_window(t0, t1, frames, num_states)
        skip_w, steps = can_skip[lo:hi], _ctc_views(rows, lo, hi)
        with np.errstate(divide="ignore"):
            emit = np.log(grid.probs[t0:t1][:, states[lo:hi]])
        for t, row in enumerate(emit, t0):
            p0, p1, p2, out = steps[t & 1]
            if t == 0:
                out[: max(0, 2 - lo)] = row[: max(0, 2 - lo)]
            else:
                np.logaddexp(p0, p1, out=out)
                np.logaddexp(out, p2, out=out, where=skip_w)
                out += row

    last = rows[frames % 2]
    log_total = last[-1] if num_states == 1 else np.logaddexp(last[-1], last[-2])
    return math.inf if log_total == -np.inf else float(0.0 - log_total)


def _ctc_window(t0: int, t1: int, frames: int, num_states: int) -> tuple[int, int]:
    """The states ``[lo, hi)`` that can lie on a complete path at some frame
    in ``[t0, t1)``: a state at or above ``hi`` is unreachable from the start
    by frame ``t1 - 1``, and one below ``lo`` cannot reach the two final
    states from frame ``t0``. For ``t1 = t0 + 1`` it is the band of frame ``t0``."""
    return max(0, num_states - 2 * (frames - t0)), min(num_states, 2 * t1)


def _ctc_views(rows: np.ndarray, lo: int, hi: int):
    """For two rows of lattice variables, state s at index s + 2, the views
    ``steps[t & 1] = (p0, p1, p2, out)`` that step t reads as states s, s - 1
    and s - 2 and writes as state s, over the states ``[lo, hi)``."""
    even, odd = rows
    e0, o0 = even[lo + 2 : hi + 2], odd[lo + 2 : hi + 2]
    return (e0, even[lo + 1 : hi + 1], even[lo:hi], o0), (o0, odd[lo + 1 : hi + 1], odd[lo:hi], e0)


def ctc_loss_labels(grid: PosteriorGrid, vocab: Vocabulary, labels: Sequence[str]) -> float:
    """:func:`ctc_loss` of a target given by its labels, ``vocab`` naming the
    grid's token columns in order. A vocabulary of another width than the
    grid, or an unknown label, is a :class:`DataError`."""
    if grid.num_tokens != vocab.size:
        raise DataError(f"grid has {grid.num_tokens} token columns but the vocabulary has {vocab.size}")
    return ctc_loss(grid, vocab.encode(labels))


def ctc_loss_bruteforce(grid: PosteriorGrid | np.ndarray, target: Sequence[int]) -> float:
    """Literal enumeration oracle for :func:`ctc_loss`.

    Walks every one of the (K+1)^T frame-level paths, sums the probabilities
    of those whose collapse equals ``target``, and returns -log of the sum.
    Paths are materialized in fixed-size chunks by mixed-radix decoding of
    the path index, so memory stays bounded.

    Raises:
        DataError: if (K+1)^T exceeds 10^7.
    """
    grid = _as_grid(grid)
    probs = grid.probs
    frames, width = probs.shape
    blank = grid.blank_index
    target = _validated_target(target, grid.num_tokens)

    num_paths = width**frames
    if num_paths > _BRUTEFORCE_MAX_PATHS:
        raise DataError(f"{num_paths} paths exceed the brute-force budget of {_BRUTEFORCE_MAX_PATHS}")

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

    return 0.0 - math.log(total) if total > 0.0 else math.inf


def attention_loss(stepwise_probs: Sequence[Sequence[float]] | np.ndarray, target: Sequence[int]) -> float:
    """Autoregressive cross-entropy: -sum over steps of log p(target token).

    ``stepwise_probs`` holds one distribution over the K tokens per output
    step (rows sum to 1 within 1e-6). Empty targets score 0. A zero
    probability at any target position makes the loss ``inf``.
    """
    probs = float_array("stepwise_probs", stepwise_probs)
    target = _validated_target(target, probs.shape[1] if probs.ndim == 2 else math.inf)  # a non-2-D probs fails below
    if len(target) == 0 and probs.size == 0:
        return 0.0
    if probs.ndim != 2:
        raise DataError(f"stepwise_probs must be 2-D, got shape {probs.shape}")
    if probs.shape[0] != len(target):
        raise DataError(f"{probs.shape[0]} steps for {len(target)} target tokens")
    _check_distributions(probs, "stepwise probability")

    picked = probs[np.arange(len(target)), np.asarray(target)]
    if np.any(picked == 0.0):
        return math.inf
    return float(0.0 - np.sum(np.log(picked)))


def mtl_loss(ctc_loss_value: float, attention_loss_value: float, task_weight: float) -> float:
    """Convex combination of the two training losses, each a number other
    than NaN or ``-inf`` at every weight (``+inf`` is an infeasible CTC
    target). A zero weight drops its loss, so an infinite partner loss cannot
    leak NaNs into a pure single-task score.
    """
    fraction("task_weight", task_weight)
    for name, value in (("ctc_loss_value", ctc_loss_value), ("attention_loss_value", attention_loss_value)):
        if not -math.inf < number(name, value):  # NaN fails too
            raise DataError(f"{name} must be a loss above -inf, got {value}")
    return _weighted(task_weight, ctc_loss_value) + _weighted(1.0 - task_weight, attention_loss_value)


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
        DataError: if the list is empty, if a fused score is NaN (naming the
            list position of the first such hypothesis), or if two hypotheses
            tie and their token sequences cannot be compared (say a string
            and an integer at the same place).
    """
    if not hypotheses:
        raise DataError("cannot rescore an empty hypothesis list")
    best = None
    best_score = -math.inf
    for position, hypothesis in enumerate(hypotheses):
        score = fused_score(hypothesis, weights)
        if math.isnan(score):
            raise DataError(f"hypothesis at list position {position} has a NaN fused score")
        if best is not None and score == best_score:
            try:
                better = hypothesis.tokens < best.tokens
            except TypeError:
                raise DataError(
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
        DataError: if a table probability is not a number, or is NaN or
            infinite, if the table's probabilities sum to more than 1, or if
            ``floor`` is not positive and finite.
    """
    positive("floor", floor)
    mass = sum(number("table probability", p) for p in table.values())
    if not math.isfinite(mass):  # a NaN or infinite entry makes the sum one too
        raise DataError(f"table probabilities must be finite, they sum to {mass}")
    if mass > 1.0 + 1e-9:
        raise DataError(f"table probabilities sum to {mass}, more than 1")
    p = table.get(tuple(tokens), 0.0)
    return math.log(p) if p > 0.0 else math.log(floor)


def save_grid(grid: PosteriorGrid, path: str | Path) -> None:
    """Write a posterior grid as a PST1 container (float32 on disk)."""
    write_matrix(grid.probs, path, POSTERIORS_MAGIC)


def load_grid(path: str | Path) -> PosteriorGrid:
    """Read a PST1 container; row distributions are re-validated on load.

    Raises:
        MatrixFormatError: a wrong magic or size, or a grid that is not a
            valid :class:`PosteriorGrid`; the message names ``path``.
    """
    return PosteriorGrid._adopt(read_matrix(path, POSTERIORS_MAGIC), path=path, error=MatrixFormatError)


def load_hypotheses(path: str | Path) -> list[Hypothesis]:
    """Read a JSONL hypothesis list in file order, skipping blank lines. Each
    line is a JSON object holding ``tokens`` (a JSON list of any values but
    NaN and infinities), and ``log_p_ctc``, ``log_p_att`` and ``log_p_lm``
    (JSON numbers, not strings or booleans); a bad line, or a file that is not
    UTF-8 text, is a ``DataError`` naming the path (and the line:
    ``"<path>: line N: ..."``).
    """
    hypotheses = []
    for where, obj in json_objects(path, fields={"tokens": "list", **dict.fromkeys(_SCORE_KEYS, "number")}):
        try:
            json.dumps(obj["tokens"], allow_nan=False)
        except ValueError:
            raise DataError(f"{where}: tokens must not hold NaN or an infinity") from None
        try:
            hypotheses.append(Hypothesis(tuple(obj["tokens"]), *(float(obj[key]) for key in _SCORE_KEYS)))
        except (DataError, OverflowError) as exc:  # a score of +inf, or an integer too large for a float
            raise DataError(f"{where}: {exc}") from exc
    return hypotheses
