import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrkit import scoring
from ltrkit.errors import DataError
from ltrkit.matrix_io import MatrixFormatError
from ltrkit.scoring import (
    FusionWeights,
    Hypothesis,
    PosteriorGrid,
    Vocabulary,
    attention_loss,
    collapse,
    ctc_loss,
    ctc_loss_bruteforce,
    ctc_min_frames,
    fused_score,
    greedy_ctc_decode,
    interleave_blanks,
    load_grid,
    load_hypotheses,
    mtl_loss,
    rescore_hypotheses,
    save_grid,
    tabular_lm_score,
)


def random_grid(rng, frames, num_tokens, zero_fraction=0.0):
    probs = rng.uniform(0.05, 1.0, size=(frames, num_tokens + 1))
    if zero_fraction:
        mask = rng.uniform(size=probs.shape) < zero_fraction
        mask[mask.all(axis=1)] = False  # keep every row normalizable
        probs[mask] = 0.0
    return PosteriorGrid(probs / probs.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------- collapse


@pytest.mark.parametrize(
    "path, expected",
    [
        ([0, 0, 2, 1], (0, 1)),
        ([2, 2, 2], ()),
        ([0, 2, 0], (0, 0)),
        ([], ()),
        ([1], (1,)),
    ],
)
def test_collapse(path, expected):
    assert collapse(path, blank_index=2) == expected


def test_collapse_is_idempotent_via_blank_padding():
    rng = np.random.default_rng(0)
    for _ in range(50):
        path = rng.integers(0, 3, size=rng.integers(1, 10)).tolist()
        once = collapse(path, 2)
        padded = [2] + [t for token in once for t in (token, 2)]
        assert collapse(padded, 2) == once


def test_interleave_blanks():
    assert interleave_blanks([], 9) == (9,)
    assert interleave_blanks([0, 0, 1], 9) == (9, 0, 9, 0, 9, 1, 9)


@pytest.mark.parametrize("target, expected", [([], 0), ([0], 1), ([0, 1], 2), ([0, 0], 3), ([1, 1, 1], 5)])
def test_ctc_min_frames(target, expected):
    assert ctc_min_frames(target) == expected


# ---------------------------------------------------------------- ctc loss


def test_ctc_single_frame_single_token():
    grid = PosteriorGrid(np.array([[0.7, 0.3]]))
    assert ctc_loss(grid, [0]) == pytest.approx(-math.log(0.7), rel=1e-12)
    assert ctc_loss(grid, []) == pytest.approx(-math.log(0.3), rel=1e-12)


def test_ctc_uniform_two_frame_hand_enumeration():
    # paths over {a, blank}^2: aa, a., .a collapse to [a]; each 0.25
    grid = np.full((2, 2), 0.5)
    assert ctc_loss(grid, [0]) == pytest.approx(-math.log(0.75), rel=1e-12)
    assert ctc_loss_bruteforce(grid, [0]) == pytest.approx(-math.log(0.75), rel=1e-12)


def test_ctc_infeasible_repeat_needs_separator():
    grid = np.full((2, 2), 0.5)
    assert ctc_loss(grid, [0, 0]) == math.inf
    assert ctc_loss_bruteforce(grid, [0, 0]) == math.inf


@pytest.mark.parametrize("frames, target", [(4, (0, 0, 0)), (3, (0, 1, 1)), (5, (1, 1, 0, 0))])
def test_a_repeat_infeasible_target_scores_inf_without_a_pass(monkeypatch, frames, target):
    # U <= T < U + repeats: the band has states at every frame, but no path fits.
    def no_pass(*args):
        raise AssertionError("a forward pass ran")

    monkeypatch.setattr(scoring, "_ctc_lattice", no_pass)
    monkeypatch.setattr(scoring, "_ctc_log_loss", no_pass)
    assert len(target) <= frames < ctc_min_frames(target)
    assert ctc_loss(np.full((frames, 3), 1 / 3), target) == math.inf


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ctc_is_inf_exactly_when_the_target_needs_more_frames_than_the_grid(data):
    frames = data.draw(st.integers(1, 10), label="frames")
    num_tokens = data.draw(st.integers(1, 3), label="num_tokens")
    row = st.lists(st.floats(0.05, 1.0), min_size=num_tokens + 1, max_size=num_tokens + 1)
    probs = np.array(data.draw(st.lists(row, min_size=frames, max_size=frames), label="rows"))
    grid = PosteriorGrid(probs / probs.sum(axis=1, keepdims=True))  # every entry positive
    target = data.draw(st.lists(st.integers(0, num_tokens - 1), max_size=frames + 2), label="target")
    loss = ctc_loss(grid, target)
    assert math.isinf(loss) == (ctc_min_frames(target) > frames)
    if (num_tokens + 1) ** frames <= 20_000:
        want = ctc_loss_bruteforce(grid, target)
        assert loss == want or loss == pytest.approx(want, rel=1e-9)


def test_ctc_empty_target_single_frame():
    grid = PosteriorGrid(np.array([[0.25, 0.25, 0.5]]))
    assert ctc_loss_bruteforce(grid, []) == pytest.approx(-math.log(0.5), rel=1e-12)


def test_ctc_zero_probability_token_gives_inf_not_crash():
    grid = PosteriorGrid(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert ctc_loss(grid, [0]) == math.inf
    assert ctc_loss_bruteforce(grid, [0]) == math.inf


def test_ctc_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(120):
        frames = int(rng.integers(1, 8))
        num_tokens = int(rng.integers(1, 4))
        grid = random_grid(rng, frames, num_tokens, zero_fraction=0.1 if rng.uniform() < 0.3 else 0.0)
        target = rng.integers(0, num_tokens, size=rng.integers(0, 5)).tolist()
        fast = ctc_loss(grid, target)
        slow = ctc_loss_bruteforce(grid, target)
        if math.isinf(slow):
            assert math.isinf(fast)
        else:
            assert fast == pytest.approx(slow, rel=1e-9)


def test_ctc_partitions_path_space():
    # exp(-loss) summed over every collapsed sequence must be 1
    rng = np.random.default_rng(7)
    for _ in range(10):
        frames = int(rng.integers(1, 7))
        num_tokens = int(rng.integers(1, 3))
        grid = random_grid(rng, frames, num_tokens)
        sequences = {collapse(p, num_tokens) for p in itertools.product(range(num_tokens + 1), repeat=frames)}
        total = sum(math.exp(-ctc_loss(grid, seq)) for seq in sequences)
        assert total == pytest.approx(1.0, abs=1e-6)


def _full_lattice_ctc_loss(grid, target):
    """The unbanded forward loop: every state at every frame, the whole grid's
    log taken up front, fresh arrays each frame. The banded log-space pass
    does the same arithmetic on the states that matter, so it must match this
    bit for bit."""
    states = np.asarray(interleave_blanks(target, grid.blank_index))
    num_states = len(states)
    with np.errstate(divide="ignore"):
        logp = np.log(grid.probs)
    alpha = np.full(num_states, -np.inf)
    alpha[0] = logp[0, states[0]]
    if num_states > 1:
        alpha[1] = logp[0, states[1]]
    can_skip = np.zeros(num_states, dtype=bool)
    can_skip[2:] = (states[2:] != grid.blank_index) & (states[2:] != states[:-2])
    for t in range(1, grid.num_frames):
        from_prev = np.concatenate(([-np.inf], alpha))[:num_states]
        from_skip = np.concatenate(([-np.inf, -np.inf], alpha))[:num_states]
        total = np.logaddexp(alpha, from_prev)
        total = np.where(can_skip, np.logaddexp(total, from_skip), total)
        alpha = total + logp[t, states]
    log_total = alpha[-1] if num_states == 1 else np.logaddexp(alpha[-1], alpha[-2])
    return math.inf if log_total == -np.inf else float(-log_total)


def _long_grid_cases():
    """(grid, target) pairs over grids of 1 to 900 frames that straddle the
    emission chunk, with zero entries or 1e-250 columns in every third grid."""
    rng = np.random.default_rng(2021)
    chunk = scoring._EMISSION_CHUNK_FRAMES
    frame_counts = [1, 2, 3, 8, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 700]
    frame_counts += rng.integers(1, 701, size=5).tolist()
    for case, frames in enumerate(frame_counts):
        num_tokens = int(rng.integers(1, 5))
        probs = rng.uniform(0.05, 1.0, size=(frames, num_tokens + 1))
        if case % 3 == 1:  # zero entries, never a whole row
            mask = rng.uniform(size=probs.shape) < 0.15
            mask[mask.all(axis=1)] = False
            probs[mask] = 0.0
        if case % 3 == 2:  # tiny token columns: a product of two such entries underflows to 0
            probs[:, rng.uniform(size=num_tokens + 1) < 0.5] *= 1e-250
            probs[:, -1] = np.maximum(probs[:, -1], 0.05)
        grid = PosteriorGrid(probs / probs.sum(axis=1, keepdims=True))
        half = (frames + 1) // 2
        targets = [
            (),
            tuple(rng.integers(0, num_tokens, size=rng.integers(1, half + 1)).tolist()),
            (0,) * half,  # repeats needing exactly `frames` frames when `frames` is odd
            (0,) * (half + 1),  # repeats needing more frames than the grid has
            tuple(rng.integers(0, num_tokens, size=frames).tolist()),
            tuple(rng.integers(0, num_tokens, size=frames + 1).tolist()),  # longer than the grid
        ]
        for target in targets:
            yield grid, target
    # Drawn after the cases above, which stay as they were: 900-frame grids
    # whose losses fall on both sides of the underflow bound of ctc_loss.
    for num_tokens, blank_odds in ((1, 1.0), (3, 1.0), (3, 1 / 3)):
        probs = rng.uniform(0.05, 1.0, size=(900, num_tokens + 1))
        probs[:, -1] = blank_odds * probs[:, :-1].sum(axis=1)  # a blank of one half or one quarter
        grid = PosteriorGrid(probs / probs.sum(axis=1, keepdims=True))
        for length in (0, 1, 50, 300):
            yield grid, tuple(rng.integers(0, num_tokens, size=length).tolist())


def test_ctc_matches_full_lattice_loop_exactly_on_long_grids():
    outcomes = {"finite": 0, "inf": 0}
    for grid, target in _long_grid_cases():
        want = _full_lattice_ctc_loss(grid, target)
        got = scoring._ctc_log_loss(grid, target)
        assert got == want or (math.isinf(got) and math.isinf(want)), (grid.num_frames, target)
        outcomes["inf" if math.isinf(want) else "finite"] += 1
    assert outcomes["finite"] >= 25 and outcomes["inf"] >= 25


def _exact_above(grid, target):
    """The loss above which ctc_loss's docstring finds that underflow may
    matter, and the log-space pass gives the result."""
    frames, states = grid.num_frames, 2 * len(target) + 1
    return 1021 * math.log(2.0) - math.log(3 * frames * states) - frames * math.log1p(1e-6)


def test_scaled_ctc_stays_within_rounding_of_the_log_space_pass():
    # The scaled pass adds and multiplies non-negative numbers, three steps
    # a frame with one relative rounding of at most 2^-53 each: about
    # 3*T*2^-53 on log P. The log-space pass rounds the running
    # log-probability instead, up to the loss times 2^-53 a step. So the two
    # may differ by 3*T*2^-53*max(1, loss).
    outcomes = {"scaled": 0, "exact": 0, "inf": 0}
    for grid, target in _long_grid_cases():
        want = scoring._ctc_log_loss(grid, target)
        got = ctc_loss(grid, target)
        assert ctc_loss(grid, target) == got  # deterministic
        if math.isinf(want):
            assert math.isinf(got), (grid.num_frames, target)
            outcomes["inf"] += 1
        elif want > _exact_above(grid, target):  # recomputed by the log-space pass itself
            assert got == want, (grid.num_frames, target)
            outcomes["exact"] += 1
        else:
            assert abs(got - want) <= 3 * grid.num_frames * 2.0**-53 * max(1.0, want), (grid.num_frames, target)
            outcomes["scaled"] += 1
    assert outcomes["scaled"] >= 25 and outcomes["exact"] >= 10 and outcomes["inf"] >= 25


def _seed_lattice(grid, target):
    states = np.asarray(interleave_blanks(target, grid.blank_index))
    can_skip = np.zeros(len(states), dtype=bool)
    can_skip[2:] = (states[2:] != grid.blank_index) & (states[2:] != states[:-2])
    return states, can_skip


def _seed_ctc_loss(grid, target):
    """The per-frame banded scaled pass that the per-block windows replaced,
    with its fallback to the log-space pass below, kept as the reference both
    must equal bit for bit: fresh band slices every frame, the band alone
    updated and rescaled."""
    target = tuple(target)
    frames = grid.num_frames
    if ctc_min_frames(target) > frames:
        return math.inf
    states, can_skip = _seed_lattice(grid, target)
    num_states = len(states)
    skip = can_skip.astype(np.float64)
    spare = np.empty(num_states)
    prev = np.zeros(num_states + 2)
    cur = np.zeros(num_states + 2)
    exponent = 0
    for start in range(0, frames, 128):
        emit = grid.probs[start : start + 128][:, states]
        for t in range(start, start + len(emit)):
            lo = max(0, num_states - 2 * (frames - t))
            hi = min(num_states, 2 * t + 2)
            out = cur[lo + 2 : hi + 2]
            if t == 0:
                out[:] = emit[0, lo:hi]
            else:
                np.add(prev[lo + 2 : hi + 2], prev[lo + 1 : hi + 1], out=out)
                out += np.multiply(prev[lo:hi], skip[lo:hi], out=spare[lo:hi])
                out *= emit[t - start, lo:hi]
            if t % 8 == 7:
                shift = math.frexp(out.max())[1]
                np.ldexp(out, -shift, out=out)
                exponent += shift
            prev, cur = cur, prev
    total = prev[-1] if num_states == 1 else prev[-1] + prev[-2]
    if total > 0.0 and (loss := 0.0 - (math.log(total) + exponent * math.log(2.0))) <= _exact_above(grid, target):
        return loss
    return _seed_ctc_log_loss(grid, target)


def _seed_ctc_log_loss(grid, target):
    """The per-frame banded log-space pass, the reference for _ctc_log_loss."""
    states, can_skip = _seed_lattice(grid, target)
    num_states = len(states)
    frames = grid.num_frames
    prev = np.full(num_states + 2, -np.inf)
    cur = np.full(num_states + 2, -np.inf)
    for start in range(0, frames, 128):
        with np.errstate(divide="ignore"):
            emit = np.log(grid.probs[start : start + 128])[:, states]
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
    return math.inf if log_total == -np.inf else float(0.0 - log_total)


def _window_cases():
    """(grid, target) pairs on both sides of each block and chunk edge."""
    rng = np.random.default_rng(21)
    for frames in (1, 7, 8, 9, 127, 128, 129, 1000):
        half = (frames + 1) // 2
        grids = [random_grid(rng, frames, 3, zero_fraction=0.1)]
        # blank holds nearly all the mass: the cells below the band, which
        # emitted few tokens, dwarf the band's before each rescale
        probs = np.full((frames, 4), 1e-3 / 3)
        probs[:, -1] = 1.0 - 1e-3
        grids.append(PosteriorGrid(probs))
        # a 1e-250 token: a total of two of them underflows, which falls back
        grids.append(PosteriorGrid(np.tile([1e-250, 0.25, 0.25, 0.5 - 1e-250], (frames, 1))))
        for grid in grids:
            yield grid, ()  # S = 1
            yield grid, tuple(t % 2 for t in range(frames))  # S = 2T+1, so the band starts at state 1
            yield grid, tuple(t % 2 for t in range(frames + 1))  # S = 2T+3: no band at frame 0
            yield grid, (0,) * half  # repeats that need all T frames when T is odd
            yield grid, (0, 0)
            yield grid, tuple(rng.integers(0, 3, size=rng.integers(1, half + 1)).tolist())
            yield grid, tuple(rng.integers(0, 3, size=frames // 3 + 1).tolist())
            yield grid, tuple(rng.integers(0, 3, size=frames + 1).tolist())  # longer than the grid


def _same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def test_ctc_windows_match_the_per_frame_band_bit_for_bit():
    outcomes = {"scaled": 0, "log": 0, "inf": 0}
    for grid, target in _window_cases():
        want = _seed_ctc_loss(grid, target)
        assert _same_float(ctc_loss(grid, target), want), (grid.num_frames, target)
        want_log = _seed_ctc_log_loss(grid, target)
        assert _same_float(scoring._ctc_log_loss(grid, target), want_log), (grid.num_frames, target)
        outcomes["inf" if math.isinf(want) else "log" if want == want_log else "scaled"] += 1
    assert min(outcomes.values()) >= 10, outcomes


def test_a_sure_target_scores_positive_zero():
    grid = PosteriorGrid([[0.0, 1.0]])
    for loss in [ctc_loss(grid, ()), scoring._ctc_log_loss(grid, ()), ctc_loss_bruteforce(grid, ()), attention_loss([[1.0]], [0])]:
        assert loss == 0.0 and math.copysign(1.0, loss) == 1.0


def test_ctc_loss_can_dip_below_zero_by_the_row_sum_tolerance():
    # Rows may sum to 1 + 1e-6, so a near-sure target can score just below
    # 0, never below -T*log1p(1e-6).
    grid = np.tile([1.0, 1e-6], (100, 1))
    loss = ctc_loss(grid, (0,))
    assert -100 * math.log1p(1e-6) <= loss < 0.0
    assert loss == pytest.approx(scoring._ctc_log_loss(PosteriorGrid(grid), (0,)), abs=3 * 100 * 2.0**-53)


def test_bruteforce_budget_guard():
    grid = PosteriorGrid(np.full((30, 4), 0.25))
    with pytest.raises(ValueError, match="budget"):
        ctc_loss_bruteforce(grid, [0])


def test_target_token_validation():
    grid = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError, match="outside"):
        ctc_loss(grid, [2])  # index 2 is the blank column


@pytest.mark.parametrize("token", [0.0, 0.7, 1.9, -1, np.float64(1.0)])
def test_ctc_and_attention_reject_float_and_negative_tokens(token):
    grid = np.full((2, 3), 1 / 3)
    with pytest.raises(DataError, match="target token must be an integer >= 0"):
        ctc_loss(grid, [token])
    with pytest.raises(DataError, match="target token must be an integer >= 0"):
        ctc_loss_bruteforce(grid, [token])
    with pytest.raises(DataError, match="target token must be an integer >= 0"):
        attention_loss([[0.5, 0.5]], [token])


def test_numpy_integer_tokens_score_exactly_as_ints():
    grid = PosteriorGrid([[0.6, 0.1, 0.3], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
    steps = [[0.7, 0.3], [0.4, 0.6]]
    for tokens in [(np.int64(0), np.int64(1)), (np.int32(0), np.uint8(1)), np.array([0, 1])]:
        assert ctc_loss(grid, tokens) == ctc_loss(grid, (0, 1))
        assert ctc_loss_bruteforce(grid, tokens) == ctc_loss_bruteforce(grid, (0, 1))
        assert attention_loss(steps, tokens) == attention_loss(steps, (0, 1))


def test_grid_validation():
    with pytest.raises(ValueError, match="sums to"):
        PosteriorGrid(np.array([[0.9, 0.3]]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        PosteriorGrid(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError, match="shape"):
        PosteriorGrid(np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        PosteriorGrid(np.array([[0.5, 0.5], [bad, 0.5]]))


# ---------------------------------------------------------------- attention


def test_attention_perfect_prediction_scores_zero():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert attention_loss(probs, [0, 1]) == 0.0


def test_attention_even_split():
    probs = np.full((2, 2), 0.5)
    assert attention_loss(probs, [1, 0]) == pytest.approx(-2 * math.log(0.5), rel=1e-12)


def test_attention_empty_target():
    assert attention_loss(np.zeros((0, 3)), []) == 0.0
    assert attention_loss([], []) == 0.0


def test_attention_zero_probability_is_inf():
    assert attention_loss(np.array([[1.0, 0.0]]), [1]) == math.inf


def test_attention_validation():
    with pytest.raises(ValueError, match="steps for"):
        attention_loss(np.array([[0.5, 0.5]]), [0, 1])
    with pytest.raises(ValueError, match="sum to 1"):
        attention_loss(np.array([[0.8, 0.1]]), [0])
    for bad in ([[math.nan, 1.0]], [[math.nan, math.nan]], [[math.inf, 0.0]]):
        with pytest.raises(DataError, match="finite"):
            attention_loss(bad, [1])
    for bad in ([["a"]], [[1.0], [0.5, 0.5]], [[object()]]):
        with pytest.raises(DataError, match="stepwise_probs must be an array of numbers"):
            attention_loss(bad, [0])


# ---------------------------------------------------------------- fusion


def test_mtl_endpoints_exact():
    assert mtl_loss(2.5, 9.9, 1.0) == 2.5
    assert mtl_loss(2.5, 9.9, 0.0) == 9.9
    assert mtl_loss(math.inf, 1.0, 0.0) == 1.0  # endpoint must not produce NaN
    assert mtl_loss(2.0, 1.0, 0.3) == pytest.approx(1.3, rel=1e-12)


def test_mtl_weight_range():
    with pytest.raises(ValueError):
        mtl_loss(1.0, 1.0, 1.5)


def test_fused_score_hand_arithmetic():
    h = Hypothesis((0,), log_p_ctc=-1.0, log_p_att=-2.0, log_p_lm=-3.0)
    assert fused_score(h, FusionWeights(ctc_weight=0.5, lm_weight=0.3)) == pytest.approx(-2.4, rel=1e-12)
    assert fused_score(h, FusionWeights(ctc_weight=1.0, lm_weight=0.0)) == -1.0


def test_fused_score_zero_weight_kills_infinite_component():
    h = Hypothesis((0,), log_p_ctc=-1.0, log_p_att=-math.inf, log_p_lm=-math.inf)
    assert fused_score(h, FusionWeights(ctc_weight=1.0, lm_weight=0.0)) == -1.0


def test_weights_validation():
    with pytest.raises(ValueError):
        FusionWeights(ctc_weight=1.2, lm_weight=0.0)
    with pytest.raises(ValueError):
        FusionWeights(ctc_weight=0.5, lm_weight=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="ctc_weight"):
            FusionWeights(ctc_weight=bad, lm_weight=0.0)
        with pytest.raises(DataError, match="lm_weight must be finite"):
            FusionWeights(ctc_weight=0.5, lm_weight=bad)


def test_fused_score_monotone_in_each_component():
    rng = np.random.default_rng(77)
    for _ in range(40):
        weights = FusionWeights(float(rng.uniform(0, 1)), float(rng.uniform(0, 3)))
        logs = -rng.exponential(2.0, size=3)
        base = fused_score(Hypothesis((0,), *logs), weights)
        for i in range(3):
            bumped = logs.copy()
            bumped[i] += float(rng.uniform(0, 2))
            assert fused_score(Hypothesis((0,), *bumped), weights) >= base


def test_rescore_single_hypothesis():
    h = Hypothesis((1, 0), -1.0, -1.0, -1.0)
    best = rescore_hypotheses([h], FusionWeights(0.5, 0.1))
    assert best.tokens == (1, 0)
    assert best.fused_score == pytest.approx(fused_score(h, FusionWeights(0.5, 0.1)))


def test_load_hypotheses_skips_blank_lines_and_names_bad_line(tmp_path):
    path = tmp_path / "h.jsonl"
    path.write_text(
        '{"tokens": [1, 0], "log_p_ctc": -1, "log_p_att": -2.5, "log_p_lm": -3}\n'
        "\n   \n"
        '{"tokens": ["a"], "log_p_ctc": -0.5, "log_p_att": -0.25, "log_p_lm": -1e-3}\n',
        encoding="utf-8",
    )
    assert load_hypotheses(path) == [Hypothesis((1, 0), -1.0, -2.5, -3.0), Hypothesis(("a",), -0.5, -0.25, -1e-3)]
    with path.open("a", encoding="utf-8") as handle:
        handle.write('\n{"tokens": [0], "log_p_ctc": -1, "log_p_att": -1}\n')
    with pytest.raises(ValueError, match=r"h\.jsonl: line 6: missing required field 'log_p_lm'"):
        load_hypotheses(path)


@pytest.mark.parametrize("field", ["log_p_ctc", "log_p_att", "log_p_lm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hypothesis_rejects_nan_and_plus_inf(tmp_path, field, bad):
    scores = {"log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0}
    with pytest.raises(DataError, match=f"{field} must be a log-probability below \\+inf, got {bad}"):
        Hypothesis((0,), **{**scores, field: bad})
    assert getattr(Hypothesis((0,), **{**scores, field: -math.inf}), field) == -math.inf  # probability zero
    path = tmp_path / "h.jsonl"
    path.write_text(json.dumps({"tokens": [0], **scores}) + "\n" + json.dumps({"tokens": [1], **scores, field: bad}) + "\n")
    with pytest.raises(DataError, match=rf"h\.jsonl: line 2: {field} must be"):
        load_hypotheses(path)


def test_rescore_tie_breaks_lexicographically_then_position():
    w = FusionWeights(ctc_weight=0.5, lm_weight=0.0)
    a = Hypothesis((1, 1), -1.0, -1.0, 0.0)
    b = Hypothesis((0, 9), -1.0, -1.0, 0.0)
    assert rescore_hypotheses([a, b], w).tokens == (0, 9)
    c = Hypothesis((0, 9), -0.5, -1.5, 0.0)  # same fused score at alpha=.5, same tokens
    assert rescore_hypotheses([c, b], w) == rescore_hypotheses([c], w)


def test_rescore_unorderable_tie_is_value_error():
    w = FusionWeights(ctc_weight=0.5, lm_weight=0.3)
    hyps = [Hypothesis(("a",), -1.0, -2.0, -3.0), Hypothesis((0,), -5.0, -5.0, -5.0), Hypothesis((1,), -1.0, -2.0, -3.0)]
    with pytest.raises(ValueError, match="positions 0 and 2"):
        rescore_hypotheses(hyps, w)
    # without a tie the tokens are never compared
    assert rescore_hypotheses(hyps[:2], w).tokens == ("a",)


@pytest.mark.parametrize("nan_first", [True, False])
def test_rescore_nan_fused_score_is_value_error_in_either_order(nan_first):
    # each component is valid, but -inf plus an overflow to +inf fuses to NaN
    w = FusionWeights(ctc_weight=0.5, lm_weight=10.0)
    nan_hyp = Hypothesis((0,), -math.inf, -2.0, 1e308)
    ok_hyp = Hypothesis((1,), -1.0, -2.0, -3.0)
    hyps = [nan_hyp, ok_hyp, nan_hyp] if nan_first else [ok_hyp, nan_hyp, ok_hyp]
    with pytest.raises(ValueError, match=f"position {0 if nan_first else 1} has a NaN"):
        rescore_hypotheses(hyps, w)


def test_rescore_empty_list():
    with pytest.raises(ValueError, match="empty"):
        rescore_hypotheses([], FusionWeights(0.5, 0.0))


def test_rescore_exhaustive_hypothesis_set_matches_bruteforce_argmax():
    rng = np.random.default_rng(13)
    grid = random_grid(rng, frames=4, num_tokens=2)
    lm_table = {}
    sequences = [seq for n in range(4) for seq in itertools.product(range(2), repeat=n)]
    for i, seq in enumerate(sequences):
        lm_table[seq] = 1.0 / (2 * len(sequences)) * (1 + i % 3)
    total = sum(lm_table.values())
    lm_table = {k: v / max(total, 1.0) for k, v in lm_table.items()}

    weights = FusionWeights(ctc_weight=0.4, lm_weight=0.25)
    hypotheses = [
        Hypothesis(
            tokens=seq,
            log_p_ctc=-ctc_loss(grid, seq),
            log_p_att=-0.7 * len(seq) - 0.1,
            log_p_lm=tabular_lm_score(lm_table, seq),
        )
        for seq in sequences
    ]

    # independent argmax with the same tie rule, computed longhand
    scored = [
        (weights.ctc_weight * h.log_p_ctc + (1 - weights.ctc_weight) * h.log_p_att + weights.lm_weight * h.log_p_lm, h.tokens)
        for h in hypotheses
    ]
    best_score = max(s for s, _ in scored)
    expected_tokens = min(tokens for s, tokens in scored if s == best_score)

    best = rescore_hypotheses(hypotheses, weights)
    assert best.tokens == expected_tokens
    assert best.fused_score == pytest.approx(best_score, rel=1e-12)


def test_argmax_invariant_to_constant_lm_shift():
    rng = np.random.default_rng(21)
    weights = FusionWeights(ctc_weight=0.3, lm_weight=0.7)
    for _ in range(30):
        hypotheses = [
            Hypothesis(tuple(rng.integers(0, 3, size=rng.integers(0, 4)).tolist()),
                       *(-rng.exponential(2.0, size=3)))
            for _ in range(6)
        ]
        shifted = [
            Hypothesis(h.tokens, h.log_p_ctc, h.log_p_att, h.log_p_lm - 5.75) for h in hypotheses
        ]
        assert rescore_hypotheses(hypotheses, weights).tokens == rescore_hypotheses(shifted, weights).tokens


# ---------------------------------------------------------------- decode / lm


def test_greedy_decode_collapses_argmax_path():
    grid = PosteriorGrid(
        np.array(
            [
                [0.8, 0.1, 0.1],  # a
                [0.8, 0.1, 0.1],  # a
                [0.1, 0.1, 0.8],  # blank
                [0.1, 0.8, 0.1],  # b
            ]
        )
    )
    assert greedy_ctc_decode(grid) == (0, 1)


def test_greedy_decode_all_blank():
    assert greedy_ctc_decode(np.array([[0.2, 0.8], [0.3, 0.7]])) == ()


def test_greedy_decode_tie_prefers_lower_index():
    assert greedy_ctc_decode(np.array([[0.5, 0.5]])) == (0,)


def test_tabular_lm():
    table = {(0, 1): 0.25, (1,): 0.5}
    assert tabular_lm_score(table, [0, 1]) == pytest.approx(math.log(0.25))
    assert tabular_lm_score(table, [9, 9]) == pytest.approx(math.log(1e-12))
    assert tabular_lm_score(table, [9], floor=1e-3) == pytest.approx(math.log(1e-3))
    with pytest.raises(ValueError, match="more than 1"):
        tabular_lm_score({(0,): 0.8, (1,): 0.5}, [0])


@pytest.mark.parametrize(
    "entries",
    [(math.nan,), (-math.inf,), (math.inf,), (0.2, math.inf, -math.inf), (0.2, math.nan, -0.5)],
)
def test_tabular_lm_rejects_non_finite_mass(entries):
    table = {(i,): p for i, p in enumerate(entries)}
    for tokens in ([0], [len(entries)]):  # in the table's support or not
        with pytest.raises(DataError, match="must be finite"):
            tabular_lm_score(table, tokens)


@pytest.mark.parametrize("value", ["x", None, [0.5], (0.5,)])
def test_tabular_lm_rejects_a_probability_that_is_not_a_number(value):
    for tokens in ((), (0,)):  # in the table's support or not
        with pytest.raises(DataError, match="table probability must be a number"):
            tabular_lm_score({(): value, (0,): 0.5}, tokens)


@pytest.mark.parametrize("floor", [0.0, -1e-3, math.nan, math.inf])
def test_tabular_lm_rejects_bad_floor(floor):
    with pytest.raises(DataError, match="floor must be positive and finite"):
        tabular_lm_score({(0,): 0.5}, [1], floor=floor)


def test_uniform_lm_never_changes_argmax():
    weights = FusionWeights(ctc_weight=0.5, lm_weight=0.9)
    no_lm = FusionWeights(ctc_weight=0.5, lm_weight=0.0)
    rng = np.random.default_rng(3)
    hyps = [
        Hypothesis(tuple(rng.integers(0, 2, size=2).tolist()), -rng.uniform(1, 5), -rng.uniform(1, 5), math.log(0.2))
        for _ in range(5)
    ]
    assert rescore_hypotheses(hyps, weights).tokens == rescore_hypotheses(hyps, no_lm).tokens


# ---------------------------------------------------------------- vocabulary / files


def test_vocabulary():
    vocab = Vocabulary(("a", "b", "c"))
    assert vocab.size == 3 and vocab.blank_index == 3
    assert vocab.encode(["b", "a"]) == (1, 0)
    assert vocab.decode([2, 0]) == ["c", "a"]
    with pytest.raises(KeyError):
        vocab.index("z")
    with pytest.raises(DataError, match="'z' is not in the vocabulary"):
        vocab.encode(["a", "z"])
    with pytest.raises(ValueError):
        Vocabulary(())
    with pytest.raises(ValueError):
        Vocabulary(("a", "a"))


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    grid = random_grid(rng, 6, 2)
    path = tmp_path / "g.pst"
    save_grid(grid, path)
    back = load_grid(path)
    assert back.probs.shape == (6, 3)
    assert np.allclose(back.probs, grid.probs, atol=1e-7)  # float32 on disk
    assert path.read_bytes()[:4] == b"PST1"


def test_grid_file_revalidates_rows(tmp_path):
    from ltrkit.matrix_io import POSTERIORS_MAGIC, write_matrix

    path = tmp_path / "bad.pst"
    write_matrix(np.array([[0.9, 0.9]]), path, POSTERIORS_MAGIC)
    with pytest.raises(MatrixFormatError) as info:
        load_grid(path)
    # the path first, then the float32 row sum as a plain number, not np.float64(...)
    assert str(info.value) == f"{path}: grid row 0 sums to 1.7999999523162842, but each row must sum to 1 within 1e-06"
    write_matrix(np.array([[0.5, 0.5], [np.nan, 0.5]]), path, POSTERIORS_MAGIC)
    with pytest.raises(MatrixFormatError) as info:
        load_grid(path)
    assert str(info.value) == f"{path}: grid entries must be finite and lie in [0, 1]"


def test_load_grid_rejects_a_signaling_nan_without_a_warning(tmp_path):
    from ltrkit.matrix_io import POSTERIORS_MAGIC

    path = tmp_path / "snan.pst"
    path.write_bytes(POSTERIORS_MAGIC + np.array([1, 2, 0x3F800000, 0x7F800001], dtype="<u4").tobytes())
    with pytest.raises(MatrixFormatError) as info:
        load_grid(path)  # a warning would raise first, under filterwarnings = error
    assert str(info.value) == f"{path}: grid entries must be finite and lie in [0, 1]"


def test_grid_file_wrong_magic(tmp_path):
    path = tmp_path / "bad.pst"
    path.write_bytes(b"FBK1" + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="PST1"):
        load_grid(path)
