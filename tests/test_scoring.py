import itertools
import json
import math

import numpy as np
import pytest

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
    log taken up front, fresh arrays each frame. The banded ``ctc_loss`` does
    the same arithmetic on the states that matter, so it must match this
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


def test_ctc_matches_full_lattice_loop_exactly_on_long_grids():
    rng = np.random.default_rng(2021)
    chunk = scoring._EMISSION_CHUNK_FRAMES
    frame_counts = [1, 2, 3, 8, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1, 700]
    frame_counts += rng.integers(1, 701, size=5).tolist()
    outcomes = {"finite": 0, "inf": 0}
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
            want = _full_lattice_ctc_loss(grid, target)
            got = ctc_loss(grid, target)
            assert got == want or (math.isinf(got) and math.isinf(want)), (frames, target)
            outcomes["inf" if math.isinf(want) else "finite"] += 1
    assert outcomes["finite"] >= 25 and outcomes["inf"] >= 25


def test_bruteforce_budget_guard():
    grid = PosteriorGrid(np.full((30, 4), 0.25))
    with pytest.raises(ValueError, match="budget"):
        ctc_loss_bruteforce(grid, [0])


def test_target_token_validation():
    grid = np.full((2, 3), 1 / 3)
    with pytest.raises(ValueError, match="outside"):
        ctc_loss(grid, [2])  # index 2 is the blank column


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


def test_grid_file_wrong_magic(tmp_path):
    path = tmp_path / "bad.pst"
    path.write_bytes(b"FBK1" + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="PST1"):
        load_grid(path)
