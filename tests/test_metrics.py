import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrkit import metrics
from ltrkit.metrics import (
    ErrorReport,
    TrnFormatError,
    align,
    corpus_rate,
    corpus_report,
    read_trn,
    tokenize,
    top_confusions,
    trn_report,
)

tokens_st = st.lists(st.sampled_from("abcd"), max_size=6)


def simple_edit_distance(a, b):
    """Independent two-row DP, distance only; the oracle for S+I+D."""
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[len(b)]


def _seed_align(ref, hyp):
    """The original pure-Python alignment: full cost matrix as lists, then
    the backtrace preferring substitution, deletion, insertion. The
    reference that the numpy kernel must match count for count."""
    n, m = len(ref), len(hyp)
    cost = [list(range(m + 1))]
    for i in range(1, n + 1):
        row = [i] + [0] * m
        prev = cost[i - 1]
        for j in range(1, m + 1):
            diag = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            row[j] = min(diag, prev[j] + 1, row[j - 1] + 1)
        cost.append(row)

    hits = subs = dels = ins = 0
    confusions: Counter = Counter()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i][j] == cost[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] == hyp[j - 1]:
                hits += 1
            else:
                subs += 1
                confusions[(ref[i - 1], hyp[j - 1])] += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i][j] == cost[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return ErrorReport(subs, ins, dels, hits, n, confusions)


def _counts(report):
    return (report.substitutions, report.insertions, report.deletions, report.hits, report.ref_len, report.confusions)


def _seed_pooled(pairs):
    reports = [_seed_align(list(ref), list(hyp)) for ref, hyp in pairs]
    confusions = Counter()
    for report in reports:
        confusions.update(report.confusions)
    return tuple(sum(getattr(r, key) for r in reports)
                 for key in ("substitutions", "insertions", "deletions", "hits", "ref_len")) + (confusions,)


def _noisy(rng, tokens, alphabet, rate):
    out = []
    for token in tokens:
        roll = rng.random()
        if roll < rate / 3:
            continue  # deletion
        out.append(rng.choice(alphabet) if roll < 2 * rate / 3 else token)
        if roll > 1 - rate / 3:
            out.append(rng.choice(alphabet))  # insertion
    return out


def _random_pairs(rng, count, alphabet, max_len, empty_refs=False):
    pairs = []
    for _ in range(count):
        n = rng.choice([0 if empty_refs else 1, 1, 2, rng.randint(1, max_len)])
        ref = [rng.choice(alphabet) for _ in range(n)]
        kind = rng.random()
        if kind < 0.15:
            hyp = []
        elif kind < 0.3:
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]
        else:
            hyp = _noisy(rng, ref, alphabet, rng.choice([0.05, 0.3, 0.9]))
        pairs.append((ref, hyp))
    return pairs


# ---------------------------------------------------------------- tokenize


def test_tokenize_words_split_on_whitespace_runs():
    assert tokenize("a b  c", "word") == ["a", "b", "c"]
    assert tokenize("  hello\tworld \n", "word") == ["hello", "world"]


def test_tokenize_chars_drop_whitespace():
    assert tokenize("你好 吗", "char") == ["你", "好", "吗"]
    assert tokenize("ab c", "char") == ["a", "b", "c"]


def test_tokenize_chars_keep_combining_marks_with_base():
    # decomposed e + COMBINING ACUTE counts as one unit
    assert tokenize("éf", "char") == ["é", "f"]


def test_tokenize_phones():
    assert tokenize("sil m ao m sil", "phone") == ["sil", "m", "ao", "m", "sil"]


def test_tokenize_empty():
    for unit in ("word", "char", "phone"):
        assert tokenize("", unit) == []


def test_tokenize_rejects_unknown_unit():
    with pytest.raises(ValueError):
        tokenize("a", "syllable")


# ---------------------------------------------------------------- align


def test_align_identity():
    report = align(["a", "b", "c"], ["a", "b", "c"])
    assert (report.substitutions, report.insertions, report.deletions, report.hits) == (0, 0, 0, 3)
    assert report.rate == 0.0


def test_align_forced_deletion():
    report = align(["a", "b", "c"], ["a", "c"])
    assert report.deletions == 1 and report.total_errors == 1
    assert report.rate == pytest.approx(1 / 3)


def test_align_records_substitution_pair():
    report = align(["m"], ["n"])
    assert report.substitutions == 1
    assert report.confusions == Counter({("m", "n"): 1})


def test_align_empty_hypothesis_is_all_deletions():
    report = align(["a", "b"], [])
    assert report.deletions == 2 and report.hits == 0
    assert report.rate == 1.0


def test_align_empty_reference_rejected():
    with pytest.raises(ValueError, match="empty"):
        align([], ["a"])


def test_rate_can_exceed_one():
    report = align(["a"], ["x", "y", "z"])
    assert report.rate > 1.0


def test_counts_partition_reference():
    report = align(list("kitten"), list("sitting"))
    assert report.hits + report.substitutions + report.deletions == report.ref_len == 6
    assert report.total_errors == 3  # classic example


@settings(max_examples=150, deadline=None)
@given(ref=tokens_st, hyp=tokens_st)
def test_total_errors_equal_independent_edit_distance(ref, hyp):
    if not ref:
        return
    report = align(ref, hyp)
    assert report.total_errors == simple_edit_distance(ref, hyp)
    assert report.hits + report.substitutions + report.deletions == len(ref)


@settings(max_examples=100, deadline=None)
@given(ref=tokens_st.filter(bool), hyp=tokens_st.filter(bool))
def test_swap_symmetry(ref, hyp):
    # The edit distance is symmetric; the S/I/D split is not, because the
    # backtrace prefers substitution > deletion > insertion in both directions.
    forward = align(ref, hyp)
    backward = align(hyp, ref)
    assert forward.total_errors == backward.total_errors
    ref, hyp = list("abab"), list("baaba")  # counted by hand, and by _seed_align
    for a, b, counts in ((ref, hyp, (0, 2, 1)), (hyp, ref, (2, 0, 1))):
        report = align(a, b)
        assert (report.substitutions, report.insertions, report.deletions) == counts
        assert _counts(report) == _counts(_seed_align(a, b))


@settings(max_examples=60, deadline=None)
@given(a=tokens_st.filter(bool), b=tokens_st.filter(bool), c=tokens_st.filter(bool))
def test_triangle_inequality(a, b, c):
    assert align(a, c).total_errors <= align(a, b).total_errors + align(b, c).total_errors


# ---------------------------------------------------------------- kernel vs seed


@pytest.mark.parametrize("alphabet", ["a", "ab", "abcdefghij", [f"w{k}" for k in range(300)]], ids=len)
def test_align_matches_seed_exactly(alphabet):
    rng = random.Random(len(alphabet))
    for ref, hyp in _random_pairs(rng, 60, alphabet, 400):
        assert _counts(align(ref, hyp)) == _counts(_seed_align(ref, hyp))


@pytest.mark.parametrize("alphabet", ["a", "ab", "abcdefghij"], ids=len)
def test_corpus_report_matches_pooled_seed_exactly(alphabet):
    rng = random.Random(100 + len(alphabet))
    for _ in range(6):
        pairs = _random_pairs(rng, rng.randint(1, 30), alphabet, rng.choice([5, 60, 400]), empty_refs=True)
        assert _counts(corpus_report(pairs)) == _seed_pooled(pairs)


def test_corpus_report_matches_seed_on_combining_mark_graphemes():
    rng = random.Random(7)
    letters = ["e", "e\u0301", "e\u0300", "a\u0308", "n\u0303", "\u4f60", "\u597d"]
    pairs = []
    for _ in range(20):
        text = "".join(rng.choice(letters + [" "]) for _ in range(rng.randint(1, 120)))
        noisy = "".join(_noisy(rng, list(text), letters, 0.2))
        pairs.append((tokenize(text, "char"), tokenize(noisy, "char")))
    assert any(len(token) > 1 for ref, _ in pairs for token in ref)
    assert _counts(corpus_report(pairs)) == _seed_pooled(pairs)
    for ref, hyp in pairs:
        if ref:
            assert _counts(align(ref, hyp)) == _counts(_seed_align(ref, hyp))


@pytest.mark.parametrize("bucket_cells", [1, 64, 2000])
def test_corpus_report_split_across_many_buckets(monkeypatch, bucket_cells):
    rng = random.Random(bucket_cells)
    pairs = _random_pairs(rng, 40, "abc", 50, empty_refs=True)
    batches = []
    kernel = metrics._cost_matrix

    def recording_kernel(bucket):
        cost = kernel(bucket)
        batches.append((len(bucket), cost.size))
        return cost

    monkeypatch.setattr(metrics, "_BUCKET_CELLS", bucket_cells)
    monkeypatch.setattr(metrics, "_cost_matrix", recording_kernel)
    assert _counts(corpus_report(pairs)) == _seed_pooled(pairs)
    assert sum(size for size, _ in batches) == 40 and len(batches) > 3
    assert all(cells <= bucket_cells or size == 1 for size, cells in batches)


def test_corpus_report_rejects_oversize_pair_before_aligning(monkeypatch):
    def kernel(bucket):
        raise AssertionError("no batch may be aligned once an over-size pair is seen")

    monkeypatch.setattr(metrics, "_cost_matrix", kernel)
    pairs = [(["a"], ["a"]), (["x"] * 20000, ["y"] * 15000)]
    with pytest.raises(ValueError, match="20000-token reference with a 15000-token hypothesis"):
        corpus_report(pairs)
    with pytest.raises(ValueError, match="20000-token"):
        align(*pairs[1])


def test_corpus_report_of_nothing_is_zero():
    assert _counts(corpus_report([])) == (0, 0, 0, 0, 0, Counter())


def test_error_report_is_frozen():
    report = align(["a"], ["b"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.substitutions = 0


def test_error_report_confusions_are_read_only_and_report_hashes():
    report = align(["a"], ["b"])
    with pytest.raises(TypeError):
        report.confusions[("a", "b")] += 5
    assert report.confusions == Counter({("a", "b"): 1})
    assert hash(report) == hash(align(["a"], ["b"]))
    source = Counter({("x", "y"): 2})
    copied = ErrorReport(1, 0, 0, 0, 1, source)
    source[("x", "y")] += 1
    assert copied.confusions == {("x", "y"): 2}


# ---------------------------------------------------------------- corpus rate


def test_corpus_rate_single_pair_equals_align_rate():
    pair = (["a", "b"], ["a", "x"])
    assert corpus_rate([pair]) == align(*pair).rate


def test_corpus_rate_pools_rather_than_averages():
    good = (["t"] * 10, ["t"] * 10)
    one_error = (["t"] * 10, ["t"] * 9 + ["x"])
    assert corpus_rate([one_error, good]) == pytest.approx(0.05)


def test_corpus_rate_all_correct():
    assert corpus_rate([(["a"], ["a"]), (["b", "c"], ["b", "c"])]) == 0.0


def test_corpus_rate_empty_ref_pair_counts_insertions():
    assert corpus_rate([(["a"], ["a"]), ([], ["x", "y"])]) == pytest.approx(2.0)


def test_corpus_rate_rejects_all_empty():
    with pytest.raises(ValueError, match="all references"):
        corpus_rate([([], ["a"])])


def test_rate_of_report_without_reference_tokens_is_value_error():
    report = corpus_report([([], ["a"]), ([], [])])
    assert _counts(report) == (0, 1, 0, 0, 0, Counter())
    with pytest.raises(ValueError, match="all references"):
        report.rate


def test_corpus_rate_is_corpus_report_rate():
    pairs = [(list("kitten"), list("sitting")), ([], ["x"]), (["a", "b"], ["b"])]
    assert corpus_rate(pairs) == corpus_report(pairs).rate == 5 / 8


# ---------------------------------------------------------------- confusions


def test_top_confusions_ranked_then_lexicographic():
    reports = [
        ErrorReport(0, 0, 0, 0, 1, Counter({("m", "n"): 3, ("b", "d"): 3, ("w", "l"): 5})),
        ErrorReport(0, 0, 0, 0, 1, Counter({("m", "n"): 2})),
    ]
    assert top_confusions(reports, 3) == [(("m", "n"), 5), (("w", "l"), 5), (("b", "d"), 3)]
    assert top_confusions(reports, 1) == [(("m", "n"), 5)]


def test_top_confusions_empty():
    assert top_confusions([ErrorReport(0, 0, 0, 2, 2, Counter())], 5) == []


def test_top_confusions_requires_positive_n():
    with pytest.raises(ValueError):
        top_confusions([], 0)


# ---------------------------------------------------------------- trn files


def test_read_trn(tmp_path):
    path = tmp_path / "r.trn"
    path.write_text("the cat sat (utt-1)\n你好 吗 (utt-2)\n\n(utt-3)\n", encoding="utf-8")
    parsed = read_trn(path)
    assert parsed == {"utt-1": "the cat sat", "utt-2": "你好 吗", "utt-3": ""}
    assert list(parsed) == ["utt-1", "utt-2", "utt-3"]


@pytest.mark.parametrize("line", ["no id here", "back(wards) order", "empty ()"])
def test_read_trn_rejects_bad_lines(tmp_path, line):
    path = tmp_path / "bad.trn"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(TrnFormatError, match="line 1"):
        read_trn(path)


def test_read_trn_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.trn"
    path.write_text("a (u1)\nb (u1)\n", encoding="utf-8")
    with pytest.raises(TrnFormatError, match="u1"):
        read_trn(path)


def test_trn_report_is_the_wer_json_object(tmp_path):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("a b c (u1)\nd e (u2)\n", encoding="utf-8")
    hyp.write_text("a x y (u1)\nd (u2)\n", encoding="utf-8")
    report = trn_report(ref, hyp, "word", confusions=1)
    assert report == {
        "unit": "word", "error_rate": 0.6, "ref_len": 5, "utterances": 2,
        "substitutions": 2, "insertions": 0, "deletions": 1, "hits": 2, "confusions": [["b", "x", 1]],
    }
    assert list(report) == ["unit", "error_rate", "ref_len", "utterances", "substitutions", "insertions",
                            "deletions", "hits", "confusions"]
    assert len(trn_report(ref, hyp, "word")["confusions"]) == 2  # ten by default, two exist
    assert trn_report(ref, hyp, "char")["ref_len"] == 5

