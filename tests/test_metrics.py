import dataclasses
import json
import random
import tracemalloc
import unicodedata
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltrkit import metrics
from ltrkit.cli import run
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
    reference that the diagonal pass and the bit-vector aligner must match
    count for count."""
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


def _seed_clusters(text):
    """The grapheme loop that ``tokenize(text, "char")`` runs on non-ASCII text."""
    clusters = []
    for ch in "".join(text.split()):
        if clusters and unicodedata.combining(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


@pytest.mark.parametrize("text", [
    "ab c\td\n e\r\x0b\x0cf \x1c\x1dg\x1e\x1fh  ",
    "e\u0301f",
    "\u0301ab e\u0300",
    "a \u0301b c\u3000\u0308d",
    " \u0300x y\u0308\u0301 z\x85",
])
def test_tokenize_chars_ascii_fast_path_matches_cluster_loop(text):
    assert tokenize(text, "char") == _seed_clusters(text)


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


# ---------------------------------------------------------------- aligners vs seed


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


def _recording(monkeypatch, name):
    """Replace ``metrics.<name>`` by a wrapper that records the (ref, hyp)
    of each call, and return the record."""
    sent, aligner = [], getattr(metrics, name)

    def recording_aligner(ref, hyp, *args):
        sent.append((ref, hyp))
        return aligner(ref, hyp, *args)

    monkeypatch.setattr(metrics, name, recording_aligner)
    return sent


@pytest.mark.parametrize("max_len", [10, 50, 150])
def test_corpus_report_bit_aligns_every_middle(monkeypatch, max_len):
    rng = random.Random(max_len)
    pairs = _random_pairs(rng, 40, "abc", max_len, empty_refs=True)
    assert _counts(corpus_report(pairs)) == _seed_pooled(pairs)
    # Pairs that differ at both ends share no prefix or suffix, and with the
    # diagonal pass off every pair reaches the bit-vector aligner at full length.
    monkeypatch.setattr(metrics, "_fronts", lambda ref, hyp: None)
    sent = _recording(monkeypatch, "_bit_align")
    distinct_ends = [([">", *ref, "<"], ["<", *hyp, ">"]) for ref, hyp in pairs]
    assert _counts(corpus_report(distinct_ends)) == _seed_pooled(distinct_ends)
    assert sent == distinct_ends


def test_corpus_report_rejects_oversize_pair_before_aligning(monkeypatch):
    def aligner(*args):
        raise AssertionError("no pair may be aligned once an over-size pair is seen")

    monkeypatch.setattr(metrics, "_bit_align", aligner)
    monkeypatch.setattr(metrics, "_fronts", aligner)
    pairs = [(["a"], ["a"]), (["x"] * 20000, ["y"] * 15000)]
    with pytest.raises(ValueError, match="20000-token reference with a 15000-token hypothesis"):
        corpus_report(pairs)
    with pytest.raises(ValueError, match="20000-token"):
        align(*pairs[1])


@st.composite
def _affix_corpora(draw):
    """Pairs sharing a prefix and a suffix around two random middles, over
    1-3 token alphabets so that tokens on either side of a boundary repeat."""
    tokens = st.lists(st.sampled_from(draw(st.sampled_from(["a", "ab", "abc"]))), max_size=8)
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        prefix, ref_mid, hyp_mid, suffix = (draw(tokens) for _ in range(4))
        pairs.append((prefix + ref_mid + suffix, prefix + hyp_mid + suffix))
    return pairs


@settings(max_examples=300, deadline=None)
@given(pairs=_affix_corpora())
@example(pairs=[([], []), ([], ["a"]), (["a"], [])])
@example(pairs=[(list("aab"), list("aab")), (list("aba"), list("abba")), (list("abab"), list("ab"))])
def test_corpus_report_with_common_affixes_matches_pooled_seed(pairs):
    assert _counts(corpus_report(pairs)) == _seed_pooled(pairs)


def test_corpus_report_aligns_only_what_differs(monkeypatch):
    def bit_align(*args):
        raise AssertionError("pairs a few edits apart never reach the bit-vector aligner")

    sent = _recording(monkeypatch, "_fronts")
    monkeypatch.setattr(metrics, "_bit_align", bit_align)
    identical = [(list("abcabc"), list("abcabc")), (["w1", "w2"], ["w1", "w2"]), ([], [])]
    assert _counts(corpus_report(identical)) == (0, 0, 0, 8, 8, Counter())
    assert sent == []
    # A middle with one empty side is all insertions or all deletions, and
    # one token a side is one substitution.
    one_edit = identical + [(list("abcabc"), list("abcxabc")), (list("abc"), list("bc")), ([], ["x"]),
                            (list("abcabc"), list("abxabc")), (list("abc"), list("xbc"))]
    assert _counts(corpus_report(one_edit)) == _seed_pooled(one_edit)
    assert sent == []
    two_edits = one_edit + [(list("abcabc"), list("abxaxc"))]
    assert _counts(corpus_report(two_edits)) == _seed_pooled(two_edits)
    assert sent == [(list("cab"), list("xax"))]


def test_corpus_report_sends_only_distant_pairs_to_the_bit_aligner(monkeypatch):
    sent = _recording(monkeypatch, "_bit_align")
    near = (list("the cat sat on the mat"), list("the cot sat in the mat"))  # 2 edits in 44 tokens
    ends = (list("abcdefghij"), list("xbcdyfghiz"))  # 3 edits in 20 tokens: 3**2 <= 20
    short = (list("abcdefgh"), list("stuvwxyz"))  # 8 edits in 16 tokens: the pass stops at 5**2 > 16
    far = (list("abcdefghij"), list("klmnopqrst"))  # 10 edits in 20 tokens: the pass stops at 5**2 > 20
    assert metrics._fronts(*ends) is not None
    assert metrics._fronts(*short) is None and metrics._fronts(*far) is None
    corpus = [near, ends, short, far]
    assert _counts(corpus_report(corpus)) == _seed_pooled(corpus)
    assert sent == [short, far]


def test_diagonal_pass_gives_up_at_once_on_a_length_difference(monkeypatch):
    def common_prefix(*args):
        raise AssertionError("the length difference alone rules out every level of the pass")

    monkeypatch.setattr(metrics, "_common_prefix", common_prefix)
    assert metrics._fronts(list("abcdefghijkl"), list("ab")) is None  # at least 10 edits: 10**2 > 14
    assert metrics._fronts(list("ab"), list("abcdefg")) is None  # at least 5 edits: 5**2 > 9


def _few_edits(rng, alphabet, max_len):
    ref = [rng.choice(alphabet) for _ in range(rng.randint(1, max_len))]
    hyp = list(ref)
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(0, len(hyp))
        kind = rng.randrange(3)
        if kind == 0 and k < len(hyp):
            hyp[k] = rng.choice(alphabet)
        elif kind == 1 and k < len(hyp):
            del hyp[k]
        else:
            hyp.insert(k, rng.choice(alphabet))
    return ref, hyp


@pytest.mark.parametrize("alphabet", ["a", "ab", "abc", "abcdefghij"], ids=len)
def test_diagonal_pass_and_bit_aligner_agree_with_seed(monkeypatch, alphabet):
    rng = random.Random(200 + len(alphabet))
    pairs = [_few_edits(rng, alphabet, 60) for _ in range(150)] + _random_pairs(rng, 60, alphabet, 40)
    for ref, hyp in pairs:
        seed = _counts(_seed_align(ref, hyp))
        confusions = Counter()
        assert metrics._bit_align(ref, hyp, confusions) + (len(ref), confusions) == seed
        found = metrics._fronts(ref, hyp)
        if found is not None:
            starts, ends = found
            assert len(ends) - 1 == simple_edit_distance(ref, hyp)
            confusions = Counter()
            counts = metrics._trace_fronts(starts, ends, ref, hyp, confusions)
            assert counts + (len(ref), confusions) == seed
    assert sum(metrics._fronts(ref, hyp) is not None for ref, hyp in pairs) > 150
    expected = _seed_pooled(pairs)
    assert _counts(corpus_report(pairs)) == expected
    monkeypatch.setattr(metrics, "_fronts", lambda ref, hyp: None)
    assert _counts(corpus_report(pairs)) == expected


@settings(max_examples=300, deadline=None)
@given(ref=st.lists(st.sampled_from("ab"), max_size=12), hyp=st.lists(st.sampled_from("ab"), max_size=12))
def test_diagonal_pass_matches_seed_backtrace(ref, hyp):
    found = metrics._fronts(ref, hyp)
    if found is not None:
        confusions = Counter()
        counts = metrics._trace_fronts(*found, ref, hyp, confusions)
        assert counts + (len(ref), confusions) == _counts(_seed_align(ref, hyp))
        # Each front is the last cell of its diagonal within its cost.
        cost = [[simple_edit_distance(ref[:i], hyp[:j]) for j in range(len(hyp) + 1)] for i in range(len(ref) + 1)]
        for e, ends in enumerate(found[1]):
            for k, end in ends.items():
                rows = [i for i in range(max(0, -k), min(len(ref), len(hyp) - k) + 1) if cost[i][i + k] <= e]
                assert end == max(rows, default=-1)


@st.composite
def _bit_pairs(draw):
    """A pair over a 1-3 token alphabet whose hypothesis length crosses the
    64- and 128-bit boundaries of the aligner's ints."""
    tokens = st.sampled_from(draw(st.sampled_from(["a", "ab", "abc"])))
    sizes = st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]) | st.integers(0, 140)
    ref = draw(st.lists(tokens, max_size=140))
    size = draw(sizes)
    return ref, draw(st.lists(tokens, min_size=size, max_size=size))


@settings(max_examples=200, deadline=None)
@given(pair=_bit_pairs())
@example(pair=(["a"] * 70, ["b"] * 129))
@example(pair=(list("ab" * 33), list("ba" * 64)))
def test_bit_align_matches_seed(pair):
    ref, hyp = pair
    confusions = Counter()
    counts = metrics._bit_align(ref, hyp, confusions)
    assert counts + (len(ref), confusions) == _counts(_seed_align(ref, hyp))


def test_corpus_report_memory_on_a_far_apart_pair_stays_small():
    # Two m-bit ints per reference row are about 1 MiB at 2,000 x 2,000; a
    # full int32 cost matrix would be 16 MiB.
    rng = random.Random(2000)
    letters = "abcdefghijklmnopqrstuvwxyz"
    ref = [rng.choice(letters) for _ in range(2000)]
    hyp = [rng.choice(letters) for _ in range(2000)]
    ref[0], ref[-1], hyp[0], hyp[-1] = "<", ">", ">", "<"
    tracemalloc.start()
    try:
        report = corpus_report([(ref, hyp)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total_errors == 1772  # by simple_edit_distance, which takes about a second here
    assert peak < 4 * 2**20


@given(ref=st.lists(st.sampled_from("ab"), max_size=40), hyp=st.lists(st.sampled_from("ab"), max_size=40),
       i=st.integers(0, 40), j=st.integers(0, 40))
def test_common_prefix_matches_a_token_loop(ref, hyp, i, j):
    i, j = min(i, len(ref)), min(j, len(hyp))
    k = 0
    while i + k < len(ref) and j + k < len(hyp) and ref[i + k] == hyp[j + k]:
        k += 1
    assert metrics._common_prefix(ref, hyp, i, j) == k


def test_corpus_report_size_guard_bounds_the_whole_pair(monkeypatch):
    def aligner(*args):
        raise AssertionError("an identical pair needs no alignment, but the guard must reject it first")

    monkeypatch.setattr(metrics, "_bit_align", aligner)
    monkeypatch.setattr(metrics, "_fronts", aligner)
    with pytest.raises(ValueError, match="20000-token reference with a 20000-token hypothesis"):
        corpus_report([(["a"] * 20000, ["a"] * 20000)])


def _check_one_token_equality_rule():
    x, y = float("nan"), float("nan")
    assert _counts(align([x], [x])) == (0, 0, 0, 1, 1, Counter())
    assert _counts(corpus_report([([x, "a"], [x, "a"])])) == (0, 0, 0, 2, 2, Counter())
    assert metrics._common_prefix([x, y], [x, x]) == 1
    assert _counts(align([x], [y])) == (1, 0, 0, 0, 1, Counter({(x, y): 1}))
    # A NaN inside a differing middle reaches the aligner, not the trim.
    for ref, hyp, hits, errors in ((["a", x, "b"], ["c", x, "d"], 1, 2), (["a", x, "b"], ["c", y, "d"], 0, 3)):
        report = align(ref, hyp)
        assert (report.hits, report.total_errors) == (hits, errors)


def test_one_token_equality_rule_in_trim_pass_and_backtrace():
    _check_one_token_equality_rule()
    x, y = float("nan"), float("nan")
    tail = ["e"] * 3  # long enough that the pass does not give up at 3 edits: 3**2 <= 12
    assert len(metrics._fronts(["a", x, "b", *tail], ["c", x, "d", *tail])[1]) - 1 == 2
    assert len(metrics._fronts(["a", x, "b", *tail], ["c", y, "d", *tail])[1]) - 1 == 3


def test_one_token_equality_rule_on_the_bit_aligner_path(monkeypatch):
    monkeypatch.setattr(metrics, "_fronts", lambda ref, hyp: None)
    sent = _recording(monkeypatch, "_bit_align")
    _check_one_token_equality_rule()
    assert len(sent) == 2


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


@pytest.mark.parametrize("unit", ["word", "char", "phone"])
def test_wer_cli_on_pairs_with_common_affixes_matches_pooled_seed(tmp_path, capsys, monkeypatch, unit):
    rng = random.Random(25)
    vocab = ["e\u0301te\u0301", "na\u0308", "sil", "n\u0303o", "ab", "e\u0300", "b"]
    ref_lines, hyp_lines = [], []
    for k in range(12):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
        start, stop = sorted(rng.randint(0, len(words)) for _ in range(2))
        hyp = words[:start] + _noisy(rng, words[start:stop], vocab, 0.6) + words[stop:]
        ref_lines.append(f"{' '.join(words)} (u{k})\n")
        hyp_lines.append(f"{' '.join(hyp)} (u{k})\n")
    # Long pairs at 30% noise, and far-apart pairs of unrelated words, more
    # than 64 tokens a side.
    for k in range(12, 16):
        words = [rng.choice(vocab) for _ in range(rng.randint(65, 90))]
        hyp = _noisy(rng, words, vocab, 0.3) if k < 14 else [rng.choice(vocab) for _ in range(rng.randint(65, 90))]
        ref_lines.append(f"{' '.join(words)} (u{k})\n")
        hyp_lines.append(f"{' '.join(hyp)} (u{k})\n")
    ref_path, hyp_path, json_out = tmp_path / "ref.trn", tmp_path / "hyp.trn", tmp_path / "wer.json"
    ref_path.write_text("".join(ref_lines), encoding="utf-8")
    hyp_path.write_text("".join(hyp_lines), encoding="utf-8")
    refs, hyps = read_trn(ref_path), read_trn(hyp_path)
    pairs = [(tokenize(refs[utt], unit), tokenize(hyps[utt], unit)) for utt in refs]
    assert sum(ref[:1] == hyp[:1] and ref[-1:] == hyp[-1:] and ref != hyp for ref, hyp in pairs) >= 3

    argv = ["wer", "--ref", str(ref_path), "--hyp", str(hyp_path), "--unit", unit, "--confusions", "10"]
    sent = _recording(monkeypatch, "_bit_align")
    assert run(argv + ["--json-out", str(json_out)]) == 0
    assert max(len(hyp) for _, hyp in sent) > 64
    report = json.loads(json_out.read_text(encoding="utf-8"))
    seed = ErrorReport(*_seed_pooled(pairs))
    keys = ("substitutions", "insertions", "deletions", "hits", "ref_len")
    assert tuple(report[key] for key in keys) == _counts(seed)[:5]
    assert report["confusions"] == [[r, h, count] for (r, h), count in top_confusions([seed], 10)]
    assert report["confusions"] and report["error_rate"] == seed.rate
    assert capsys.readouterr().out.splitlines() == [
        f"{unit} error rate: {100.0 * seed.rate:.2f}%  ({seed.total_errors} errors / {seed.ref_len} ref tokens, 16 utterances)",
        f"S={seed.substitutions} I={seed.insertions} D={seed.deletions} H={seed.hits}",
        "top substitutions:",
        *(f"  {r} -> {h}  {count}" for r, h, count in report["confusions"]),
    ]
