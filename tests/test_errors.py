import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltrkit
from ltrkit.audio_io import AudioBuffer, WavFormatError
from ltrkit.dataset import AugmentTag, ManifestError, ManifestRecord, build_speed_set, load_manifest
from ltrkit.errors import DataError, numbered_lines, positive
from ltrkit.features import FeatureMatrix, fbank
from ltrkit.ltr import reverse_segments, segment_samples
from ltrkit.matrix_io import MatrixFormatError
from ltrkit.metrics import TrnFormatError, read_trn, top_confusions
from ltrkit.perturb import SpecAugmentPolicy, speed_perturb
from ltrkit.scoring import (
    FusionWeights,
    Hypothesis,
    PosteriorGrid,
    attention_loss,
    collapse,
    ctc_loss,
    ctc_loss_bruteforce,
    ctc_min_frames,
    interleave_blanks,
    load_hypotheses,
    mtl_loss,
)

any_float = st.floats(allow_nan=True, allow_infinity=True)


def _finite_fields(value) -> bool:
    if isinstance(value, int):  # segment_samples
        return True
    for field in dataclasses.fields(value):
        item = getattr(value, field.name)
        if dataclasses.is_dataclass(item):
            if not _finite_fields(item):
                return False
        elif isinstance(item, (float, np.ndarray)) and not np.isfinite(item).all():
            return False
    return True


@settings(max_examples=200, deadline=None)
@given(x=any_float, y=any_float, samples=st.lists(any_float, min_size=1, max_size=4))
def test_every_value_is_finite_or_a_data_error(x, y, samples):
    buffer = AudioBuffer([0.25, -0.5, 0.75], 8000)
    calls = [
        lambda: AudioBuffer(samples, 8000),
        lambda: FeatureMatrix([samples, samples]),
        lambda: AudioBuffer([0.0], x),
        lambda: reverse_segments(buffer, x),
        lambda: ManifestRecord("u", "a.wav", "t", x),
        lambda: AugmentTag("speed", x),
        lambda: FusionWeights(x, y),
        lambda: PosteriorGrid([[x, y], [0.5, 0.5]]),
        lambda: segment_samples(x, y),
        lambda: speed_perturb(buffer, x),
    ]
    for call in calls:
        try:
            result = call()
        except DataError:
            continue
        assert _finite_fields(result)


def test_data_error_is_the_one_root():
    assert ltrkit.DataError is DataError and issubclass(DataError, ValueError)
    for error in (WavFormatError, MatrixFormatError, ManifestError, TrnFormatError):
        assert issubclass(error, DataError)


@pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, -math.inf])
def test_positive_rejects_and_names_the_value(value):
    with pytest.raises(DataError, match=f"speed must be positive and finite, got {value}"):
        positive("speed", value)
    assert positive("speed", 1e-300) == 1e-300 and positive("speed", 3) == 3


def test_numbered_lines_counts_like_text_mode(tmp_path):
    # Form feed, NEL and U+2028 are not line breaks here (str.splitlines
    # would split at each); \r, \n and \r\n are.
    path = tmp_path / "t.txt"
    path.write_bytes("a\x0cb\x85c d\n\n  \r\ne\rf\n".encode("utf-8"))
    assert list(numbered_lines(path)) == [(1, "a\x0cb\x85c d\n"), (4, "e\n"), (5, "f\n")]


def test_trn_line_numbers_ignore_unicode_separators(tmp_path):
    path = tmp_path / "r.trn"
    path.write_text("one\u2028two (u1)\n\nno id\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3 lacks"):
        read_trn(path)


@pytest.mark.parametrize("reader", [load_manifest, read_trn, load_hypotheses])
def test_readers_report_invalid_utf8_with_the_path(tmp_path, reader):
    path = tmp_path / "bad.txt"
    path.write_bytes(b'{"a": 1}\n\xff\xfe (u1)\n')
    with pytest.raises(DataError, match=f"{path.name}: not UTF-8 text"):
        reader(path)


_BUFFER = AudioBuffer(np.zeros(400), 8000)
_GRID = PosteriorGrid([[0.7, 0.1, 0.2], [0.1, 0.7, 0.2]])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ctc_loss(_GRID, (0.7,)), "target token"),
        (lambda: ctc_loss(_GRID, (1.9,)), "target token"),
        (lambda: ctc_loss(_GRID, ("a",)), "target token"),
        (lambda: attention_loss([[0.5, 0.5]], (1.5,)), "target token"),
        (lambda: ctc_loss(_GRID, 5), "target must be a sequence"),
        (lambda: ctc_loss(_GRID, None), "target must be a sequence"),
        (lambda: ctc_loss_bruteforce(_GRID, 5), "target must be a sequence"),
        (lambda: attention_loss([[1.0]], 5), "target must be a sequence"),
        (lambda: ctc_min_frames(5), "target must be a sequence"),
        (lambda: ctc_min_frames(["a", "a"]), "target token"),
        (lambda: interleave_blanks(5, 2), "target must be a sequence"),
        (lambda: interleave_blanks((0, 1.5), 2), "target token"),
        (lambda: interleave_blanks((0, 1), "b"), "blank_index"),
        (lambda: collapse(5, 2), "path must be a sequence"),
        (lambda: collapse((0, "a"), 2), "path token"),
        (lambda: collapse((0, 1), None), "blank_index"),
        (lambda: SpecAugmentPolicy(max_freq_mask_width=2.5), "max_freq_mask_width"),
        (lambda: SpecAugmentPolicy(num_freq_masks=1.5), "num_freq_masks"),
        (lambda: SpecAugmentPolicy(num_time_masks="2"), "num_time_masks"),
        (lambda: fbank(_BUFFER, dims=2.5), "dims"),
        (lambda: top_confusions([], 1.5), "n must"),
        (lambda: AudioBuffer("abc", 8000), "samples"),
        (lambda: FeatureMatrix("abc"), "values"),
        (lambda: PosteriorGrid([[0.5, "a"]]), "probs"),
        (lambda: ctc_loss([[0.5, "a"]], (0,)), "probs"),
        (lambda: AudioBuffer([0.1], "x"), "sample_rate_hz"),
        (lambda: ManifestRecord("u", "a.wav", "t", "1"), "duration_s"),
        (lambda: reverse_segments(_BUFFER, None), "duration in ms"),
        (lambda: speed_perturb(_BUFFER, "x"), "speed factor"),
        (lambda: build_speed_set([], ["x"], "unused"), "speed factor"),
        (lambda: FusionWeights("a", 1), "ctc_weight"),
        (lambda: FusionWeights(0.5, "b"), "lm_weight"),
        (lambda: mtl_loss(1.0, 2.0, "x"), "task_weight"),
        (lambda: mtl_loss("a", 1.0, 0.5), "ctc_loss_value"),
        (lambda: mtl_loss(1.0, None, 0.0), "attention_loss_value"),
        (lambda: SpecAugmentPolicy(max_time_mask_fraction="x"), "max_time_mask_fraction"),
        (lambda: Hypothesis((1,), "a", 0.0, 0.0), "log_p_ctc"),
        (lambda: AugmentTag("ltr", "5"), "augment param"),
    ],
)
def test_a_value_of_the_wrong_type_is_a_data_error_naming_it(call, name):
    with pytest.raises(DataError, match=name):
        call()


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_mtl_loss_rejects_a_nan_or_minus_inf_loss_at_every_weight(bad, weight):
    with pytest.raises(DataError, match=f"ctc_loss_value must be a loss above -inf, got {bad}"):
        mtl_loss(bad, 1.0, weight)
    with pytest.raises(DataError, match=f"attention_loss_value must be a loss above -inf, got {bad}"):
        mtl_loss(math.inf, bad, weight)
    assert mtl_loss(math.inf, math.inf, weight) == math.inf  # an infeasible CTC target is a valid loss


def test_numbers_of_every_kind_pass_the_checks_unchanged():
    assert SpecAugmentPolicy(np.int64(1), np.int32(3), True, np.float32(0.5), np.uint8(7)).num_time_masks is True
    assert FusionWeights(np.float32(0.5), np.int64(2)).lm_weight == 2
    assert positive("x", np.float64(0.5)) == 0.5 and positive("x", np.int16(3)) == 3
