import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltrkit
from ltrkit.audio_io import AudioBuffer, WavFormatError
from ltrkit.dataset import AugmentTag, ManifestError, ManifestRecord, load_manifest
from ltrkit.errors import DataError, numbered_lines, positive
from ltrkit.features import FeatureMatrix
from ltrkit.ltr import reverse_segments, segment_samples
from ltrkit.matrix_io import MatrixFormatError
from ltrkit.metrics import TrnFormatError, read_trn
from ltrkit.perturb import speed_perturb
from ltrkit.scoring import FusionWeights, PosteriorGrid, load_hypotheses

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
