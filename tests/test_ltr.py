import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrkit.audio_io import AudioBuffer
from ltrkit.features import distortion_curve
from ltrkit.ltr import DEFAULT_DURATIONS_MS, LtrConfig, reverse_segments, segment_samples


def make_buffer(values, rate=1000):
    return AudioBuffer(np.asarray(values, dtype=np.float64), rate)


@pytest.mark.parametrize(
    "ms, rate, expected",
    [
        (5, 16000, 80),
        (25, 16000, 400),
        (20, 44100, 882),
        (50, 8000, 400),
        (0.01, 1000, 1),  # clamped to at least one sample
        (2.5, 1000, 3),  # .5 rounds away from zero, not to even
        (4.5, 1000, 5),
    ],
)
def test_segment_samples(ms, rate, expected):
    assert segment_samples(ms, rate) == expected


@pytest.mark.parametrize("ms, rate", [(0, 16000), (-5, 16000), (5, 0), (5, -1)])
def test_segment_samples_rejects_nonpositive(ms, rate):
    with pytest.raises(ValueError):
        segment_samples(ms, rate)


def test_reverse_with_tail_segment():
    buf = make_buffer([1, 2, 3, 4, 5, 6, 7])
    out = reverse_segments(buf, LtrConfig(3.0))  # L = 3 at 1 kHz
    assert out.samples.tolist() == [3, 2, 1, 6, 5, 4, 7]


def test_reverse_single_sample_segments_is_identity():
    buf = make_buffer([0.1, 0.2, 0.3])
    out = reverse_segments(buf, LtrConfig(1.0))
    assert np.array_equal(out.samples, buf.samples)


def test_reverse_segment_longer_than_signal_reverses_whole():
    buf = make_buffer([1, 2, 3, 4])
    out = reverse_segments(buf, LtrConfig(1000.0))
    assert out.samples.tolist() == [4, 3, 2, 1]


def test_reverse_rejects_empty_buffer():
    with pytest.raises(ValueError, match="empty"):
        reverse_segments(make_buffer([]), LtrConfig(5.0))


@settings(max_examples=60, deadline=None)
@given(
    samples=st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=300),
    segment_ms=st.floats(0.5, 80, allow_nan=False),
    rate=st.sampled_from([8000, 16000, 44100]),
)
def test_involution_and_segment_multisets(samples, segment_ms, rate):
    buf = AudioBuffer(np.array(samples), rate)
    config = LtrConfig(segment_ms)
    once = reverse_segments(buf, config)
    twice = reverse_segments(once, config)
    assert np.array_equal(twice.samples, buf.samples)
    assert len(once) == len(buf) and once.sample_rate_hz == rate
    # samples only ever move within their own segment
    seg = config.segment_samples(rate)
    for start in range(0, len(buf), seg):
        assert np.array_equal(
            np.sort(once.samples[start : start + seg]), np.sort(buf.samples[start : start + seg])
        )


def test_locality_of_single_sample_change():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 100)
    y = x.copy()
    y[37] += 0.25  # segment 3 for L = 10
    config = LtrConfig(10.0)
    a = reverse_segments(make_buffer(x), config).samples
    b = reverse_segments(make_buffer(y), config).samples
    changed = np.nonzero(a != b)[0]
    assert changed.tolist() == [32]  # 37 reversed within [30, 40)


def test_render_family_default_is_ten_renderings():
    buf = make_buffer(np.linspace(-1, 1, 2000), rate=16000)
    curve = distortion_curve(buf, "boundary")
    assert [duration_ms for duration_ms, _ in curve] == list(DEFAULT_DURATIONS_MS)
    assert DEFAULT_DURATIONS_MS == tuple(float(d) for d in range(5, 55, 5))


def test_render_family_preserves_order():
    buf = make_buffer([1, 2, 3, 4])
    # L=2 renders [2, 1, 4, 3] (one seam, jump 3); L=1 is the identity (three seams, jump 1)
    assert distortion_curve(buf, "boundary", [2.0, 1.0]) == [(2.0, 3.0), (1.0, 1.0)]


def test_render_family_empty_durations():
    assert distortion_curve(make_buffer([1.0]), "boundary", []) == []


def test_config_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        LtrConfig(0.0)
