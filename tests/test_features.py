import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer
from ltrkit.features import (
    FeatureMatrix,
    boundary_discontinuity,
    distortion_curve,
    fbank,
    load_features,
    mvn,
    save_features,
    spectral_distance,
)
from ltrkit.ltr import DEFAULT_DURATIONS_MS, LtrConfig, reverse_segments
from ltrkit.matrix_io import MatrixFormatError


def tone(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return AudioBuffer(amp * np.sin(2 * np.pi * freq * t), rate)


def test_one_second_at_16k_gives_98_frames():
    feats = fbank(tone(440))
    assert feats.frames == 1 + (16000 - 400) // 160 == 98
    assert feats.dims == 80


@pytest.mark.parametrize("n", np.random.default_rng(11).integers(400, 50000, size=12).tolist())
def test_frame_count_formula(n):
    buf = AudioBuffer(np.zeros(n), 16000)
    assert fbank(buf).frames == 1 + (n - 400) // 160


def test_too_short_buffer_rejected():
    with pytest.raises(ValueError, match="shorter than one"):
        fbank(AudioBuffer(np.zeros(399), 16000))


@pytest.mark.parametrize("window_ms, shift_ms", [(0.0, 10.0), (25.0, -5.0), (-25.0, 10.0), (25.0, 0.0)])
def test_nonpositive_window_or_shift_rejected(window_ms, shift_ms):
    with pytest.raises(ValueError, match="must be positive"):
        fbank(AudioBuffer(np.zeros(800), 8000), 10, window_ms, shift_ms)


def test_silence_hits_energy_floor():
    feats = fbank(AudioBuffer(np.zeros(1600), 16000))
    assert np.all(feats.values == np.log(1e-10))


def test_cells_never_below_floor():
    rng = np.random.default_rng(5)
    feats = fbank(AudioBuffer(rng.uniform(-1, 1, 4000), 16000))
    assert np.all(feats.values >= np.log(1e-10))


def test_440hz_peak_lands_in_the_440hz_band():
    """Independent oracle: locate the sine's dominant frequency with a plain
    FFT, then require the winning mel band's support to contain it."""
    buf = tone(440)
    spectrum = np.abs(np.fft.rfft(buf.samples[:8192]))
    dominant_hz = np.argmax(spectrum) * buf.sample_rate_hz / 8192
    assert abs(dominant_hz - 440) < 4  # sanity: the signal is what we think

    # mel edges recomputed here, not imported from the module under test
    def hz_to_mel(f):
        return 2595 * np.log10(1 + f / 700)

    def mel_to_hz(m):
        return 700 * (10 ** (m / 2595) - 1)

    edges = mel_to_hz(np.linspace(hz_to_mel(0), hz_to_mel(8000), 82))
    containing = {band for band in range(80) if edges[band] < 440 < edges[band + 2]}

    feats = fbank(buf)
    winners = set(np.argmax(feats.values[1:-1], axis=1).tolist())  # interior frames
    assert winners <= containing


def test_mvn_constant_matrix_goes_to_zero():
    out = mvn(FeatureMatrix(np.full((7, 4), 3.25)))
    assert np.all(out.values == 0.0)


def test_mvn_single_frame_goes_to_zero():
    out = mvn(FeatureMatrix(np.array([[1.0, -2.0, 5.0]])))
    assert np.all(out.values == 0.0)


def test_mvn_normalizes_columns():
    rng = np.random.default_rng(2)
    out = mvn(FeatureMatrix(rng.normal(3, 10, size=(200, 9))))
    assert np.max(np.abs(out.values.mean(axis=0))) < 1e-6
    assert np.max(np.abs(out.values.var(axis=0) - 1)) < 1e-4


def test_mvn_idempotent_and_affine_invariant():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(60, 13))
    once = mvn(FeatureMatrix(m)).values
    assert np.max(np.abs(mvn(FeatureMatrix(once)).values - once)) < 1e-6
    scaled = mvn(FeatureMatrix(2.5 * m + 7.0)).values
    assert np.max(np.abs(scaled - once)) < 1e-6


def test_boundary_of_smooth_ramp_is_the_step():
    buf = AudioBuffer(np.arange(50) * 0.1 / 50, 1000)
    for ms in (2.0, 5.0, 7.0):
        assert boundary_discontinuity(buf, LtrConfig(ms)) == pytest.approx(0.1 / 50)


def test_boundary_of_constant_signal_is_zero():
    buf = AudioBuffer(np.full(100, 0.3), 1000)
    assert boundary_discontinuity(buf, LtrConfig(10.0)) == 0.0


def test_boundary_of_ltr_ramp_hand_value():
    # 12-sample ramp with step 0.01, reversed in blocks of 4:
    # jumps |0.07-0.00| and |0.11-0.04| -> mean 0.07
    config = LtrConfig(4.0)
    ramp = AudioBuffer(np.arange(12) * 0.01, 1000)
    rendered = reverse_segments(ramp, config)
    assert boundary_discontinuity(rendered, config) == pytest.approx(0.07, abs=1e-12)


def test_boundary_needs_two_segments():
    with pytest.raises(ValueError, match="fewer than two"):
        boundary_discontinuity(AudioBuffer(np.zeros(5), 1000), LtrConfig(10.0))


def test_spectral_distance_basics():
    rng = np.random.default_rng(9)
    a = FeatureMatrix(rng.normal(size=(10, 5)))
    b = FeatureMatrix(a.values + 1.0)
    c = FeatureMatrix(rng.normal(size=(10, 5)))
    assert spectral_distance(a, a) == 0.0
    assert spectral_distance(a, b) == pytest.approx(1.0)
    assert spectral_distance(a, c) == spectral_distance(c, a)
    with pytest.raises(ValueError, match="shape"):
        spectral_distance(a, FeatureMatrix(np.zeros((3, 5))))


def test_distortion_curve_matches_each_rendering():
    buf = tone(300, seconds=0.5)
    boundary = distortion_curve(buf, "boundary")
    spectral = distortion_curve(buf, "spectral-distance", [30.0, 10.0])
    reference = fbank(buf)
    assert boundary == [
        (ms, boundary_discontinuity(reverse_segments(buf, LtrConfig(ms)), LtrConfig(ms))) for ms in DEFAULT_DURATIONS_MS
    ]
    assert spectral == [(ms, spectral_distance(reference, fbank(reverse_segments(buf, LtrConfig(ms))))) for ms in (30.0, 10.0)]


def test_distortion_curve_rejects_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        distortion_curve(tone(300), "energy")


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    feats = FeatureMatrix(rng.normal(size=(33, 80)).astype(np.float32))
    path = tmp_path / "x.fbk"
    save_features(feats, path)
    back = load_features(path)
    assert back.values.shape == (33, 80)
    assert np.array_equal(back.values, feats.values)  # f32-representable in, identical out
    assert path.read_bytes()[:4] == b"FBK1"


def test_feature_file_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.fbk"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(MatrixFormatError, match="FBK1"):
        load_features(path)


def test_feature_file_rejects_truncation(tmp_path):
    feats = FeatureMatrix(np.zeros((4, 4)))
    path = tmp_path / "t.fbk"
    save_features(feats, path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(MatrixFormatError, match="expected"):
        load_features(path)
