import math

import numpy as np
import pytest

from ltrkit import features as features_module
from ltrkit.audio_io import AudioBuffer
from ltrkit.errors import DataError
from ltrkit.features import (
    _MAX_FILTERBANK_CELLS,
    _MAX_FRAME_CELLS,
    FeatureMatrix,
    _mel_filterbank,
    _tables,
    boundary_discontinuity,
    distortion_csv,
    distortion_curve,
    fbank,
    load_features,
    mvn,
    save_features,
    spectral_distance,
)
from ltrkit.ltr import DEFAULT_DURATIONS_MS, reverse_segments, segment_samples
from ltrkit.matrix_io import FEATURES_MAGIC, MatrixFormatError, write_matrix


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


@pytest.mark.parametrize(
    "window_ms, shift_ms",
    [(0.0, 10.0), (25.0, -5.0), (-25.0, 10.0), (25.0, 0.0), (float("nan"), 10.0), (25.0, float("inf"))],
)
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


def _mvn_with_std(v):
    centered = v - v.mean(axis=0)
    centered /= np.maximum(v.std(axis=0), 1e-8)
    return centered


def test_mvn_matches_the_std_form_bit_for_bit():
    rng = np.random.default_rng(5)
    for trial in range(60):
        frames, dims = int(rng.integers(1, 400)), int(rng.integers(1, 40))
        m = rng.normal(rng.normal(0, 50), 10.0 ** rng.integers(-6, 4), size=(frames, dims))
        m[:, rng.random(dims) < 0.2] = rng.normal()  # constant columns
        if trial % 2:
            m = np.asfortranarray(m)
        got, want = mvn(FeatureMatrix(m)).values, _mvn_with_std(m)
        assert got.tobytes() == want.tobytes(), trial


def test_boundary_of_smooth_ramp_is_the_step():
    buf = AudioBuffer(np.arange(50) * 0.1 / 50, 1000)
    for ms in (2.0, 5.0, 7.0):
        assert boundary_discontinuity(buf, ms) == pytest.approx(0.1 / 50)


def test_boundary_of_constant_signal_is_zero():
    buf = AudioBuffer(np.full(100, 0.3), 1000)
    assert boundary_discontinuity(buf, 10.0) == 0.0


def test_boundary_of_ltr_ramp_hand_value():
    # 12-sample ramp with step 0.01, reversed in blocks of 4:
    # jumps |0.07-0.00| and |0.11-0.04| -> mean 0.07
    ramp = AudioBuffer(np.arange(12) * 0.01, 1000)
    rendered = reverse_segments(ramp, 4.0)
    assert boundary_discontinuity(rendered, 4.0) == pytest.approx(0.07, abs=1e-12)


def test_boundary_needs_two_segments():
    with pytest.raises(ValueError, match="fewer than two"):
        boundary_discontinuity(AudioBuffer(np.zeros(5), 1000), 10.0)


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
        (ms, boundary_discontinuity(reverse_segments(buf, ms), ms)) for ms in DEFAULT_DURATIONS_MS
    ]
    assert spectral == [(ms, spectral_distance(reference, fbank(reverse_segments(buf, ms)))) for ms in (30.0, 10.0)]


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_boundary_curve_gathers_the_seams_each_rendering_has(rate):
    # distortion_curve reads the seams from the source; it must give the
    # rendered buffer's value bit for bit, short last segment or not
    rng = np.random.default_rng(rate)
    for ms in DEFAULT_DURATIONS_MS:
        seg = segment_samples(ms, rate)
        for n in (seg + 1, 2 * seg - 1, 2 * seg, 2 * seg + 1, 7 * seg + 3, 2 * rate + 1):
            buf = AudioBuffer(rng.uniform(-1.0, 1.0, n), rate)
            ((_, got),) = distortion_curve(buf, "boundary", [ms])
            want = boundary_discontinuity(reverse_segments(buf, ms), ms)
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (ms, n)
    for samples, ms, message in (([], 5.0, "buffer is empty"), ([0.5] * 40, 5.0, "fewer than two 5 ms segments"), ([0.5] * 400, 0.0, "positive")):
        with pytest.raises(DataError, match=message):
            distortion_curve(AudioBuffer(samples, rate), "boundary", [ms])


def test_distortion_csv_formats_the_curve():
    buf = tone(300, seconds=0.5)
    (_, a), (_, b) = distortion_curve(buf, "boundary", [7.5, 20.0])
    assert distortion_csv(buf, "boundary", [7.5, 20.0]) == f"segment_ms,value\n7.5,{a:.9g}\n20,{b:.9g}\n"


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_matrix_rejects_non_finite_values(tmp_path, bad):
    with pytest.raises(DataError, match="1 of 6 are not"):
        FeatureMatrix([[0.0, 1.0, 2.0], [3.0, bad, 5.0]])
    path = tmp_path / "nan.fbk"
    write_matrix(np.array([[0.0, bad], [1.0, 2.0]]), path, FEATURES_MAGIC)
    with pytest.raises(MatrixFormatError, match=f"{path.name}: feature values must be finite"):
        load_features(path)


def test_load_features_rejects_a_signaling_nan_without_a_warning(tmp_path):
    # widening the bits 0x7f800001 sets the invalid flag; under the suite's
    # filterwarnings = error a warning would raise before the loader's error
    path = tmp_path / "snan.fbk"
    path.write_bytes(FEATURES_MAGIC + np.array([1, 2, 0x3F800000, 0x7F800001], dtype="<u4").tobytes())
    with pytest.raises(MatrixFormatError, match=f"{path.name}: feature values must be finite"):
        load_features(path)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_feature_matrix_rejects_empty_shapes(tmp_path, shape):
    with pytest.raises(DataError, match=rf"at least one frame and one dim, got shape \({shape[0]}, {shape[1]}\)"):
        FeatureMatrix(np.zeros(shape))
    path = tmp_path / "empty.fbk"
    write_matrix(np.zeros(shape), path, FEATURES_MAGIC)
    with pytest.raises(MatrixFormatError, match=f"{path.name}: feature values must be 2-D with at least one frame"):
        load_features(path)


def test_write_matrix_rejects_values_beyond_float32(tmp_path):
    path = tmp_path / "big.fbk"
    # filterwarnings = error makes a numpy overflow warning fail this test
    for save in (lambda: save_features(FeatureMatrix([[1e300, 1.0], [-1e39, 0.0]]), path),
                 lambda: write_matrix(np.array([[np.inf, np.nan], [-1e39, 0.0]]), path, FEATURES_MAGIC)):
        with pytest.raises(DataError, match=rf"{path.name}: a finite value is too large for float32 \(magnitude above 3.40282e\+38\)"):
            save()
        assert not path.exists()
    write_matrix(np.array([[np.nan, np.inf], [-np.inf, 3.4e38]]), path, FEATURES_MAGIC)  # written as given
    assert np.isinf(np.frombuffer(path.read_bytes(), "<f4", offset=12)[1:3]).all()


def test_fbank_of_overflowing_samples_is_a_data_error():
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DataError, match="feature values must be finite"):
        fbank(AudioBuffer(np.full(800, 1e306) * (-1.0) ** np.arange(800), 16000))


def _seed_fbank(buffer, dims=80, frame_length_ms=25.0, frame_shift_ms=10.0):
    """The all-frames-at-once fbank that the blocked one replaced, kept as
    the reference it must equal bit for bit."""
    window = segment_samples(frame_length_ms, buffer.sample_rate_hz)
    hop = segment_samples(frame_shift_ms, buffer.sample_rate_hz)
    n_frames = 1 + (len(buffer) - window) // hop
    frames = np.lib.stride_tricks.sliding_window_view(buffer.samples, window)[::hop][:n_frames]

    emphasized = np.empty((n_frames, window), dtype=np.float64)
    emphasized[:, 1:] = frames[:, 1:] - 0.97 * frames[:, :-1]
    emphasized[:, 0] = frames[:, 0] * (1.0 - 0.97)

    fft_size = 1 << (window - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(emphasized * np.hamming(window), fft_size))
    energies = spectrum @ _mel_filterbank(dims, fft_size, buffer.sample_rate_hz).T
    np.maximum(energies, 1e-10, out=energies)
    return np.log(energies, out=energies)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


_FRAME_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257, 511, 513)


@pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 44100])
@pytest.mark.parametrize("window_ms, shift_ms", [(25.0, 10.0), (20.0, 7.5), (10.0, 10.0), (64.0, 32.0), (0.1, 0.1)])
def test_fbank_matches_seed_bit_for_bit(rate, window_ms, shift_ms):
    rng = np.random.default_rng(rate + int(window_ms * 10))
    window = segment_samples(window_ms, rate)
    hop = segment_samples(shift_ms, rate)
    for frames in _FRAME_COUNTS:
        # a length that leaves a random remainder short of the next frame
        buffer = AudioBuffer(rng.uniform(-1.0, 1.0, window + (frames - 1) * hop + int(rng.integers(0, hop))), rate)
        for dims in (1, 13, 40, 80, 128):
            got = fbank(buffer, dims, window_ms, shift_ms).values
            assert got.shape[0] == frames
            assert _same_bits(got, _seed_fbank(buffer, dims, window_ms, shift_ms)), (frames, dims)


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_fbank_matches_seed_on_negative_zeros_and_ltr_renderings(rate):
    rng = np.random.default_rng(rate)
    n = rate * 3 + 123
    zeros = np.zeros(n)
    zeros[rng.uniform(size=n) < 0.5] = -0.0
    sparse = rng.normal(0.0, 0.3, n)
    sparse[rng.uniform(size=n) < 0.3] = -0.0
    t = np.arange(n) / rate
    speech_like = AudioBuffer(0.4 * np.sin(2 * np.pi * 220 * t) * np.sin(2 * np.pi * 3 * t) + 0.05 * rng.normal(size=n), rate)
    buffers = [AudioBuffer(zeros, rate), AudioBuffer(sparse, rate), speech_like]
    buffers += [reverse_segments(speech_like, ms) for ms in DEFAULT_DURATIONS_MS]
    for buffer in buffers:
        for dims in (13, 80):
            assert _same_bits(fbank(buffer, dims).values, _seed_fbank(buffer, dims))


def test_fbank_memory_stays_bounded(traced_peak):
    buffer = AudioBuffer(np.random.default_rng(0).uniform(-1.0, 1.0, 640_000), 16000)
    fbank(buffer)  # the tables are cached by then
    features, peak = traced_peak(fbank, buffer)
    # the spectrum and the output are the only arrays that grow with the
    # input; the all-frames-at-once form peaked at 40.1 MiB on this input,
    # and pre-emphasizing the whole signal at once at 14.8 MiB
    spectrum = features.frames * 257 * 8  # a 512-point FFT of each 400-sample frame
    assert peak <= spectrum + features.values.nbytes + 2**20, peak / 2**20
    assert _same_bits(features.values, _seed_fbank(buffer))


def test_cached_tables_are_read_only():
    buffer = AudioBuffer(np.zeros(1000), 8000)
    fbank(buffer, 13)
    hamming, mel = _tables(13, 200, 256, 8000)
    assert _tables(13, 200, 256, 8000)[1] is mel
    for table in (hamming, mel):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_filterbank_cap_is_checked_before_the_tables_are_built(monkeypatch):
    buffer = tone(440.0)  # a 400-sample window, a 512-point FFT: 257 bins
    built = []

    def tables(*args):
        built.append(args)
        raise RuntimeError("building the tables")

    monkeypatch.setattr(features_module, "_tables", tables)
    for dims in (_MAX_FILTERBANK_CELLS // 257 + 1, 10**9, 10**30):
        with pytest.raises(DataError, match="filterbank cells"):
            fbank(buffer, dims)
    assert built == []
    with pytest.raises(RuntimeError, match="building"):  # at the cap the tables are built
        fbank(buffer, _MAX_FILTERBANK_CELLS // 257)
    assert built == [(_MAX_FILTERBANK_CELLS // 257, 400, 512, 16000)]


@pytest.mark.parametrize(
    "seconds, dims, window_ms, shift_ms",
    [
        (1, 2_000_000, 0.1, 0.1),  # 8000 frames x 2,000,000 dims: 119 GiB of energies
        (10, 40, 5000.0, 0.0625),  # 80,001 frames x 65,537 FFT bins: 39 GiB of spectrum
    ],
)
def test_spectrum_and_output_cap_is_checked_before_anything_is_built(
    monkeypatch, traced_peak, seconds, dims, window_ms, shift_ms
):
    buffer = AudioBuffer(np.zeros(16000 * seconds), 16000)
    monkeypatch.setattr(features_module, "_tables", lambda *args: pytest.fail("tables built"))

    def rejected():
        with pytest.raises(DataError, match=f"need more than {_MAX_FRAME_CELLS} cells"):
            fbank(buffer, dims, window_ms, shift_ms)

    assert traced_peak(rejected)[1] < 4 << 20

