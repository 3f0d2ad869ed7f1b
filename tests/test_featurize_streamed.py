"""The streamed ``featurize`` against the composition it replaces.

``ltrkit featurize`` decodes its input one FFT block's span at a time,
normalizes in place and writes float32 row blocks. Its FBK1 file must equal
``save_features(mvn(fbank(read_wav(p))))`` (or the ``--no-mvn`` form) byte for
byte, and its errors must be that composition's, in the same order.
"""

import os
import struct
import threading

import numpy as np
import pytest

from ltrkit import cli
from ltrkit.audio_io import WavFormatError, read_wav
from ltrkit.errors import DataError
from ltrkit.features import FeatureMatrix, _featurize, _normalize, fbank, mvn, save_features
from ltrkit.matrix_io import FEATURES_MAGIC, write_matrix

_PCM, _FLOAT = 1, 3
_WINDOW, _HOP = 400, 160  # 25 and 10 ms at 16 kHz
_BLOCK_SPAN = 255 * _HOP + _WINDOW  # the samples of one 256-frame FFT block


def _wav(values: np.ndarray, tag: int, rate: int = 16000, before: bytes = b"", after: bytes = b"") -> bytes:
    frames, channels = values.shape
    bits = values.itemsize * 8
    fmt = struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * channels * bits // 8 & 0xFFFFFFFF, channels * bits // 8, bits)
    body = b"fmt " + fmt + before + b"data" + struct.pack("<I", values.nbytes) + values.tobytes() + after
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _chunk(name: bytes, size: int) -> bytes:
    return name + struct.pack("<I", size) + bytes(range(size % 256))[:size].ljust(size, b"\x07") + b"\x00" * (size & 1)


def _samples(rng, codec: str, frames: int, channels: int) -> tuple[np.ndarray, int]:
    if codec == "pcm16":
        return rng.integers(-32768, 32768, (frames, channels)).astype("<i2"), _PCM
    return rng.uniform(-1.2, 1.2, (frames, channels)).astype("<f4"), _FLOAT


def _composed(path, out, dims=80, window_ms=25.0, shift_ms=10.0, normalize=True):
    features = fbank(read_wav(path), dims, window_ms, shift_ms)
    save_features(mvn(features) if normalize else features, out)


def _outcome(fn, *args):
    try:
        fn(*args)
        return "ok", None
    except (DataError, OSError) as exc:
        return type(exc), str(exc)


def _assert_same(tmp_path, wav, dims=80, window_ms=25.0, shift_ms=10.0):
    for normalize in (True, False):
        want, got = tmp_path / "want.fbk", tmp_path / "got.fbk"
        expected = _outcome(_composed, wav, want, dims, window_ms, shift_ms, normalize)
        assert _outcome(_featurize, wav, got, dims, window_ms, shift_ms, normalize) == expected
        if expected[0] == "ok":
            assert got.read_bytes() == want.read_bytes(), (wav.name, dims, normalize)
            os.remove(want)
            os.remove(got)
    return expected


@pytest.mark.parametrize("codec", ["pcm16", "float32"])
@pytest.mark.parametrize("channels", [1, 2, 3, 8, 9, 16])
def test_featurize_equals_the_composition_on_every_layout(tmp_path, codec, channels):
    rng = np.random.default_rng(channels)
    values, tag = _samples(rng, codec, _WINDOW + 512 * _HOP + 159, channels)
    values[_BLOCK_SPAN - 1] = 0
    if tag == _FLOAT:
        values[[7, _BLOCK_SPAN, _BLOCK_SPAN + 3]] = -0.0  # -0.0 in every channel of a frame
        values[11] = np.inf
        values[_BLOCK_SPAN + 5] = -np.inf
        values[13, 0] = np.inf
    path = tmp_path / "in.wav"
    path.write_bytes(_wav(values, tag))
    assert _assert_same(tmp_path, path)[0] == "ok"


@pytest.mark.parametrize("frames", [1, 2, 255, 256, 257, 511, 512, 513])
def test_featurize_equals_the_composition_on_both_sides_of_each_block_edge(tmp_path, frames):
    rng = np.random.default_rng(frames)
    for tail in (0, 1, _HOP - 1):  # the samples after the last frame
        values, tag = _samples(rng, "float32", _WINDOW + (frames - 1) * _HOP + tail, 2)
        path = tmp_path / "in.wav"
        path.write_bytes(_wav(values, tag))
        assert _assert_same(tmp_path, path)[0] == "ok"
        assert len(read_wav(path)) == _WINDOW + (frames - 1) * _HOP + tail


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 23, 80, 128])
def test_featurize_equals_the_composition_at_every_dims(tmp_path, dims):
    values, tag = _samples(np.random.default_rng(dims), "pcm16", _WINDOW + 700 * _HOP, 1)
    path = tmp_path / "in.wav"
    path.write_bytes(_wav(values, tag))
    assert _assert_same(tmp_path, path, dims)[0] == "ok"
    path.write_bytes(_wav(values[: 8000], tag, 8000))  # 8 kHz: a 200-sample window
    assert _assert_same(tmp_path, path, dims, 25.0, 7.5)[0] == "ok"


def test_featurize_skips_odd_chunks_and_takes_the_last_data_chunk(tmp_path):
    rng = np.random.default_rng(3)
    first, tag = _samples(rng, "pcm16", 5000, 2)
    last, _ = _samples(rng, "pcm16", _BLOCK_SPAN + 999, 2)
    second_data = b"data" + struct.pack("<I", last.nbytes) + last.tobytes()
    path = tmp_path / "in.wav"
    for before, after in ((_chunk(b"junk", 7), _chunk(b"LIST", 3)), (_chunk(b"junk", 1), second_data + _chunk(b"id3 ", 5))):
        path.write_bytes(_wav(first, tag, before=before, after=after))
        assert _assert_same(tmp_path, path)[0] == "ok"
    assert len(read_wav(path)) == len(last)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_featurize_reads_a_pipe_whole_through_the_same_parse(tmp_path):
    values, tag = _samples(np.random.default_rng(4), "float32", _BLOCK_SPAN * 2 + 77, 3)
    data = _wav(values, tag, before=_chunk(b"junk", 9))
    regular, fifo = tmp_path / "in.wav", tmp_path / "fifo.wav"
    regular.write_bytes(data)
    _composed(regular, tmp_path / "want.fbk")
    _composed(regular, tmp_path / "want-raw.fbk", normalize=False)
    os.mkfifo(fifo)
    for extra, want in (([], "want.fbk"), (["--no-mvn"], "want-raw.fbk")):
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        assert cli.run(["featurize", "--in", str(fifo), "--out", str(tmp_path / "got.fbk"), *extra]) == 0
        writer.join(10)
        assert (tmp_path / "got.fbk").read_bytes() == (tmp_path / want).read_bytes()
    # a file with a NaN gives read_wav's error, read from the same pipe
    values[9000, 0] = np.nan
    writer = threading.Thread(target=fifo.write_bytes, args=(_wav(values, tag),), daemon=True)
    writer.start()
    with pytest.raises(WavFormatError, match=f"samples must be finite, 1 of {len(values)} are not"):
        _featurize(fifo, tmp_path / "nan.fbk", 80, 25.0, 10.0, True)
    writer.join(10)
    assert not (tmp_path / "nan.fbk").exists()


def test_featurize_may_write_over_its_input(tmp_path):
    values, tag = _samples(np.random.default_rng(5), "pcm16", _BLOCK_SPAN * 3, 1)
    path = tmp_path / "in.wav"
    for extra in ([], ["--no-mvn"]):
        path.write_bytes(_wav(values, tag))
        _composed(path, tmp_path / "want.fbk", normalize=not extra)
        assert cli.run(["featurize", "--in", str(path), "--out", str(path), *extra]) == 0
        assert path.read_bytes() == (tmp_path / "want.fbk").read_bytes()


def test_a_nan_is_read_wav_s_error_counted_over_the_whole_file(tmp_path):
    path = tmp_path / "in.wav"
    # -1 and -50 lie after the last frame; 255 * _HOP + 83 lies between the
    # first two FFT blocks, which a 5 ms window every 10 ms leaves 80 samples apart
    for nans, window_ms in (([5], 25.0), ([5, _BLOCK_SPAN * 2, -1], 25.0), ([-50], 25.0), ([255 * _HOP + 80 + 3], 5.0)):
        values, tag = _samples(np.random.default_rng(6), "float32", _WINDOW + 600 * _HOP + 100, 1)
        values[nans] = np.nan
        path.write_bytes(_wav(values, tag))
        message = f"{path}: samples must be finite, {len(nans)} of {len(values)} are not"
        assert _assert_same(tmp_path, path, window_ms=window_ms) == (WavFormatError, message)


def test_read_wav_s_errors_come_before_fbank_s(tmp_path):
    path = tmp_path / "in.wav"
    short = np.full((300, 2), 0.25, dtype="<f4")  # shorter than one 25 ms window at 16 kHz
    short[100, 1] = np.nan
    path.write_bytes(_wav(short, _FLOAT))
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: samples must be finite, 1 of 300 are not")
    assert _assert_same(tmp_path, path, 0) == (WavFormatError, f"{path}: samples must be finite, 1 of 300 are not")
    path.write_bytes(_wav(short, _FLOAT, rate=0))  # NaN before the zero rate, as in read_wav
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: samples must be finite, 1 of 300 are not")
    short[100, 1] = 0.5
    path.write_bytes(_wav(short, _FLOAT, rate=0))
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: sample_rate_hz must be positive and finite, got 0")
    path.write_bytes(_wav(short, _FLOAT))
    assert _assert_same(tmp_path, path) == (DataError, "buffer of 300 samples is shorter than one 25 ms window")
    long = np.zeros((_BLOCK_SPAN, 1), dtype="<i2")
    path.write_bytes(_wav(long, _PCM, after=b"LIST" + struct.pack("<I", 10) + b"cut"))  # a truncated chunk after data
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: truncated b'LIST' chunk")
    fmt = struct.pack("<IHHIIHH", 16, _PCM, 1, 16000, 32000, 2, 16)
    path.write_bytes(b"RIFF\0\0\0\0WAVEfmt " + struct.pack("<I", 14) + fmt[4:18] + b"data" + fmt)  # a 14-byte 'fmt '
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: missing or short 'fmt ' chunk")
    path.write_bytes(_wav(long[:0], _PCM, before=_chunk(b"junk", 3)))
    assert _assert_same(tmp_path, path) == (WavFormatError, f"{path}: zero-length data chunk")
    assert cli.run(["featurize", "--in", str(path), "--out", str(tmp_path / "f.fbk")]) == 2
    assert not (tmp_path / "f.fbk").exists()


def test_featurize_of_ten_minutes_peaks_at_its_output_plus_a_block(tmp_path, traced_peak):
    rng = np.random.default_rng(28)
    path, out = tmp_path / "ten.wav", tmp_path / "ten.fbk"
    path.write_bytes(_wav(rng.integers(-32768, 32768, (16000 * 600, 1)).astype("<i2"), _PCM))
    short = tmp_path / "short.wav"
    short.write_bytes(_wav(np.zeros((16000, 1), dtype="<i2"), _PCM))
    _featurize(short, out, 80, 25.0, 10.0, True)  # the tables are cached by then
    _, peak = traced_peak(_featurize, path, out, 80, 25.0, 10.0, True)
    output = 59_998 * 80 * 8  # 36.6 MiB of float64 features
    assert out.stat().st_size == 12 + output // 2
    # the composition peaked at 113.7 MiB: the file, its float64 samples and
    # three output-sized arrays in mvn and the float32 copy
    assert peak <= output + (6 << 20), peak / 2**20


def test_read_wav_never_holds_an_unknown_chunk(tmp_path, traced_peak):
    path = tmp_path / "big-chunk.wav"
    values = np.arange(-2000, 2000, dtype="<i2")[:, None]
    fmt = struct.pack("<IHHIIHH", 16, _PCM, 1, 16000, 32000, 2, 16)
    with open(path, "wb") as handle:
        handle.write(b"RIFF" + struct.pack("<I", 0) + b"WAVE" + b"fmt " + fmt + b"junk" + struct.pack("<I", 64 << 20))
        handle.seek(64 << 20, os.SEEK_CUR)  # a sparse 64 MiB chunk
        handle.write(b"data" + struct.pack("<I", values.nbytes) + values.tobytes())
    buffer, peak = traced_peak(read_wav, path)
    assert np.array_equal(buffer.samples, values[:, 0] / 32768.0)
    assert peak < 1 << 20, peak / 2**20


def _seed_mvn(v):
    centered = v - v.mean(axis=0)
    spread = np.sqrt((centered * centered).sum(axis=0) / len(v))
    centered /= np.maximum(spread, 1e-8)
    return centered


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 23, 80, 128])
def test_the_mvn_core_matches_the_seed_formula_bit_for_bit(dims):
    rng = np.random.default_rng(dims)
    for frames in (1, 2, 255, 256, 257, 511, 512, 513, 4097):
        m = rng.normal(rng.normal(0.0, 30.0), 10.0 ** rng.integers(-3, 3), (frames, dims))
        m[:, rng.random(dims) < 0.2] = rng.normal()  # constant columns
        for layout in (m, np.asfortranarray(m)):  # F order sums each column pairwise, in the seed too
            want = _seed_mvn(layout)
            v = layout.copy(order="K")
            _normalize(v)
            assert v.tobytes() == want.tobytes(), (frames, layout.flags.f_contiguous)
            assert mvn(FeatureMatrix(layout)).values.tobytes() == want.tobytes()


def test_the_mvn_core_holds_no_output_sized_temporary(traced_peak):
    v = np.random.default_rng(7).normal(-5.0, 3.0, (30_000, 80))
    want = _seed_mvn(v)
    _, peak = traced_peak(_normalize, v)
    assert peak < v.nbytes // 16, peak / 2**20
    assert v.tobytes() == want.tobytes()


def test_write_matrix_checks_every_block_before_it_opens_the_file(tmp_path, traced_peak):
    path = tmp_path / "m.fbk"
    values = np.random.default_rng(8).normal(size=(20_000, 80))
    path.write_bytes(b"old")
    for row in (0, 819, 820, len(values) - 1):  # 819 rows of 80 fit a block
        bad = values.copy()
        bad[row, 79] = 1e39
        with pytest.raises(DataError, match="a finite value is too large for float32"):
            write_matrix(bad, path, FEATURES_MAGIC)
        assert path.read_bytes() == b"old"
    _, peak = traced_peak(write_matrix, values, path, FEATURES_MAGIC)
    assert peak < values.nbytes // 8, peak / 2**20  # a float32 copy is half the values
    assert path.read_bytes() == FEATURES_MAGIC + struct.pack("<II", *values.shape) + values.astype("<f4").tobytes()
