import math
import struct

import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer, WavFormatError, _decode, read_wav, write_wav
from ltrkit.errors import DataError


def make_wav_bytes(payload: bytes, tag: int, channels: int, rate: int, bits: int, extra_chunks: bytes = b"") -> bytes:
    """Hand-assembled RIFF bytes so the reader is checked against the format
    itself, not against write_wav."""
    fmt = struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"fmt " + fmt + extra_chunks + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_pcm16_decode_mapping(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<3h", 0, 16384, -32768), 1, 1, 16000, 16))
    buf = read_wav(path)
    assert buf.sample_rate_hz == 16000
    assert buf.samples.tolist() == [0.0, 0.5, -1.0]


def test_float32_decode_is_identity(tmp_path):
    values = np.array([0.125, -0.5, 0.99999], dtype="<f4")
    path = tmp_path / "f.wav"
    path.write_bytes(make_wav_bytes(values.tobytes(), 3, 1, 8000, 32))
    buf = read_wav(path)
    assert np.array_equal(buf.samples, values.astype(np.float64))


def test_float32_infinity_decodes_clipped(tmp_path):
    path = tmp_path / "inf.wav"
    path.write_bytes(make_wav_bytes(np.array([np.inf, -np.inf, 0.5], dtype="<f4").tobytes(), 3, 1, 8000, 32))
    assert read_wav(path).samples.tolist() == [1.0, -1.0, 0.5]


def test_stereo_downmix_is_mean(tmp_path):
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<2h", 1000, 3000), 1, 2, 44100, 16))
    buf = read_wav(path)
    assert len(buf) == 1
    assert buf.samples[0] == (1000 + 3000) / 2 / 32768


@pytest.mark.parametrize("tag, bits, dtype", [(1, 16, "<i2"), (3, 32, "<f4")])
def test_stereo_read_holds_only_the_file_and_the_output(tmp_path, traced_peak, tag, bits, dtype):
    # the columns are summed from the file's frames; no interleaved float64
    # copy of them (8.5 MiB here) is made
    frames = np.random.default_rng(tag).integers(-30000, 30000, (560_000, 2))
    path = tmp_path / "st.wav"
    path.write_bytes(make_wav_bytes((frames if tag == 1 else frames / 32768.0).astype(dtype).tobytes(), tag, 2, 16000, bits))
    buffer, peak = traced_peak(read_wav, path)
    assert peak <= path.stat().st_size + buffer.samples.nbytes + 2**20, peak / 2**20


def test_unknown_chunks_are_skipped(tmp_path):
    junk = b"LIST" + struct.pack("<I", 5) + b"junk!" + b"\x00"  # odd size + pad byte
    path = tmp_path / "j.wav"
    path.write_bytes(make_wav_bytes(struct.pack("<h", 16384), 1, 1, 16000, 16, extra_chunks=junk))
    assert read_wav(path).samples.tolist() == [0.5]


def test_read_length_equals_frame_count(tmp_path):
    frames = 77
    path = tmp_path / "n.wav"
    path.write_bytes(make_wav_bytes(b"\x00\x00" * 2 * frames, 1, 2, 16000, 16))
    assert len(read_wav(path)) == frames


@pytest.mark.parametrize(
    "blob, message",
    [
        (b"RIFX" + b"\x00" * 40, "not a RIFF/WAVE"),
        (b"RIFF" + struct.pack("<I", 4) + b"AIFF", "not a RIFF/WAVE"),
        (make_wav_bytes(b"\x00\x00", 1, 0, 16000, 16), "bad.wav: channel count 0 is invalid"),
        (make_wav_bytes(b"\x00" * 4, 1, 1, 16000, 8), "unsupported codec"),
        (make_wav_bytes(b"\x00" * 8, 3, 1, 16000, 64), "unsupported codec"),
        (make_wav_bytes(b"\xfe" * 4, 85, 1, 16000, 16), "unsupported codec"),
        (make_wav_bytes(b"", 1, 1, 16000, 16), "zero-length data"),
        (make_wav_bytes(b"\x00\x00\x00", 1, 2, 16000, 16), "not a multiple"),
        (make_wav_bytes(b"\x00\x00", 1, 1, 0, 16), "bad.wav: sample_rate_hz must be positive"),
        (make_wav_bytes(np.array([0.5, np.nan], dtype="<f4").tobytes(), 3, 1, 16000, 32), "bad.wav: samples must be finite"),
    ],
)
def test_malformed_and_unsupported_files(tmp_path, blob, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    for decode in (read_wav, _decode):
        with pytest.raises(WavFormatError, match=message):
            decode(path)


def test_missing_data_chunk(tmp_path):
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    body = b"fmt " + fmt
    path = tmp_path / "nodata.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    with pytest.raises(WavFormatError, match="missing 'data'"):
        read_wav(path)


def test_float32_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    samples = rng.uniform(-1, 1, 1234).astype(np.float32).astype(np.float64)
    buf = AudioBuffer(samples, 22050)
    path = tmp_path / "rt.wav"
    write_wav(buf, path, "float32")
    back = read_wav(path)
    assert back.sample_rate_hz == 22050
    assert np.array_equal(back.samples, samples)


def test_pcm16_round_trip_error_bound(tmp_path):
    rng = np.random.default_rng(8)
    samples = rng.uniform(-1, 1, 5000)
    path = tmp_path / "rt16.wav"
    write_wav(AudioBuffer(samples, 16000), path, "pcm16")
    back = read_wav(path)
    assert np.max(np.abs(back.samples - samples)) <= 1 / 32768


def test_pcm16_quarter_survives(tmp_path):
    path = tmp_path / "q.wav"
    write_wav(AudioBuffer([0.25], 8000), path, "pcm16")
    assert abs(read_wav(path).samples[0] - 0.25) <= 1 / 32768


def test_encode_clips_out_of_range(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(AudioBuffer([1.5, -2.0], 8000), path, "pcm16")
    raw = path.read_bytes()
    stored = struct.unpack("<2h", raw[44:])
    assert stored == (32767, -32768)


def test_written_header_is_canonical_44_bytes(tmp_path):
    path = tmp_path / "h.wav"
    write_wav(AudioBuffer([0.0, 0.1], 16000), path, "pcm16")
    raw = path.read_bytes()
    assert raw[:4] == b"RIFF" and raw[8:12] == b"WAVE"
    assert raw[12:16] == b"fmt " and struct.unpack_from("<I", raw, 16)[0] == 16
    assert raw[36:40] == b"data"
    assert len(raw) == 44 + 4
    assert struct.unpack_from("<I", raw, 4)[0] == len(raw) - 8


def test_write_rejects_empty_buffer(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        write_wav(AudioBuffer(np.array([]), 8000), tmp_path / "e.wav", "pcm16")


def test_write_rejects_unknown_codec(tmp_path):
    with pytest.raises(ValueError, match="codec"):
        write_wav(AudioBuffer([0.0], 8000), tmp_path / "c.wav", "mp3")


def test_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer([0.0], 0)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 2)), 8000)
    for rate in (math.nan, math.inf):
        with pytest.raises(DataError, match="sample_rate_hz"):
            AudioBuffer([0.0], rate)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DataError, match="1 of 2 are not"):
            AudioBuffer([0.0, bad], 8000)


@pytest.mark.parametrize(
    "samples, rate, message",
    [
        (np.zeros((1, 2)), 0, "samples must be one-dimensional"),
        ([math.nan], 0, "samples must be finite"),
        ([math.inf], 16000.5, "samples must be finite"),
        ([0.0], 16000.5, "sample_rate_hz must be a whole number"),
    ],
)
def test_a_buffer_with_two_faults_reports_shape_then_finiteness_then_rate(samples, rate, message):
    with pytest.raises(DataError, match=message):
        AudioBuffer(samples, rate)
    with pytest.raises(DataError, match=message):
        AudioBuffer._adopt(np.array(samples, dtype=np.float64), rate)


def test_sample_rate_must_be_a_whole_number(tmp_path):
    with pytest.raises(DataError, match="sample_rate_hz must be a whole number, got 16000.5"):
        AudioBuffer([0.0], 16000.5)
    buf = AudioBuffer([0.25, -0.5], 16000.0)
    assert buf.sample_rate_hz == 16000 and type(buf.sample_rate_hz) is int
    write_wav(buf, tmp_path / "f.wav", "pcm16")
    write_wav(AudioBuffer([0.25, -0.5], 16000), tmp_path / "i.wav", "pcm16")
    assert (tmp_path / "f.wav").read_bytes() == (tmp_path / "i.wav").read_bytes()


def test_buffer_is_immutable():
    buf = AudioBuffer([0.0, 0.5], 8000)
    with pytest.raises(ValueError):
        buf.samples[0] = 1.0
