"""The copy-free WAV path against the bodies it replaced.

``_seed_read_wav``, ``_seed_write_wav`` and ``_seed_reverse_segments`` are the
earlier implementations, kept verbatim apart from their names: they slice the
data chunk into new bytes, downmix with ``mean(axis=1)``, reverse through a
temporary and encode with ``tobytes`` and ``header + payload``. The library
must give the same samples, sign bits included, and the same file bytes;
``build_set``, which reverses the encoded payload, must write the files and
manifest of these three composed.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer, WavFormatError, _encode_wav, read_wav, write_wav
from ltrkit.dataset import SET_DURATIONS_MS, AugmentTag, ManifestRecord, build_set, save_manifest
from ltrkit.errors import DataError
from ltrkit.ltr import _reverse, reverse_segments, segment_samples

_TAG_PCM = 1
_TAG_IEEE_FLOAT = 3


def _seed_read_wav(path):
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt_body = None
    data_body = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt_body = body
        elif chunk_id == b"data":
            data_body = body
        # chunks are word-aligned: odd sizes carry one pad byte
        pos += 8 + size + (size & 1)

    if fmt_body is None or len(fmt_body) < 16:
        raise WavFormatError(f"{path}: missing or short 'fmt ' chunk")
    if data_body is None:
        raise WavFormatError(f"{path}: missing 'data' chunk")

    tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt_body, 0)
    if channels < 1:
        raise WavFormatError(f"{path}: channel count {channels} is invalid")
    if (tag, bits) == (_TAG_PCM, 16):
        dtype = np.dtype("<i2")
    elif (tag, bits) == (_TAG_IEEE_FLOAT, 32):
        dtype = np.dtype("<f4")
    else:
        raise WavFormatError(f"{path}: unsupported codec (format tag {tag}, {bits}-bit)")

    if len(data_body) == 0:
        raise WavFormatError(f"{path}: zero-length data chunk")
    frame_size = channels * dtype.itemsize
    if len(data_body) % frame_size != 0:
        raise WavFormatError(f"{path}: data chunk size {len(data_body)} is not a multiple of the {frame_size}-byte frame size")

    values = np.frombuffer(data_body, dtype=dtype).astype(np.float64)
    if tag == _TAG_PCM:
        values /= 32768.0
    if channels > 1:
        values = values.reshape(-1, channels).mean(axis=1)
    try:
        return AudioBuffer(np.clip(values, -1.0, 1.0), int(rate))
    except DataError as exc:  # a zero rate or a NaN sample
        raise WavFormatError(f"{path}: {exc}") from exc


def _seed_write_wav(buffer, path, codec="float32"):
    if len(buffer) == 0:
        raise DataError("cannot write an empty buffer")
    clipped = np.clip(buffer.samples, -1.0, 1.0)
    if codec == "pcm16":
        ints = np.clip(np.rint(clipped * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
        tag, bits = _TAG_PCM, 16
    elif codec == "float32":
        payload = clipped.astype("<f4").tobytes()
        tag, bits = _TAG_IEEE_FLOAT, 32
    else:
        raise DataError(f"unknown codec {codec!r} (expected 'pcm16' or 'float32')")

    block_align = bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, tag, 1, buffer.sample_rate_hz, buffer.sample_rate_hz * block_align, block_align, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)


def _seed_reverse_segments(buffer, segment_ms):
    n = len(buffer)
    if n == 0:
        raise DataError("buffer is empty")
    seg = segment_samples(segment_ms, buffer.sample_rate_hz)
    x = buffer.samples
    out = np.empty(n, dtype=x.dtype)
    full = (n // seg) * seg
    out[:full] = x[:full].reshape(-1, seg)[:, ::-1].reshape(-1)
    out[full:] = x[full:][::-1]
    return AudioBuffer(out, buffer.sample_rate_hz)


def _same_samples(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _wav_bytes(payload: bytes, tag: int, channels: int, rate: int, chunks: bytes = b"") -> bytes:
    bits = 16 if tag == _TAG_PCM else 32
    fmt = struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"fmt " + fmt + chunks + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _odd_chunk(rng) -> bytes:
    size = 2 * int(rng.integers(0, 20)) + 1
    return b"junk" + struct.pack("<I", size) + rng.bytes(size) + b"\x00"


def _frames(rng, codec: str, frames: int, channels: int) -> np.ndarray:
    if codec == "pcm16":
        values = rng.integers(-32768, 32768, (frames, channels)).astype("<i2")
        values[0] = 0
        values[1] = -32768
        return values
    # magnitudes from 1e-12 to 10, so that the order of a sum shows in its last bit
    values = rng.normal(0.0, 0.6, (frames, channels)) * 10.0 ** rng.integers(-12, 2, (frames, channels))
    values[0] = -0.0  # every channel of one frame
    values[1:4] *= 40.0  # well outside [-1, 1]
    values[rng.random((frames, channels)) < 0.05] = -0.0
    values[4, 0] = np.inf
    values[5, channels - 1] = -np.inf
    return values.astype("<f4")


@pytest.mark.parametrize("codec", ["pcm16", "float32"])
@pytest.mark.parametrize("channels", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_read_matches_seed_sample_for_sample(tmp_path, codec, channels):
    rng = np.random.default_rng(channels * 2 + (codec == "pcm16"))
    tag = _TAG_PCM if codec == "pcm16" else _TAG_IEEE_FLOAT
    for trial in range(4):
        frames = _frames(rng, codec, int(rng.integers(6, 3000)), channels)
        chunks = _odd_chunk(rng) if trial % 2 else b""
        path = tmp_path / f"{trial}.wav"
        path.write_bytes(_wav_bytes(frames.tobytes(), tag, channels, 16000 if trial < 2 else 8000, chunks))
        got, want = read_wav(path), _seed_read_wav(path)
        assert got.sample_rate_hz == want.sample_rate_hz
        assert _same_samples(got.samples, want.samples)
        assert not got.samples.flags.writeable


def test_read_all_negative_zero_matches_seed(tmp_path):
    for channels in (1, 2, 3, 7, 8, 9, 16):
        path = tmp_path / f"z{channels}.wav"
        path.write_bytes(_wav_bytes(np.full(5 * channels, -0.0, dtype="<f4").tobytes(), _TAG_IEEE_FLOAT, channels, 8000))
        got, want = read_wav(path).samples, _seed_read_wav(path).samples
        assert _same_samples(got, want), channels


@pytest.mark.parametrize("channels", [2, 3, 9])
def test_opposite_infinities_in_a_frame_fail_as_in_seed(tmp_path, channels):
    values = np.zeros((3, channels), dtype="<f4")
    values[1, 0], values[1, 1] = np.inf, -np.inf  # their mean is NaN
    path = tmp_path / "nan.wav"
    path.write_bytes(_wav_bytes(values.tobytes(), _TAG_IEEE_FLOAT, channels, 8000))
    with np.errstate(invalid="ignore"), pytest.raises(WavFormatError) as seed_error:
        _seed_read_wav(path)
    with pytest.raises(WavFormatError) as error:  # and no RuntimeWarning first
        read_wav(path)
    assert str(error.value) == str(seed_error.value)


def _write_cases(rng):
    yield rng.uniform(-1.0, 1.0, 997)
    yield rng.normal(0.0, 3.0, 1001)  # out of range on both sides
    edges = (np.arange(-40, 40) + 0.5) / 32768.0  # pcm16 rounding ties
    yield np.concatenate([edges, -edges, [-0.0, 0.0, 1.0, -1.0, 1e-320, -1e-320, 1e300, -1e300]])
    yield np.array([-0.0])


@pytest.mark.parametrize("codec", ["pcm16", "float32"])
def test_write_matches_seed_byte_for_byte(tmp_path, codec):
    rng = np.random.default_rng(11)
    for i, samples in enumerate(_write_cases(rng)):
        for rate in (8000, 16000, 44100):
            buffer = AudioBuffer(samples, rate)
            write_wav(buffer, tmp_path / "new.wav", codec)
            _seed_write_wav(buffer, tmp_path / "seed.wav", codec)
            assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "seed.wav").read_bytes(), (i, rate)


@pytest.mark.parametrize("codec", ["pcm16", "float32"])
def test_read_then_write_matches_seed(tmp_path, codec):
    rng = np.random.default_rng(12)
    for channels in (1, 2, 3, 9):
        source = tmp_path / "src.wav"
        frames = _frames(rng, "float32", 800, channels)
        source.write_bytes(_wav_bytes(frames.tobytes(), _TAG_IEEE_FLOAT, channels, 16000, _odd_chunk(rng)))
        write_wav(read_wav(source), tmp_path / "new.wav", codec)
        _seed_write_wav(_seed_read_wav(source), tmp_path / "seed.wav", codec)
        assert (tmp_path / "new.wav").read_bytes() == (tmp_path / "seed.wav").read_bytes()


def test_reverse_segments_matches_seed():
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 160, 161, 1000, 4099):
        samples = rng.normal(0.0, 0.5, n)
        samples[rng.random(n) < 0.2] = -0.0
        buffer = AudioBuffer(samples, 1000)  # 1 sample per ms
        for segment_ms in (1, 2, 3, 20, n - 1 or 1, n, n + 1, 10 * n):
            got, want = reverse_segments(buffer, segment_ms), _seed_reverse_segments(buffer, segment_ms)
            assert _same_samples(got.samples, want.samples), (n, segment_ms)
            assert got.sample_rate_hz == want.sample_rate_hz
            assert not got.samples.flags.writeable


@pytest.mark.parametrize("codec", ["pcm16", "float32"])
def test_reverse_on_the_payload_matches_encoding_the_rendering(codec):
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 7, 160, 1001):
        samples = rng.normal(0.0, 0.8, n)
        samples[rng.random(n) < 0.2] = -0.0
        samples[rng.random(n) < 0.1] *= 40.0  # clipped by the encode
        buffer = AudioBuffer(samples, 1000)  # 1 sample per ms
        header, payload = _encode_wav(buffer, codec)
        assert payload.dtype == np.dtype("<i2" if codec == "pcm16" else "<f4")
        for seg in (1, 2, 3, 7, 20, n - 1 or 1, n, n + 1, 3 * n + 2):
            got = _reverse(payload, seg)
            assert got.dtype == payload.dtype
            # reverse_segments is _reverse too, so the seed body is the independent reference
            for rendering in (reverse_segments, _seed_reverse_segments):
                want_header, want = _encode_wav(rendering(buffer, seg), codec)
                assert want_header == header
                assert got.tobytes() == want.tobytes(), (n, seg, rendering.__name__)
        assert not np.shares_memory(got, payload)


def _build_sources(src_dir):
    """Sources at 8 and 16 kHz, of 1-3 channels, PCM-16 and float32 (with -0.0
    and out-of-range samples), from 1 sample to several segments long."""
    src_dir.mkdir()
    rng = np.random.default_rng(15)
    manifest = []
    for rate in (8000, 16000):
        for codec, tag in (("pcm16", _TAG_PCM), ("float32", _TAG_IEEE_FLOAT)):
            for frames, channels in ((1, 1), (1, 3), (30, 2), (401, 1), (2917, 3), (4000, 2)):
                if codec == "pcm16":
                    values = rng.integers(-32768, 32768, (frames, channels)).astype("<i2")
                else:
                    values = rng.normal(0.0, 0.6, (frames, channels))
                    values[rng.random((frames, channels)) < 0.1] *= 40.0
                    values[rng.random((frames, channels)) < 0.1] = -0.0
                    values[0] = -0.0
                    values = values.astype("<f4")
                utt_id = f"{codec}-{rate}-{frames}x{channels}"
                path = src_dir / f"{utt_id}.wav"
                path.write_bytes(_wav_bytes(values.tobytes(), tag, channels, rate))
                manifest.append(ManifestRecord(utt_id, str(path), f"text of {utt_id}", frames / rate))
    return manifest


def _seed_build(manifest, durations_ms, wav_dir, out_dir):
    """The records of ``build_set`` to ``out_dir``; the renderings go to
    ``wav_dir``, reversed and encoded by the seed bodies."""
    wav_dir.mkdir(exist_ok=True)
    records = []
    for record in manifest:
        records.append(record)
        source = _seed_read_wav(record.audio_path)
        for ms in durations_ms:
            derived_id = f"{record.utt_id}-ltr{ms:g}"
            _seed_write_wav(_seed_reverse_segments(source, ms), wav_dir / f"{derived_id}.wav")
            path = out_dir / f"{derived_id}.wav"
            records.append(ManifestRecord(derived_id, str(path), record.text, record.duration_s, AugmentTag("ltr", ms)))
    return records


@pytest.mark.parametrize("set_id", sorted(SET_DURATIONS_MS))
def test_build_set_matches_seed_build_byte_for_byte(tmp_path, set_id):
    manifest = _build_sources(tmp_path / "src")
    for parallelism in (1, 2):
        out_dir = tmp_path / f"p{parallelism}"
        want = _seed_build(manifest, SET_DURATIONS_MS[set_id], tmp_path / "seed", out_dir)
        save_manifest(want, tmp_path / "want.jsonl")
        save_manifest(build_set(manifest, set_id, out_dir, parallelism), tmp_path / "got.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == sorted(path.name for path in (tmp_path / "seed").iterdir())
        assert len(names) == 2 * len(manifest)
        for name in names:
            assert (out_dir / name).read_bytes() == (tmp_path / "seed" / name).read_bytes(), (parallelism, name)
