"""Uncompressed WAV reading and writing.

Supports the RIFF/WAVE subset this package needs: format tag 1 (integer PCM,
16-bit) and format tag 3 (IEEE float, 32-bit), mono or multichannel, in
little-endian byte order. Unknown chunks are skipped on read; writing always
produces a canonical 44-byte header (RIFF, "fmt " of 16 bytes, "data"), and
is atomic.

Samples are normalized floats. A PCM-16 value ``v`` decodes to ``v / 32768.0``
so the integer minimum lands exactly on -1.0. Multichannel audio is downmixed
to mono by arithmetic mean on read. Encoding hard-clips to [-1.0, 1.0]; values
are never wrapped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .errors import DataError, positive

__all__ = ["AudioBuffer", "WavFormatError", "read_wav", "write_wav"]

_TAG_PCM = 1
_TAG_IEEE_FLOAT = 3
_U32_MAX = 2**32 - 1


class WavFormatError(DataError):
    """Raised for files that are not WAV, or use an unsupported encoding."""


@dataclass(frozen=True)
class AudioBuffer:
    """A mono audio signal: normalized samples plus a whole-number sample
    rate in Hz (an integral float such as ``16000.0`` is stored as an int).

    Buffers are immutable values, safe to share between threads: the public
    constructor copies the samples it is given, and the fresh arrays the
    library makes itself (decoded, reversed or resampled audio) are adopted
    without a copy. Either way the array is marked read-only and every sample
    must be finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", np.array(self.samples, dtype=np.float64))
        self._check()

    @classmethod
    def _adopt(cls, samples: np.ndarray, sample_rate_hz: int) -> AudioBuffer:
        """A buffer that owns ``samples``, a fresh float64 array nothing else
        holds, without copying it; checked like a constructed one."""
        buffer = object.__new__(cls)
        object.__setattr__(buffer, "samples", samples)
        object.__setattr__(buffer, "sample_rate_hz", sample_rate_hz)
        buffer._check()
        return buffer

    def _check(self) -> None:
        samples = self.samples
        if samples.ndim != 1:
            raise DataError(f"samples must be one-dimensional, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise DataError(f"samples must be finite, {np.count_nonzero(~np.isfinite(samples))} of {len(samples)} are not")
        samples.setflags(write=False)
        rate = positive("sample_rate_hz", self.sample_rate_hz)
        if rate != int(rate):
            raise DataError(f"sample_rate_hz must be a whole number, got {rate}")
        object.__setattr__(self, "sample_rate_hz", int(rate))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def read_wav(path: str | Path) -> AudioBuffer:
    """Decode a PCM-16 or float-32 WAV file into a mono :class:`AudioBuffer`.

    Multichannel files are downmixed by averaging the channels of each frame.
    Decoded samples are clipped to [-1.0, 1.0] (a no-op for PCM input).

    Raises:
        WavFormatError: malformed RIFF structure, unsupported format tag or
            bit depth, a zero rate, an empty data chunk, or a NaN sample.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    view = memoryview(raw)
    fmt_body = None
    data_body = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
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
    # +inf and -inf in one frame mix to NaN, which _adopt reports; numpy's
    # warning about it would only repeat the error
    with np.errstate(invalid="ignore"):
        if channels >= 8:
            # numpy's reduction sums 8 or more values per row in its own
            # unrolled order, not column by column; the 8 is that unroll
            # width, kept here only for bit parity with mean(axis=1), which
            # tests/test_wav_bytes.py pins at 8, 9 and 16 channels
            values = values.reshape(-1, channels).mean(axis=1)
        elif channels > 1:
            # mean(axis=1) below 8 channels, bit for bit (signed zeros too):
            # the columns added in order to 0.0, then divided by the count
            frames = values.reshape(-1, channels)
            mixed = np.zeros(len(frames))
            for column in frames.T:
                mixed += column
            mixed /= channels
            values = mixed
    np.clip(values, -1.0, 1.0, out=values)
    try:
        return AudioBuffer._adopt(values, int(rate))
    except DataError as exc:  # a zero rate or a NaN sample
        raise WavFormatError(f"{path}: {exc}") from exc


def write_wav(buffer: AudioBuffer, path: str | Path, codec: str = "float32") -> None:
    """Write ``buffer`` as a mono WAV file with a canonical 44-byte header.

    ``codec`` is ``"pcm16"`` or ``"float32"``. Samples are hard-clipped to
    [-1.0, 1.0] before encoding; a float32 write followed by a read is the
    identity for in-range float32-representable samples, and a pcm16
    round-trip is accurate to within 1/32768 per sample. The write is atomic:
    ``path`` holds its old content or the whole new file, never part of one.

    Raises:
        DataError: an empty buffer, an unknown codec, or a rate or length
            that does not fit the header's 32-bit fields; nothing is written.
    """
    if len(buffer) == 0:
        raise DataError("cannot write an empty buffer")
    if codec == "pcm16":
        tag, bits = _TAG_PCM, 16
    elif codec == "float32":
        tag, bits = _TAG_IEEE_FLOAT, 32
    else:
        raise DataError(f"unknown codec {codec!r} (expected 'pcm16' or 'float32')")
    block_align = bits // 8
    rate = buffer.sample_rate_hz
    data_size = len(buffer) * block_align
    for name, value in (("sample rate", rate), ("byte rate", rate * block_align), ("RIFF chunk size", 36 + data_size)):
        if value > _U32_MAX:
            raise DataError(f"{name} {value} does not fit a WAV header (at most {_U32_MAX})")

    if codec == "pcm16":
        scaled = np.clip(buffer.samples, -1.0, 1.0)
        scaled *= 32768.0
        np.rint(scaled, out=scaled)
        encoded = np.empty(len(buffer), dtype="<i2")
        np.clip(scaled, -32768, 32767, out=encoded, casting="unsafe")
    else:
        encoded = np.empty(len(buffer), dtype="<f4")
        np.clip(buffer.samples, -1.0, 1.0, out=encoded, casting="same_kind")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data_size, b"WAVE", b"fmt ", 16, tag, 1, rate, rate * block_align, block_align, bits, b"data", data_size,
    )
    write_atomic(path, header, encoded)
