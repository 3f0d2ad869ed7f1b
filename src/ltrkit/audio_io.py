"""Uncompressed WAV reading and writing.

Supports the RIFF/WAVE subset this package needs: format tag 1 (integer PCM,
16-bit) and format tag 3 (IEEE float, 32-bit), mono or multichannel, in
little-endian byte order. Unknown chunks are skipped on read; writing always
produces a canonical 44-byte header (RIFF, "fmt " of 16 bytes, "data").

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

from .errors import DataError, positive

__all__ = ["AudioBuffer", "WavFormatError", "read_wav", "write_wav"]

_TAG_PCM = 1
_TAG_IEEE_FLOAT = 3


class WavFormatError(DataError):
    """Raised for files that are not WAV, or use an unsupported encoding."""


@dataclass(frozen=True)
class AudioBuffer:
    """A mono audio signal: normalized samples plus a sample rate.

    Buffers are immutable values: the sample array is copied on construction
    and marked read-only, so they are safe to share between threads. Every
    sample must be finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError(f"samples must be one-dimensional, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise DataError(f"samples must be finite, {np.count_nonzero(~np.isfinite(samples))} of {len(samples)} are not")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        positive("sample_rate_hz", self.sample_rate_hz)

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


def write_wav(buffer: AudioBuffer, path: str | Path, codec: str = "float32") -> None:
    """Write ``buffer`` as a mono WAV file with a canonical 44-byte header.

    ``codec`` is ``"pcm16"`` or ``"float32"``. Samples are hard-clipped to
    [-1.0, 1.0] before encoding; a float32 write followed by a read is the
    identity for in-range float32-representable samples, and a pcm16
    round-trip is accurate to within 1/32768 per sample.
    """
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
