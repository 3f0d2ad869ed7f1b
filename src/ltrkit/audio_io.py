"""Uncompressed WAV reading and writing.

Supports the RIFF/WAVE subset this package needs: format tag 1 (integer PCM,
16-bit) and format tag 3 (IEEE float, 32-bit), mono or multichannel, in
little-endian byte order. A read parses the chunk headers once, seeking past
unknown chunks, then reads the data chunk's frames in spans: all of them for
:func:`read_wav`, one FFT block's for ``featurize``. A pipe is read whole
first. Writing always produces a canonical 44-byte header (RIFF, "fmt " of 16
bytes, "data"), and is atomic.

Samples are normalized floats. A PCM-16 value ``v`` decodes to ``v / 32768.0``
so the integer minimum lands exactly on -1.0. Multichannel audio is downmixed
to mono by arithmetic mean on read. Encoding hard-clips to [-1.0, 1.0]; values
are never wrapped.
"""

from __future__ import annotations

import contextlib
import io
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_atomic
from .errors import DataError, FrozenArray, positive

__all__ = ["AudioBuffer", "WavFormatError", "read_wav", "write_wav"]

_TAG_PCM = 1
_TAG_IEEE_FLOAT = 3
_U32_MAX = 2**32 - 1


class WavFormatError(DataError):
    """Raised for files that are not WAV, or use an unsupported encoding."""


@dataclass(frozen=True)
class AudioBuffer(FrozenArray):
    """A mono audio signal: normalized samples plus a whole-number sample
    rate in Hz (an integral float such as ``16000.0`` is stored as an int).

    An immutable :class:`~ltrkit.errors.FrozenArray`: the library adopts the
    audio it decodes, reverses or resamples, and every sample must be finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def _check(self) -> None:
        if self.samples.ndim != 1:
            raise DataError(f"samples must be one-dimensional, got shape {self.samples.shape}")
        self._finite("samples", self.samples)
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
    with _open_wav(path) as wav:
        return wav.buffer()


@contextlib.contextmanager
def _open_wav(path: str | Path):
    """The :class:`_Wav` of ``path``, open for a ``with`` block; a pipe is read whole first."""
    with open(path, "rb") as handle:
        yield _Wav(path, handle if handle.seekable() else io.BytesIO(handle.read()))


class _Wav:
    """A WAV file's layout from one RIFF parse, which reads the chunk headers
    and seeks past their bodies: format tag, channel count, rate and the data
    chunk's frame count. Any span of the frames is then read on demand into one
    reused buffer (:meth:`frames`), or decoded to :func:`read_wav`'s samples
    (:meth:`mono`), and checked for its NaN error (:meth:`check`). Every reader
    of WAV samples decodes them here."""

    def __init__(self, path: str | Path, handle) -> None:
        self.path, self._handle = path, handle
        size = handle.seek(0, io.SEEK_END)
        handle.seek(0)
        head = handle.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt_body, data, pos = None, None, 12
        while pos + 8 <= size:
            handle.seek(pos)
            chunk_id, chunk_size = struct.unpack("<4sI", handle.read(8))
            if pos + 8 + chunk_size > size:
                raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
            if chunk_id == b"fmt ":
                fmt_body = handle.read(min(chunk_size, 16))  # the fields read below
            elif chunk_id == b"data":
                data = pos + 8, chunk_size
            # chunks are word-aligned: odd sizes carry one pad byte
            pos += 8 + chunk_size + (chunk_size & 1)

        if fmt_body is None or len(fmt_body) < 16:
            raise WavFormatError(f"{path}: missing or short 'fmt ' chunk")
        if data is None:
            raise WavFormatError(f"{path}: missing 'data' chunk")

        tag, channels, rate, _byte_rate, _block_align, bits = struct.unpack_from("<HHIIHH", fmt_body, 0)
        if channels < 1:
            raise WavFormatError(f"{path}: channel count {channels} is invalid")
        dtype = {(_TAG_PCM, 16): np.dtype("<i2"), (_TAG_IEEE_FLOAT, 32): np.dtype("<f4")}.get((tag, bits))
        if dtype is None:
            raise WavFormatError(f"{path}: unsupported codec (format tag {tag}, {bits}-bit)")

        self._offset, data_size = data
        if data_size == 0:
            raise WavFormatError(f"{path}: zero-length data chunk")
        self._frame_size = channels * dtype.itemsize
        if data_size % self._frame_size != 0:
            raise WavFormatError(f"{path}: data chunk size {data_size} is not a multiple of the {self._frame_size}-byte frame size")
        self.tag, self.channels, self.rate, self.length = tag, channels, rate, data_size // self._frame_size
        self._buffer = np.empty(0, dtype)
        self._checked = 0  # the frames before this one were checked for NaN

    def frames(self, lo: int, hi: int) -> np.ndarray:
        """Frames ``lo`` to ``hi`` as a flat ``<i2`` or ``<f4`` array of the
        interleaved channels, valid until the next call."""
        if len(self._buffer) < (hi - lo) * self.channels:
            self._buffer = np.empty((hi - lo) * self.channels, self._buffer.dtype)
        samples = self._buffer[: (hi - lo) * self.channels]
        self._handle.seek(self._offset + lo * self._frame_size)
        if self._handle.readinto(samples.view(np.uint8)) < samples.nbytes:  # the file shrank since the parse
            raise WavFormatError(f"{self.path}: truncated b'data' chunk")
        return samples

    def buffer(self) -> AudioBuffer:
        """:func:`read_wav`'s buffer: every frame decoded, with its errors."""
        return AudioBuffer._adopt(self.mono(None, 0, self.length), self.rate, path=self.path, error=WavFormatError)

    def mono(self, out: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
        """:func:`read_wav`'s samples ``lo`` to ``hi``, unchecked, in the first
        cells of ``out`` or in a new float64 array, computed in ``out``'s dtype.
        Each depends only on its own frame, so any span decodes to the values
        of the whole, bit for bit.

        ``out`` may be float32 for mono audio and stereo PCM-16 only, whose
        float32 decode is exact. A PCM-16 value times 2^-15, and the sum of a
        stereo frame's two values times 2^-16, are float32 numbers (the sum is
        below 2^17 in magnitude, far inside the 24-bit significand, and the
        scale is a power of two), so they are what the float64 decode rounds
        to. Clipping a float32 sample to [-1, 1] gives the same value, sign of
        zero included, before or after widening it, and ±inf still becomes ±1.
        PCM-16 is not clipped: a mean of its values lies in [-1, 1) already."""
        samples, channels, pcm = self.frames(lo, hi), self.channels, self.tag == _TAG_PCM
        values = np.empty(hi - lo) if out is None else out[: hi - lo]
        if pcm and channels <= 2:
            if channels == 1:
                return np.multiply(samples, 2.0**-15, out=values, dtype=values.dtype)
            np.add(samples[0::2], samples[1::2], out=values, dtype=values.dtype)
            values *= 2.0**-16
            return values
        # a NaN sample, or +inf and -inf mixed in one frame, is a NaN that
        # _adopt reports; numpy's warning about it would only repeat the error
        with np.errstate(invalid="ignore"):
            if channels == 1:
                return np.clip(samples, -1.0, 1.0, out=values)
            if channels < 8:
                # mean(axis=1) below 8 channels, bit for bit (signed zeros too): the frame
                # view's columns added in order to 0.0, then divided by the count; PCM-16
                # sums are exact, so scaling by 2^-15 after that changes no bit
                values.fill(0.0)
                for column in samples.reshape(-1, channels).T:
                    values += column
                values /= channels
                wide = values
            else:
                wide = samples.astype(np.float64)
            if pcm:
                wide /= 32768.0
            if channels >= 8:
                # numpy's reduction sums 8 or more values per row in its own
                # unrolled order, not column by column; the 8 is that unroll
                # width, kept here only for bit parity with mean(axis=1), which
                # tests/test_wav_bytes.py pins at 8, 9 and 16 channels
                np.mean(wide.reshape(-1, channels), axis=1, out=values)
            return values if pcm else np.clip(values, -1.0, 1.0, out=values)

    def check(self, out: np.ndarray | None, lo: int, hi: int) -> np.ndarray:
        """:meth:`mono`'s samples ``lo`` to ``hi``, with :func:`read_wav`'s
        error, which counts the NaNs of the whole file, if they hold a NaN or
        if the frames skipped since the last span checked do. Only float
        input can decode to NaN, so PCM-16 is not tested."""
        float_input = self.tag == _TAG_IEEE_FLOAT
        if float_input and self._checked < lo:
            self.check(None, self._checked, lo)
        samples = self.mono(out, lo, hi)
        if float_input and hi > lo and np.isnan(samples.min()):
            self.buffer()  # raises read_wav's error, which counts them all
        self._checked = max(self._checked, hi)
        return samples


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
    write_atomic(path, *_encode_wav(buffer, codec))


def _encode_wav(buffer: AudioBuffer, codec: str) -> tuple[bytes, np.ndarray]:
    """The header and the ``<i2`` or ``<f4`` payload of :func:`write_wav`."""
    header, payload = _wav_payload(len(buffer), buffer.sample_rate_hz, codec)
    if codec == "pcm16":
        scaled = np.clip(buffer.samples, -1.0, 1.0)
        scaled *= 32768.0
        np.rint(scaled, out=scaled)
        np.clip(scaled, -32768, 32767, out=payload, casting="unsafe")
    else:
        np.clip(buffer.samples, -1.0, 1.0, out=payload, casting="same_kind")
    return header, payload


def _wav_payload(length: int, rate: int, codec: str) -> tuple[bytes, np.ndarray]:
    """The canonical 44-byte header of a ``length``-sample mono WAV and its unfilled payload."""
    if length == 0:
        raise DataError("cannot write an empty buffer")
    if codec == "pcm16":
        tag, bits = _TAG_PCM, 16
    elif codec == "float32":
        tag, bits = _TAG_IEEE_FLOAT, 32
    else:
        raise DataError(f"unknown codec {codec!r} (expected 'pcm16' or 'float32')")
    block_align = bits // 8
    data_size = length * block_align
    for name, value in (("sample rate", rate), ("byte rate", rate * block_align), ("RIFF chunk size", 36 + data_size)):
        if value > _U32_MAX:
            raise DataError(f"{name} {value} does not fit a WAV header (at most {_U32_MAX})")
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + data_size, b"WAVE", b"fmt ", 16, tag, 1, rate, rate * block_align, block_align, bits, b"data", data_size,
    )
    return header, np.empty(length, dtype="<i2" if codec == "pcm16" else "<f4")


def _decode(path: str | Path) -> tuple[int, np.ndarray]:
    """The rate and mono samples of a WAV file, decoded once for the builders:
    widened to float64, the samples equal :func:`read_wav`'s bit for bit, so
    all lie in [-1, 1], and the errors are :func:`read_wav`'s. Mono audio and
    stereo PCM-16 decode to ``<f4`` in one numpy pass, or two for stereo
    (:meth:`_Wav.mono` says why that is exact). Any other layout, and a file
    with a zero rate, takes :func:`read_wav`'s decode and gives its float64 array.
    """
    with _open_wav(path) as wav:
        if wav.rate and (wav.channels == 1 or (wav.tag, wav.channels) == (_TAG_PCM, 2)):
            return wav.rate, wav.check(np.empty(wav.length, "<f4"), 0, wav.length)
        return wav.rate, wav.buffer().samples
