"""Log-mel filterbank features and spectrogram-level analysis metrics.

The front end is a conventional one: 25 ms Hamming-windowed frames every
10 ms, per-frame pre-emphasis of 0.97, magnitude spectrum at the next
power-of-two FFT size, and a triangular mel filterbank spanning 0 Hz to
Nyquist on the ``2595 * log10(1 + f/700)`` scale. Filterbank energies are
floored at 1e-10 before the natural log, so silence maps to ``log(1e-10)``
everywhere. Mean-variance normalization is per utterance and per coefficient.
The spectra are computed in blocks of a fixed number of frames, each
pre-emphasizing only the samples its frames cover, so no temporary grows with
the utterance beyond the spectrum itself.

Two analysis helpers quantify what local time reversal does to a signal:
:func:`boundary_discontinuity` measures the average sample jump at segment
boundaries, and :func:`spectral_distance` the RMS difference between two
equally-shaped feature matrices; :func:`distortion_curve` sweeps either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .audio_io import AudioBuffer
from .errors import DataError, FrozenArray, at_least
from .ltr import DEFAULT_DURATIONS_MS, reverse_segments, segment_samples
from .matrix_io import FEATURES_MAGIC, MatrixFormatError, read_matrix, write_matrix

__all__ = [
    "DISTORTION_METRICS",
    "FeatureMatrix",
    "fbank",
    "mvn",
    "boundary_discontinuity",
    "distortion_csv",
    "distortion_curve",
    "spectral_distance",
    "save_features",
    "load_features",
]

_PREEMPHASIS = 0.97
_ENERGY_FLOOR = 1e-10
# Frames per FFT block: one zero-padded input of this many rows is reused for
# the whole utterance, and each block's complex spectrum is this many rows.
_BLOCK_FRAMES = 256
# Cells of one mel filterbank, dims x FFT bins: 2^22 float64 cells are 32 MiB,
# and building the table holds about three arrays of that size at once.
_MAX_FILTERBANK_CELLS = 1 << 22
# Cells of the spectrum (frames x FFT bins) and of the output (frames x dims):
# 2^28 float64 cells are 2 GiB; an hour at a 10 ms shift and 257 bins needs
# about 92.5M.
_MAX_FRAME_CELLS = 1 << 28

DISTORTION_METRICS = ("boundary", "spectral-distance")


@dataclass(frozen=True)
class FeatureMatrix(FrozenArray):
    """A frames-by-coefficients real matrix: at least one frame and one dim,
    every value finite. An immutable :class:`~ltrkit.errors.FrozenArray`: the
    library adopts the features, normalized, masked or loaded matrices it makes.
    """

    values: np.ndarray

    def _check(self) -> None:
        self._check_values(self.values)

    @staticmethod
    def _check_values(values: np.ndarray) -> None:
        """The rule of the values, on any array (the float32 payload of an FBK1 file too)."""
        if values.ndim != 2 or 0 in values.shape:
            raise DataError(f"feature values must be 2-D with at least one frame and one dim, got shape {values.shape}")
        FrozenArray._finite("feature values", values)

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def _mel_filterbank(dims: int, fft_size: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular filters, rows ``dims`` x FFT bins, spanning 0 Hz to Nyquist."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate_hz / 2.0), dims + 2))
    bins_hz = np.arange(fft_size // 2 + 1) * sample_rate_hz / fft_size
    left = edges_hz[:-2, None]
    center = edges_hz[1:-1, None]
    right = edges_hz[2:, None]
    rising = (bins_hz - left) / (center - left)
    falling = (right - bins_hz) / (right - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


@functools.lru_cache(maxsize=16)
def _tables(dims: int, window: int, fft_size: int, sample_rate_hz: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hamming window and the mel filterbank of one configuration,
    read-only because every call with it shares them."""
    hamming = np.hamming(window)
    mel = _mel_filterbank(dims, fft_size, sample_rate_hz)
    hamming.setflags(write=False)
    mel.setflags(write=False)
    return hamming, mel


def _magnitude_spectrum(
    x: np.ndarray, window: int, hop: int, n_frames: int, fft_size: int, hamming: np.ndarray
) -> np.ndarray:
    """``abs(rfft(emphasized_frames * hamming, fft_size))``, one block of
    frames at a time."""
    # Pre-emphasis within a frame is the whole signal's pre-emphasis: frame
    # f's samples 1..window-1 are emphasized[f*hop : f*hop + window - 1], and
    # only its first sample, which has no predecessor in the frame, is scaled
    # on its own. Each block emphasizes only the samples its frames cover.
    rows = min(n_frames, _BLOCK_FRAMES)
    emphasized = np.empty((rows - 1) * hop + window - 1)
    tails = np.lib.stride_tricks.sliding_window_view(emphasized, window - 1)[::hop]
    spectrum = np.empty((n_frames, fft_size // 2 + 1))
    padded = np.zeros((rows, fft_size))
    for start in range(0, n_frames, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_frames)
        block = padded[: stop - start]
        lo, hi = start * hop, (stop - 1) * hop + window
        span = emphasized[: hi - lo - 1]
        np.multiply(x[lo : hi - 1], _PREEMPHASIS, out=span)
        np.subtract(x[lo + 1 : hi], span, out=span)
        np.multiply(x[lo:hi:hop][: stop - start] * (1.0 - _PREEMPHASIS), hamming[0], out=block[:, 0])
        np.multiply(tails[: stop - start], hamming[1:], out=block[:, 1:window])
        np.abs(np.fft.rfft(block), out=spectrum[start:stop])
    return spectrum


def fbank(
    buffer: AudioBuffer,
    dims: int = 80,
    frame_length_ms: float = 25.0,
    frame_shift_ms: float = 10.0,
) -> FeatureMatrix:
    """Log-mel filterbank features, one row per frame. No normalization.
    Window and hop are rounded to samples by :func:`~ltrkit.ltr.segment_samples`.

    The frames go through the FFT in blocks of a fixed size, reusing one
    zero-padded block and writing magnitudes straight into the spectrum; the
    result equals the all-frames-at-once formula (pre-emphasize each frame,
    window it, ``abs(rfft(..., fft_size)) @ mel.T``) bit for bit.

    Raises:
        DataError: if ``dims`` is not an integer >= 1, if ``frame_length_ms``
            or ``frame_shift_ms`` is not positive, if the filterbank of
            ``dims`` x FFT bins would have more than ``_MAX_FILTERBANK_CELLS``
            (2^22, 32 MiB) cells, if the spectrum (frames x FFT bins) or the
            output (frames x ``dims``) would have more than
            ``_MAX_FRAME_CELLS`` (2^28, 2 GiB) cells, if the buffer is shorter
            than one analysis window, or if samples so large that the spectrum
            overflows make a feature that is not finite.
    """
    dims = at_least("dims", dims, 1)
    window = segment_samples(frame_length_ms, buffer.sample_rate_hz)
    hop = segment_samples(frame_shift_ms, buffer.sample_rate_hz)
    n = len(buffer)
    if n < window:
        raise DataError(f"buffer of {n} samples is shorter than one {frame_length_ms:g} ms window")

    n_frames = 1 + (n - window) // hop
    fft_size = 1 << (window - 1).bit_length()
    bins = fft_size // 2 + 1
    if dims * bins > _MAX_FILTERBANK_CELLS:
        raise DataError(f"{dims} dims over {bins} FFT bins need more than {_MAX_FILTERBANK_CELLS} filterbank cells")
    if n_frames * max(bins, dims) > _MAX_FRAME_CELLS:
        raise DataError(
            f"{n_frames} frames of {bins} FFT bins and {dims} dims need more than {_MAX_FRAME_CELLS} cells"
        )
    hamming, mel = _tables(dims, window, fft_size, buffer.sample_rate_hz)

    spectrum = _magnitude_spectrum(buffer.samples, window, hop, n_frames, fft_size, hamming)
    # one product over all frames, with the filterbank as its transposed
    # view: a blocked product or a contiguous copy can change the last bits
    energies = spectrum @ mel.T
    np.maximum(energies, _ENERGY_FLOOR, out=energies)
    return FeatureMatrix._adopt(np.log(energies, out=energies))


def mvn(features: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-coefficient mean-variance normalization.

    Columns with (near-)zero spread are zeroed rather than blown up: the
    divisor is ``max(stddev, 1e-8)``. A single-frame matrix therefore
    normalizes to all zeros. Idempotent up to rounding.
    """
    v = features.values
    centered = v - v.mean(axis=0)
    # the steps numpy's v.std(axis=0) takes, on the centered matrix already here
    spread = np.sqrt((centered * centered).sum(axis=0) / len(v))
    centered /= np.maximum(spread, 1e-8)
    return FeatureMatrix._adopt(centered)


def boundary_discontinuity(buffer: AudioBuffer, segment_ms: float) -> float:
    """Mean absolute sample jump across interior segment boundaries.

    For segment length L, this is the average of ``|s[kL] - s[kL-1]|`` over
    every boundary k >= 1: a scalar proxy for the noise that segment-wise
    reversal introduces at the seams.

    Raises:
        DataError: if the buffer does not span at least two segments.
    """
    seg = segment_samples(segment_ms, buffer.sample_rate_hz)
    n = len(buffer)
    if n <= seg:
        raise DataError(f"buffer of {n} samples has fewer than two {segment_ms:g} ms segments")
    x = buffer.samples
    starts = np.arange(seg, n, seg)
    return float(np.mean(np.abs(x[starts] - x[starts - 1])))


def spectral_distance(a: FeatureMatrix, b: FeatureMatrix) -> float:
    """Root-mean-square difference over all cells of two equal-shape matrices."""
    if a.values.shape != b.values.shape:
        raise DataError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")
    diff = a.values - b.values
    return float(np.sqrt(np.mean(diff * diff)))


def distortion_curve(
    buffer: AudioBuffer, metric: str, durations_ms: Iterable[float] = DEFAULT_DURATIONS_MS
) -> list[tuple[float, float]]:
    """``(segment_ms, value)`` per duration, in the given order: the
    ``"boundary"`` discontinuity of each LTR rendering of ``buffer``, or the
    ``"spectral-distance"`` between the default :func:`fbank` features of
    ``buffer`` and of each rendering. Renderings are made one at a time.
    """
    if metric not in DISTORTION_METRICS:
        raise DataError(f"metric must be one of {DISTORTION_METRICS}, got {metric!r}")
    reference = fbank(buffer) if metric == "spectral-distance" else None
    curve = []
    for duration_ms in durations_ms:
        rendered = reverse_segments(buffer, duration_ms)
        value = boundary_discontinuity(rendered, duration_ms) if reference is None else spectral_distance(reference, fbank(rendered))
        curve.append((duration_ms, value))
    return curve


def distortion_csv(buffer: AudioBuffer, metric: str, durations_ms: Iterable[float] = DEFAULT_DURATIONS_MS) -> str:
    """:func:`distortion_curve` as CSV text: a ``segment_ms,value`` header,
    then a ``%g,%.9g`` row per duration."""
    rows = distortion_curve(buffer, metric, durations_ms)
    return "segment_ms,value\n" + "".join(f"{duration_ms:g},{value:.9g}\n" for duration_ms, value in rows)


def save_features(features: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix as an FBK1 container (float32 on disk)."""
    write_matrix(features.values, path, FEATURES_MAGIC)


def load_features(path: str | Path) -> FeatureMatrix:
    """Read an FBK1 container.

    Raises:
        MatrixFormatError: a wrong magic or size, or a value that is not
            finite.
    """
    return FeatureMatrix._adopt(read_matrix(path, FEATURES_MAGIC), path=path, error=MatrixFormatError)
