"""Log-mel filterbank features and spectrogram-level analysis metrics.

The front end is a conventional one: 25 ms Hamming-windowed frames every
10 ms, per-frame pre-emphasis of 0.97, magnitude spectrum at the next
power-of-two FFT size, and a triangular mel filterbank spanning 0 Hz to
Nyquist on the ``2595 * log10(1 + f/700)`` scale. Filterbank energies are
floored at 1e-10 before the natural log, so silence maps to ``log(1e-10)``
everywhere. Mean-variance normalization is per utterance and per coefficient.

Two analysis helpers quantify what local time reversal does to a signal:
:func:`boundary_discontinuity` measures the average sample jump at segment
boundaries, and :func:`spectral_distance` the RMS difference between two
equally-shaped feature matrices; :func:`distortion_curve` sweeps either.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .audio_io import AudioBuffer
from .ltr import DEFAULT_DURATIONS_MS, LtrConfig, reverse_segments, segment_samples
from .matrix_io import FEATURES_MAGIC, read_matrix, write_matrix

__all__ = [
    "DISTORTION_METRICS",
    "FeatureMatrix",
    "fbank",
    "mvn",
    "boundary_discontinuity",
    "distortion_curve",
    "spectral_distance",
    "save_features",
    "load_features",
]

_PREEMPHASIS = 0.97
_ENERGY_FLOOR = 1e-10

DISTORTION_METRICS = ("boundary", "spectral-distance")


@dataclass(frozen=True)
class FeatureMatrix:
    """A frames-by-coefficients real matrix.

    Immutable like :class:`~ltrkit.audio_io.AudioBuffer`: values are copied
    and marked read-only on construction.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"feature values must be 2-D, got shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

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


def fbank(
    buffer: AudioBuffer,
    dims: int = 80,
    frame_length_ms: float = 25.0,
    frame_shift_ms: float = 10.0,
) -> FeatureMatrix:
    """Log-mel filterbank features, one row per frame. No normalization.
    Window and hop are rounded to samples by :func:`~ltrkit.ltr.segment_samples`.

    Raises:
        ValueError: if ``dims``, ``frame_length_ms`` or ``frame_shift_ms`` is
            not positive, or if the buffer is shorter than one analysis window.
    """
    if dims < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    window = segment_samples(frame_length_ms, buffer.sample_rate_hz)
    hop = segment_samples(frame_shift_ms, buffer.sample_rate_hz)
    n = len(buffer)
    if n < window:
        raise ValueError(f"buffer of {n} samples is shorter than one {window}-sample window")

    n_frames = 1 + (n - window) // hop
    frames = np.lib.stride_tricks.sliding_window_view(buffer.samples, window)[::hop][:n_frames]

    emphasized = np.empty((n_frames, window), dtype=np.float64)
    emphasized[:, 1:] = frames[:, 1:] - _PREEMPHASIS * frames[:, :-1]
    emphasized[:, 0] = frames[:, 0] * (1.0 - _PREEMPHASIS)

    fft_size = 1 << (window - 1).bit_length()
    spectrum = np.abs(np.fft.rfft(emphasized * np.hamming(window), fft_size))
    energies = spectrum @ _mel_filterbank(dims, fft_size, buffer.sample_rate_hz).T
    return FeatureMatrix(np.log(np.maximum(energies, _ENERGY_FLOOR)))


def mvn(features: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-coefficient mean-variance normalization.

    Columns with (near-)zero spread are zeroed rather than blown up: the
    divisor is ``max(stddev, 1e-8)``. A single-frame matrix therefore
    normalizes to all zeros. Idempotent up to rounding.
    """
    v = features.values
    centered = v - v.mean(axis=0)
    scale = np.maximum(v.std(axis=0), 1e-8)
    return FeatureMatrix(centered / scale)


def boundary_discontinuity(buffer: AudioBuffer, config: LtrConfig) -> float:
    """Mean absolute sample jump across interior segment boundaries.

    For segment length L, this is the average of ``|s[kL] - s[kL-1]|`` over
    every boundary k >= 1: a scalar proxy for the noise that segment-wise
    reversal introduces at the seams.

    Raises:
        ValueError: if the buffer does not span at least two segments.
    """
    seg = config.segment_samples(buffer.sample_rate_hz)
    n = len(buffer)
    if n <= seg:
        raise ValueError(f"buffer of {n} samples has fewer than two {seg}-sample segments")
    x = buffer.samples
    starts = np.arange(seg, n, seg)
    return float(np.mean(np.abs(x[starts] - x[starts - 1])))


def spectral_distance(a: FeatureMatrix, b: FeatureMatrix) -> float:
    """Root-mean-square difference over all cells of two equal-shape matrices."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")
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
        raise ValueError(f"metric must be one of {DISTORTION_METRICS}, got {metric!r}")
    reference = fbank(buffer) if metric == "spectral-distance" else None
    curve = []
    for duration_ms in durations_ms:
        config = LtrConfig(duration_ms)
        rendered = reverse_segments(buffer, config)
        value = boundary_discontinuity(rendered, config) if reference is None else spectral_distance(reference, fbank(rendered))
        curve.append((duration_ms, value))
    return curve


def save_features(features: FeatureMatrix, path: str | Path) -> None:
    """Write a feature matrix as an FBK1 container (float32 on disk)."""
    write_matrix(features.values, path, FEATURES_MAGIC)


def load_features(path: str | Path) -> FeatureMatrix:
    """Read an FBK1 container."""
    return FeatureMatrix(read_matrix(path, FEATURES_MAGIC))
