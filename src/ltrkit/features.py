"""Log-mel filterbank features and spectrogram-level analysis metrics.

The front end is a conventional one: 25 ms Hamming-windowed frames every
10 ms, per-frame pre-emphasis of 0.97, magnitude spectrum at the next
power-of-two FFT size, and a triangular mel filterbank spanning 0 Hz to
Nyquist on the ``2595 * log10(1 + f/700)`` scale. Filterbank energies are
floored at 1e-10 before the natural log, so silence maps to ``log(1e-10)``
everywhere. Mean-variance normalization is per utterance and per coefficient.
The spectra are computed in blocks of a fixed number of frames, each
pre-emphasizing only the samples its frames cover, and the mel product runs
once per group of one or two blocks, so no temporary grows with the utterance:
only the output does (at 2-4 dims, the spectrum too; see :func:`fbank`). The
CLI's ``featurize`` decodes each block's samples from the WAV file as it reads
them and normalizes in place, so it holds the output, not the input.

Two analysis helpers quantify what local time reversal does to a signal:
:func:`boundary_discontinuity` measures the average sample jump at segment
boundaries, and :func:`spectral_distance` the RMS difference between two
equally-shaped feature matrices; :func:`distortion_curve` sweeps either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .audio_io import AudioBuffer, _open_wav
from .errors import DataError, FrozenArray, at_least
from .ltr import DEFAULT_DURATIONS_MS, _reverse, segment_samples
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
# Frames per FFT block and per mel product group: one zero-padded input and
# one complex spectrum of this many rows are reused for the whole utterance.
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


def _mel_energies(
    source: Callable[[np.ndarray, int, int], np.ndarray],
    window: int, hop: int, n_frames: int, fft_size: int, hamming: np.ndarray, mel: np.ndarray,
) -> np.ndarray:
    """``abs(rfft(emphasized_frames * hamming, fft_size)) @ mel.T`` over the
    samples that ``source(out, lo, hi)`` gives, span by span, one block of
    frames at a time: samples ``lo`` to ``hi``, which it may put in ``out``."""
    # Pre-emphasis within a frame is the whole signal's pre-emphasis: frame
    # f's samples 1..window-1 are emphasized[f*hop : f*hop + window - 1], and
    # only its first sample, which has no predecessor in the frame, is scaled
    # on its own. Each block emphasizes only the samples its frames cover,
    # and its source renders or decodes only those.
    energies = np.empty((n_frames, len(mel)))
    rows = min(n_frames, _BLOCK_FRAMES)
    span = (rows - 1) * hop + window
    emphasized = np.empty(span - 1)
    tails = np.lib.stride_tricks.sliding_window_view(emphasized, window - 1)[::hop]
    rendered = np.empty(span)
    padded = np.zeros((rows, fft_size))
    transformed = np.empty((rows, fft_size // 2 + 1), dtype=complex)
    # The mel product runs once per group of frames, with the filterbank as
    # its transposed view (a contiguous copy can change the last bits): each
    # group is one block, the last takes the rest, so fewer than two blocks
    # of frames are one product, and no group is padded. At 1 dim and at 5
    # or more such products give the single product's bits; at 2-4 dims
    # OpenBLAS's product over 512 frames or more does not (pinned by
    # test_fbank_mel_product_in_groups_matches_seed_at_every_dims), so those
    # dims keep one product over the whole spectrum.
    whole = 2 <= len(mel) <= 4
    spectrum = np.empty((n_frames if whole else min(n_frames, 2 * _BLOCK_FRAMES - 1), fft_size // 2 + 1))
    first = 0  # the group's first frame
    for start in range(0, n_frames, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_frames)
        block = padded[: stop - start]
        lo, hi = start * hop, (stop - 1) * hop + window
        samples = source(rendered, lo, hi)
        head = emphasized[: hi - lo - 1]
        np.multiply(samples[:-1], _PREEMPHASIS, out=head)
        np.subtract(samples[1:], head, out=head)
        np.multiply(samples[::hop][: stop - start] * (1.0 - _PREEMPHASIS), hamming[0], out=block[:, 0])
        np.multiply(tails[: stop - start], hamming[1:], out=block[:, 1:window])
        np.abs(np.fft.rfft(block, out=transformed[: stop - start]), out=spectrum[start - first : stop - first])
        if stop == n_frames or (not whole and n_frames - stop >= _BLOCK_FRAMES):
            np.matmul(spectrum[: stop - first], mel.T, out=energies[first:stop])
            first = stop
    return energies


def fbank(
    buffer: AudioBuffer,
    dims: int = 80,
    frame_length_ms: float = 25.0,
    frame_shift_ms: float = 10.0,
) -> FeatureMatrix:
    """Log-mel filterbank features, one row per frame. No normalization.
    Window and hop are rounded to samples by :func:`~ltrkit.ltr.segment_samples`.

    The frames go through the FFT in blocks of 256, reusing one zero-padded
    block and one complex block. The mel product runs once per group of 256
    frames, the last group taking the remaining 256-511, so at most 511 rows
    of spectrum are alive; at 2-4 dims one product covers all frames, because
    there OpenBLAS's product over more rows changes the last bits. The result
    equals the all-frames-at-once formula (pre-emphasize each frame, window
    it, ``abs(rfft(..., fft_size)) @ mel.T``) bit for bit.

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
    x = buffer.samples
    values = _log_mel(lambda out, lo, hi: x[lo:hi], len(x), buffer.sample_rate_hz, dims, frame_length_ms, frame_shift_ms)
    return FeatureMatrix._adopt(values)


def _log_mel(
    source: Callable[[np.ndarray, int, int], np.ndarray], n: int, sample_rate_hz: int,
    dims: int = 80, frame_length_ms: float = 25.0, frame_shift_ms: float = 10.0,
) -> np.ndarray:
    """:func:`fbank`'s values, unchecked, of ``n`` samples at ``sample_rate_hz``
    that :func:`_mel_energies` reads through ``source``: a buffer's, an LTR
    rendering's or a file's, rendered or decoded per block, never whole."""
    dims = at_least("dims", dims, 1)
    window = segment_samples(frame_length_ms, sample_rate_hz)
    hop = segment_samples(frame_shift_ms, sample_rate_hz)
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
    hamming, mel = _tables(dims, window, fft_size, sample_rate_hz)

    energies = _mel_energies(source, window, hop, n_frames, fft_size, hamming, mel)
    np.maximum(energies, _ENERGY_FLOOR, out=energies)
    return np.log(energies, out=energies)


def _featurize(
    in_path: str | Path, out_path: str | Path, dims: int, frame_length_ms: float, frame_shift_ms: float, normalize: bool
) -> None:
    """Write ``save_features(mvn(fbank(read_wav(in_path), dims, ...)), out_path)``,
    without :func:`mvn` unless ``normalize``: the same bytes, and the same
    errors in the same order. The samples are decoded one FFT block's span at a
    time into one reused buffer by :meth:`~ltrkit.audio_io._Wav.check`, and
    normalized in place, so only the float64 output grows with the input. Every
    sample is checked for NaN, those no frame covers too (between blocks when
    the window is shorter than the hop, and after the last frame), with
    :func:`read_wav`'s error, which counts them over the whole file. Any other
    error first decodes the whole file as :func:`read_wav` does, whose errors
    come first. The input is closed before ``out_path``, which may name it, is written."""
    with _open_wav(in_path) as wav:
        try:
            values = _log_mel(wav.check, wav.length, wav.rate, dims, frame_length_ms, frame_shift_ms)
            wav.check(None, wav.length, wav.length)  # the samples after the last frame
            FeatureMatrix._check_values(values)
        except DataError:
            wav.buffer()
            raise
    if normalize:
        _normalize(values)
    write_matrix(values, out_path, FEATURES_MAGIC)


def mvn(features: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-coefficient mean-variance normalization.

    Columns with (near-)zero spread are zeroed rather than blown up: the
    divisor is ``max(stddev, 1e-8)``. A single-frame matrix therefore
    normalizes to all zeros. Idempotent up to rounding.
    """
    values = features.values.copy(order="K")
    _normalize(values)
    return FeatureMatrix._adopt(values)


def _normalize(v: np.ndarray) -> None:
    """:func:`mvn` of the writable float64 frames x dims array ``v``, in place
    and bit for bit: the steps of ``v.std(axis=0)``, the squares summed a block
    of rows at a time. numpy sums a C-order matrix of 2 or more dims down axis
    0 row by row, so a sum carried into a block's first row has the whole sum's
    bits; a contiguous column (1 dim, or F order) it sums pairwise, so there
    the whole matrix is one block."""
    v -= v.mean(axis=0)
    rows = len(v) if v.flags.f_contiguous else _BLOCK_FRAMES
    squares = np.zeros(v.shape[1])
    for start in range(0, len(v), rows):
        block = np.multiply(v[start : start + rows], v[start : start + rows])
        block[0] += squares
        squares = block.sum(axis=0)
    v /= np.maximum(np.sqrt(squares / len(v)), 1e-8)


def boundary_discontinuity(buffer: AudioBuffer, segment_ms: float) -> float:
    """Mean absolute sample jump across interior segment boundaries.

    For segment length L, this is the average of ``|s[kL] - s[kL-1]|`` over
    every boundary k >= 1: a scalar proxy for the noise that segment-wise
    reversal introduces at the seams.

    Raises:
        DataError: if the buffer does not span at least two segments.
    """
    return _seam_jump(buffer, segment_ms, ltr=False)


def _seam_jump(buffer: AudioBuffer, segment_ms: float, ltr: bool) -> float:
    """:func:`boundary_discontinuity` of ``buffer``, or with ``ltr`` of
    ``reverse_segments(buffer, segment_ms)`` with the same errors, gathered
    from ``buffer`` alone: at seam k of the rendering, sample kL is the last
    of source segment k, ``x[min(kL + L, n) - 1]``, and sample kL - 1 is the
    first of segment k - 1, ``x[(k-1)L]``. Same jumps, same mean, bit for bit."""
    seg = segment_samples(segment_ms, buffer.sample_rate_hz)
    n = len(buffer)
    if ltr and n == 0:
        raise DataError("buffer is empty")  # reverse_segments' error
    if n <= seg:
        raise DataError(f"buffer of {n} samples has fewer than two {segment_ms:g} ms segments")
    x = buffer.samples
    starts = np.arange(seg, n, seg)
    after, before = (np.minimum(starts + seg, n) - 1, starts - seg) if ltr else (starts, starts - 1)
    return float(np.mean(np.abs(x[after] - x[before])))


def spectral_distance(a: FeatureMatrix, b: FeatureMatrix) -> float:
    """Root-mean-square difference over all cells of two equal-shape matrices."""
    if a.values.shape != b.values.shape:
        raise DataError(f"shape mismatch: {a.values.shape} vs {b.values.shape}")
    diff = a.values - b.values
    return float(np.sqrt(np.mean(np.multiply(diff, diff, out=diff))))


def distortion_curve(
    buffer: AudioBuffer, metric: str, durations_ms: Iterable[float] = DEFAULT_DURATIONS_MS
) -> list[tuple[float, float]]:
    """``(segment_ms, value)`` per duration, in the given order: the
    ``"boundary"`` discontinuity of each LTR rendering of ``buffer``, or the
    ``"spectral-distance"`` between the default :func:`fbank` features of
    ``buffer`` and of each rendering. No rendering is made whole: the spectral
    metric renders each FFT block's span of samples from ``buffer`` as the
    block reads it, in time linear in the span whatever the segment length,
    and the boundary metric reads its seams from ``buffer`` and renders
    nothing. The values equal those of the whole renderings bit for bit.
    """
    if metric not in DISTORTION_METRICS:
        raise DataError(f"metric must be one of {DISTORTION_METRICS}, got {metric!r}")
    if metric == "boundary":
        return [(duration_ms, _seam_jump(buffer, duration_ms, ltr=True)) for duration_ms in durations_ms]
    reference = fbank(buffer)
    x, rate = buffer.samples, buffer.sample_rate_hz
    return [
        (duration_ms, spectral_distance(reference, FeatureMatrix._adopt(
            _log_mel(functools.partial(_reverse, x, segment_samples(duration_ms, rate)), len(x), rate))))
        for duration_ms in durations_ms
    ]


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
