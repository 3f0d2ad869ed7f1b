"""Waveform and feature-domain comparison augmentations: speed perturbation
and time/frequency masking of feature matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._atomic import write_in_place
from .audio_io import AudioBuffer
from .errors import DataError, at_least, fraction, positive
from .features import FeatureMatrix
from .matrix_io import FEATURES_MAGIC, MatrixFormatError, _matrix_payload

__all__ = ["DEFAULT_SPEED_FACTORS", "SpecAugmentPolicy", "spec_augment", "spec_augment_file", "speed_perturb"]

# The usual 3-fold recipe: one slowed, one unchanged, one sped-up copy.
DEFAULT_SPEED_FACTORS: tuple[float, ...] = (0.9, 1.0, 1.1)
# Slower would stretch audio over a hundredfold, past any perturbation.
_MIN_SPEED_FACTOR = 0.01
# Output samples interpolated per block: the block's positions, index ramp,
# slopes and values stay under 1 MiB together whatever the buffer's length
# (about 0.7 MiB at factor 0.9; 2^15 took 1.4 MiB and was no faster).
_BLOCK_SAMPLES = 1 << 14
# Masks drawn per axis: 2^16 on each axis of a 1000x80 matrix take about
# 1.4 s on one 2-vCPU Xeon core, and masks beyond the matrix's size cannot
# zero more cells.
_MAX_MASKS = 1 << 16


def speed_perturb(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Change playback rate by resampling the waveform (pitch shifts with it).

    The sample rate stays as declared; the output has ``n / factor`` samples
    rounded half up, the rule of :func:`~ltrkit.ltr.segment_samples` (9 samples
    at factor 2 give 5), and output sample i is the linear interpolation of the
    input at position ``i * factor``, clamped at the signal edges. Factor 1.0
    is the identity: it returns ``buffer`` itself. The factor must be finite
    and at least 0.01. A slope between samples that overflows gives a sample
    that is not finite, which the output buffer rejects as a :class:`DataError`.

    The output is filled in blocks of a fixed size, each interpolated from
    only the input samples its positions fall between, at their own indices;
    it equals ``np.interp(np.arange(out_len) * factor, np.arange(n), samples)``
    over the whole buffer bit for bit.
    """
    if factor == 1.0:
        return buffer
    out = np.empty(_speed_length(len(buffer), factor))
    return AudioBuffer._adopt(_resample(buffer.samples, factor, out), buffer.sample_rate_hz)


def _speed_factor(factor: float) -> None:
    if positive("speed factor", factor) < _MIN_SPEED_FACTOR:
        raise DataError(f"speed factor must be at least {_MIN_SPEED_FACTOR}, got {factor}")


def _speed_length(n: int, factor: float) -> int:
    """The length of an ``n``-sample buffer resampled at a checked ``factor``:
    ``n / factor`` rounded half up, at least one sample."""
    _speed_factor(factor)
    length = int(math.floor(n / factor + 0.5))
    if length < 1:
        raise DataError(f"factor {factor} leaves no output samples for a {n}-sample buffer")
    return length


def _resample(samples: np.ndarray, factor: float, out: np.ndarray) -> np.ndarray:
    """``out``, of :func:`_speed_length`'s length, filled block by block by plain
    assignment with float ``samples`` resampled as :func:`speed_perturb` says
    (``np.interp`` widens float32 ``samples`` exactly, a float32 ``out`` casts)."""
    n, out_len = len(samples), len(out)
    for start in range(0, out_len, _BLOCK_SAMPLES):
        stop = min(start + _BLOCK_SAMPLES, out_len)
        positions = np.arange(start, stop, dtype=np.float64) * factor
        lo = min(int(positions[0]), n - 1)
        hi = min(int(positions[-1]) + 2, n)
        out[start:stop] = np.interp(positions, np.arange(lo, hi, dtype=np.float64), samples[lo:hi])
    return out


@dataclass(frozen=True)
class SpecAugmentPolicy:
    """Masking policy: how many rectangles to zero out, and how large.

    Defaults follow common masking practice (two frequency masks of up to 27
    mel bins, two time masks of up to 5% of the frames). Masks write 0.0,
    which equals the per-utterance mean when applied after normalization.
    Each mask count is an integer in [0, 2^16], and the maximum width and the
    seed are integers >= 0 (Python or numpy integers).
    """

    num_freq_masks: int = 2
    max_freq_mask_width: int = 27
    num_time_masks: int = 2
    max_time_mask_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        counts = at_least("num_freq_masks", self.num_freq_masks, 0), at_least("num_time_masks", self.num_time_masks, 0)
        if max(counts) > _MAX_MASKS:
            raise DataError(f"mask counts must be at most {_MAX_MASKS} per axis, got {counts[0]} and {counts[1]}")
        at_least("max_freq_mask_width", self.max_freq_mask_width, 0)
        fraction("max_time_mask_fraction", self.max_time_mask_fraction)
        at_least("seed", self.seed, 0)


def spec_augment(features: FeatureMatrix, policy: SpecAugmentPolicy) -> FeatureMatrix:
    """Zero out random frequency bands and time ranges of a feature matrix.

    Fully deterministic for a given (input, policy) pair: one generator is
    seeded from ``policy.seed`` and draws, in order, (width, start) for each
    frequency mask and then for each time mask. Widths are uniform integers
    in [0, max_width] with the maximum clamped to the matrix dimension; the
    start is uniform over the positions where the mask fits. The output shape
    always equals the input shape.
    """
    return FeatureMatrix._adopt(_mask(np.array(features.values), policy))


def spec_augment_file(in_path: str | Path, out_path: str | Path, policy: SpecAugmentPolicy) -> None:
    """``save_features(spec_augment(load_features(in_path), policy), out_path)``,
    the same bytes and errors (``out_path`` may be ``in_path``), but the float32
    payload is masked in the buffer it was read into, so the call holds one copy
    of the file: each value came from float32, and a mask writes +0.0 either way."""
    raw, values = _matrix_payload(in_path, FEATURES_MAGIC)
    try:
        FeatureMatrix._check_values(values)
    except DataError as exc:
        raise MatrixFormatError(f"{in_path}: {exc}") from exc
    _mask(values, policy)
    write_in_place(out_path, [raw])


def _mask(values: np.ndarray, policy: SpecAugmentPolicy) -> np.ndarray:
    """``values``, any 2-D array, with the masks of :func:`spec_augment` written in place."""
    frames, dims = values.shape
    rng = np.random.default_rng(policy.seed)

    max_f = min(policy.max_freq_mask_width, dims)
    for _ in range(policy.num_freq_masks):
        width = int(rng.integers(0, max_f + 1))
        start = int(rng.integers(0, dims - width + 1))
        values[:, start : start + width] = 0.0

    max_t = int(policy.max_time_mask_fraction * frames)
    for _ in range(policy.num_time_masks):
        width = int(rng.integers(0, max_t + 1))
        start = int(rng.integers(0, frames - width + 1))
        values[start : start + width, :] = 0.0
    return values
