"""Waveform and feature-domain comparison augmentations: speed perturbation
and time/frequency masking of feature matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .features import FeatureMatrix

__all__ = ["DEFAULT_SPEED_FACTORS", "SpecAugmentPolicy", "spec_augment", "speed_perturb"]

# The usual 3-fold recipe: one slowed, one unchanged, one sped-up copy.
DEFAULT_SPEED_FACTORS: tuple[float, ...] = (0.9, 1.0, 1.1)


def speed_perturb(buffer: AudioBuffer, factor: float) -> AudioBuffer:
    """Change playback rate by resampling the waveform (pitch shifts with it).

    The sample rate stays as declared; the output has ``round(n / factor)``
    samples and output sample i is the linear interpolation of the input at
    position ``i * factor``, clamped at the signal edges. Factor 1.0 is the
    identity.
    """
    if factor <= 0:
        raise ValueError(f"speed factor must be positive, got {factor}")
    if factor == 1.0:
        return AudioBuffer(buffer.samples, buffer.sample_rate_hz)
    n = len(buffer)
    out_len = int(math.floor(n / factor + 0.5))
    if out_len < 1:
        raise ValueError(f"factor {factor} leaves no output samples for a {n}-sample buffer")
    positions = np.arange(out_len, dtype=np.float64) * factor
    out = np.interp(positions, np.arange(n, dtype=np.float64), buffer.samples)
    return AudioBuffer(out, buffer.sample_rate_hz)


@dataclass(frozen=True)
class SpecAugmentPolicy:
    """Masking policy: how many rectangles to zero out, and how large.

    Defaults follow common masking practice (two frequency masks of up to 27
    mel bins, two time masks of up to 5% of the frames). Masks write 0.0,
    which equals the per-utterance mean when applied after normalization.
    """

    num_freq_masks: int = 2
    max_freq_mask_width: int = 27
    num_time_masks: int = 2
    max_time_mask_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_freq_masks < 0 or self.num_time_masks < 0:
            raise ValueError("mask counts must be non-negative")
        if self.max_freq_mask_width < 0:
            raise ValueError(f"max_freq_mask_width must be non-negative, got {self.max_freq_mask_width}")
        if not 0.0 <= self.max_time_mask_fraction <= 1.0:
            raise ValueError(f"max_time_mask_fraction must be in [0, 1], got {self.max_time_mask_fraction}")


def spec_augment(features: FeatureMatrix, policy: SpecAugmentPolicy) -> FeatureMatrix:
    """Zero out random frequency bands and time ranges of a feature matrix.

    Fully deterministic for a given (input, policy) pair: one generator is
    seeded from ``policy.seed`` and draws, in order, (width, start) for each
    frequency mask and then for each time mask. Widths are uniform integers
    in [0, max_width] with the maximum clamped to the matrix dimension; the
    start is uniform over the positions where the mask fits. The output shape
    always equals the input shape.
    """
    frames, dims = features.values.shape
    if frames == 0 or dims == 0:
        raise ValueError("features are empty")
    values = np.array(features.values)
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

    return FeatureMatrix(values)
