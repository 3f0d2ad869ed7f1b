"""Locally time-reversed (LTR) rendering of audio.

The waveform is partitioned into consecutive fixed-duration segments and the
samples inside each segment are rewritten in reverse order; segment order is
untouched. The transform is length-preserving, permutes samples only within
their own segment, and is its own inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer

__all__ = ["DEFAULT_DURATIONS_MS", "LtrConfig", "reverse_segments", "segment_samples"]

# The standard sweep: 5 ms through 50 ms in 5 ms steps.
DEFAULT_DURATIONS_MS: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)


def segment_samples(segment_ms: float, sample_rate_hz: int) -> int:
    """Length in samples of a duration in milliseconds: LTR segments and
    filterbank windows and hops alike.

    Rounds half away from zero (a fixed rule, so renderings are reproducible
    across runs) and never returns less than one sample.
    """
    if segment_ms <= 0:
        raise ValueError(f"a duration must be positive, got {segment_ms} ms")
    if sample_rate_hz <= 0:
        raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    return max(1, int(math.floor(segment_ms * sample_rate_hz / 1000.0 + 0.5)))


@dataclass(frozen=True)
class LtrConfig:
    """Reversal granularity, expressed as a segment duration in milliseconds."""

    segment_ms: float

    def __post_init__(self) -> None:
        if self.segment_ms <= 0:
            raise ValueError(f"segment_ms must be positive, got {self.segment_ms}")

    def segment_samples(self, sample_rate_hz: int) -> int:
        return segment_samples(self.segment_ms, sample_rate_hz)


def reverse_segments(buffer: AudioBuffer, config: LtrConfig) -> AudioBuffer:
    """Reverse the sample order inside each consecutive segment.

    Segmentation starts at sample 0 with no overlap. A trailing segment
    shorter than the nominal length is reversed as-is, which keeps the output
    the same length as the input and makes double application the identity.
    A buffer shorter than one segment is a single tail segment, i.e. it is
    reversed whole.
    """
    n = len(buffer)
    if n == 0:
        raise ValueError("buffer is empty")
    seg = config.segment_samples(buffer.sample_rate_hz)
    x = buffer.samples
    out = np.empty(n, dtype=x.dtype)
    full = (n // seg) * seg
    out[:full] = x[:full].reshape(-1, seg)[:, ::-1].reshape(-1)
    out[full:] = x[full:][::-1]
    return AudioBuffer(out, buffer.sample_rate_hz)
