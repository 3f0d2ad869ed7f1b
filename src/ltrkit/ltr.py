"""Locally time-reversed (LTR) rendering of audio.

The waveform is partitioned into consecutive segments of one duration, a
plain float in ms, and the samples inside each segment are rewritten in
reverse order; segment order is untouched. The transform is length-preserving,
permutes samples only within their own segment, and is its own inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .audio_io import AudioBuffer
from .errors import DataError, positive

__all__ = ["DEFAULT_DURATIONS_MS", "reverse_segments", "segment_samples"]

# The standard sweep: 5 ms through 50 ms in 5 ms steps.
DEFAULT_DURATIONS_MS: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0)


def segment_samples(segment_ms: float, sample_rate_hz: int) -> int:
    """Length in samples of a duration in milliseconds: LTR segments and
    filterbank windows and hops alike.

    Rounds half away from zero (a fixed rule, so renderings are reproducible
    across runs) and never returns less than one sample.
    """
    samples = positive("a duration in ms", segment_ms) * positive("sample_rate_hz", sample_rate_hz) / 1000.0
    if samples == math.inf:
        raise DataError(f"a duration of {segment_ms} ms at {sample_rate_hz} Hz overflows a sample count")
    return max(1, int(math.floor(samples + 0.5)))


def reverse_segments(buffer: AudioBuffer, segment_ms: float) -> AudioBuffer:
    """Reverse the sample order inside each consecutive ``segment_ms`` segment.

    Segmentation starts at sample 0 with no overlap. A trailing segment
    shorter than the nominal length is reversed as-is, which keeps the output
    the same length as the input and makes double application the identity.
    A buffer shorter than one segment is a single tail segment, i.e. it is
    reversed whole.
    """
    seg = segment_samples(segment_ms, buffer.sample_rate_hz)
    if len(buffer) == 0:
        raise DataError("buffer is empty")
    return AudioBuffer._adopt(_reverse(buffer.samples, seg), buffer.sample_rate_hz)


def _reverse(x: np.ndarray, seg: int) -> np.ndarray:
    """A new array: non-empty 1-D ``x`` with each consecutive ``seg``-sample
    segment reversed, as :func:`reverse_segments` describes."""
    n = len(x)
    seg = min(seg, n)
    out = np.empty(n, dtype=x.dtype)
    full = (n // seg) * seg
    out[:full].reshape(-1, seg)[...] = x[:full].reshape(-1, seg)[:, ::-1]
    out[full:] = x[full:][::-1]
    return out
