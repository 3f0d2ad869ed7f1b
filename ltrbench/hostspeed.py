"""How fast the host runs a fixed piece of work right now.

A shared virtual machine runs the same code up to 1.6x slower for minutes at
a time, by thread CPU time as well as by the wall clock, when other guests
load the physical cores. The benchmark times this fixed kernel before every
operation family of a round and scales the round's timings by
``REFERENCE_S`` over the kernel's median time, so that a throughput reads as
it would on the reference host at its usual speed. The kernel is not ltrkit
code: a change to ltrkit moves the throughputs and leaves the kernel alone.
Half of its time is a pure-Python dynamic programme, like ltrkit's
``align`` and ``ctc_loss``; half is FFT and matrix products, like its
``fbank``.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of one ``sample()`` on the reference host (2 vCPUs, Python
# 3.11.7, numpy 2.4.6, OpenBLAS pinned to one thread) in a quiet stretch.
REFERENCE_S = 0.014

_A = "".join(chr(97 + (i * 7) % 26) for i in range(100))
_B = "".join(chr(97 + (i * 11) % 26) for i in range(100))
_FRAMES = np.random.default_rng(0).standard_normal((200, 512))
_MEL = np.random.default_rng(1).standard_normal((257, 80))


def _edit_distance() -> int:
    prev = list(range(len(_B) + 1))
    for i, a in enumerate(_A, 1):
        cur = [i]
        for j, b in enumerate(_B, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    return prev[-1]


def _spectra() -> float:
    # Small blocks, so that the kernel adds little to the process's peak RSS.
    return sum(float((np.abs(np.fft.rfft(_FRAMES, axis=1)) ** 2 @ _MEL).sum()) for _ in range(8))


def sample() -> float:
    """Thread CPU seconds of one pass of the fixed kernel."""
    t0 = time.thread_time()
    _edit_distance()
    _spectra()
    return time.thread_time() - t0
