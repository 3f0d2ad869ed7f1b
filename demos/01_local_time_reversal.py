"""Local time reversal, step by step.

Renders a synthetic utterance at several reversal granularities, checks the
headline properties (length, energy, involution), and prints the boundary
discontinuity profile across the standard 5..50 ms sweep.

Run:  python3 demos/01_local_time_reversal.py
"""

import numpy as np

from ltrkit import AudioBuffer, distortion_curve, reverse_segments, segment_samples

rate = 16000
t = np.arange(rate) / rate

# A toy "utterance": a pitch-like tone plus a formant-like sweep.
signal = 0.5 * np.sin(2 * np.pi * 130 * t) + 0.2 * np.sin(2 * np.pi * (500 * t + 900 * t * t))
utterance = AudioBuffer(signal, rate)
print(f"utterance: {len(utterance)} samples at {rate} Hz ({utterance.duration_s:.2f} s)")

print("\nA tiny example first. Samples 0..9 reversed in 4-sample segments:")
toy = AudioBuffer(np.arange(10) / 10, 1000)
print("  in :", toy.samples.tolist())
print("  out:", reverse_segments(toy, 4.0).samples.tolist())
print("(the 2-sample tail is reversed as-is, so nothing is dropped)")

print("\nReversal is an involution: applying it twice restores the input.")
once = reverse_segments(utterance, 20.0)
twice = reverse_segments(once, 20.0)
print("  double application bit-identical:", np.array_equal(twice.samples, utterance.samples))
print("  length preserved:", len(once) == len(utterance))
print("  energy preserved:", np.isclose(np.sum(once.samples**2), np.sum(utterance.samples**2), rtol=0))

print("\nShorter segments mean more seams per second, and on this signal")
print("also larger jumps at each seam:")
print("  segment_ms  boundaries/s  mean|jump|")
for duration_ms, jump in distortion_curve(utterance, "boundary"):
    seams_per_second = rate / segment_samples(duration_ms, rate)
    print(f"  {duration_ms:10.0f}  {seams_per_second:12.1f}  {jump:10.4f}")

print("\nDone. Try writing a rendering with ltrkit.write_wav(...) and listening to it.")
