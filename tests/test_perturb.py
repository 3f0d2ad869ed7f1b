import math
import tracemalloc

import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer
from ltrkit.errors import DataError
from ltrkit.features import FeatureMatrix
from ltrkit.perturb import DEFAULT_SPEED_FACTORS, SpecAugmentPolicy, spec_augment, speed_perturb


def test_default_factors():
    assert DEFAULT_SPEED_FACTORS == (0.9, 1.0, 1.1)


def test_speed_factor_one_is_identity():
    rng = np.random.default_rng(0)
    buf = AudioBuffer(rng.uniform(-1, 1, 777), 16000)
    out = speed_perturb(buf, 1.0)
    assert np.array_equal(out.samples, buf.samples)
    assert out.sample_rate_hz == buf.sample_rate_hz


def test_speed_half_hand_case():
    # two samples [0, 1] at factor 0.5: positions 0, .5, 1, 1.5 -> edge clamp
    out = speed_perturb(AudioBuffer([0.0, 1.0], 8000), 0.5)
    assert out.samples.tolist() == [0.0, 0.5, 1.0, 1.0]


@pytest.mark.parametrize("n, factor, expected", [(16000, 1.1, 14545), (10, 0.9, 11), (100, 2.0, 50)])
def test_speed_output_length(n, factor, expected):
    out = speed_perturb(AudioBuffer(np.zeros(n), 16000), factor)
    assert len(out) == expected
    assert expected == round(n / factor)


def test_speed_rejects_nonpositive_and_empty_output():
    with pytest.raises(ValueError):
        speed_perturb(AudioBuffer([0.0, 0.1], 8000), 0.0)
    with pytest.raises(ValueError, match="no output samples"):
        speed_perturb(AudioBuffer([0.0, 0.1], 8000), 100.0)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(DataError, match="positive and finite"):
            speed_perturb(AudioBuffer([0.0, 0.1], 8000), bad)
    for tiny in (5e-324, 1e-300, 0.0099):  # the output would not fit, or be a >100x stretch
        with pytest.raises(DataError, match="at least 0.01"):
            speed_perturb(AudioBuffer([0.0, 0.1], 8000), tiny)


def test_speed_interpolates_linearly():
    # a ramp resampled is still the same ramp, up to the edge clamp
    n = 100
    buf = AudioBuffer(np.linspace(0, 1, n), 8000)
    out = speed_perturb(buf, 0.75)
    positions = np.arange(len(out)) * 0.75
    expected = np.minimum(positions, n - 1) / (n - 1)
    assert np.allclose(out.samples, expected, atol=1e-12)


def make_features(frames=40, dims=20, seed=1):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.normal(size=(frames, dims)))


def test_no_masks_is_identity():
    feats = make_features()
    out = spec_augment(feats, SpecAugmentPolicy(num_freq_masks=0, num_time_masks=0, seed=5))
    assert np.array_equal(out.values, feats.values)


def test_same_seed_same_output():
    feats = make_features()
    policy = SpecAugmentPolicy(seed=123)
    a = spec_augment(feats, policy)
    b = spec_augment(feats, policy)
    assert np.array_equal(a.values, b.values)


def test_changed_cells_are_zero_and_bounded():
    feats = make_features(frames=200, dims=30, seed=2)
    policy = SpecAugmentPolicy(num_freq_masks=2, max_freq_mask_width=8, num_time_masks=2, max_time_mask_fraction=0.1, seed=9)
    out = spec_augment(feats, policy)
    assert out.values.shape == feats.values.shape
    changed = out.values != feats.values
    assert np.all(out.values[changed] == 0.0)
    max_area = 2 * 8 * 200 + 2 * int(0.1 * 200) * 30
    assert changed.sum() <= max_area


def test_full_width_mask_reachable():
    # width draws are inclusive of the max, so some seed blanks the whole matrix
    feats = make_features(frames=6, dims=4, seed=3)
    hit = False
    for seed in range(64):
        policy = SpecAugmentPolicy(num_freq_masks=1, max_freq_mask_width=4, num_time_masks=0, seed=seed)
        out = spec_augment(feats, policy)
        if np.all(out.values == 0.0):
            hit = True
            break
    assert hit


def test_mask_width_clamped_to_matrix():
    feats = make_features(frames=5, dims=3)
    policy = SpecAugmentPolicy(num_freq_masks=3, max_freq_mask_width=1000, num_time_masks=0, seed=0)
    out = spec_augment(feats, policy)  # must not raise
    assert out.values.shape == feats.values.shape


def test_policy_validation():
    with pytest.raises(ValueError):
        SpecAugmentPolicy(num_freq_masks=-1)
    with pytest.raises(ValueError):
        SpecAugmentPolicy(max_time_mask_fraction=1.5)
    with pytest.raises(ValueError):
        SpecAugmentPolicy(max_freq_mask_width=-2)
    SpecAugmentPolicy(num_freq_masks=2**16, num_time_masks=2**16)  # the most masks accepted
    for freq, time in ((2**16 + 1, 0), (0, 2**16 + 1), (10**20, 2)):
        with pytest.raises(DataError, match="at most 65536 per axis"):
            SpecAugmentPolicy(num_freq_masks=freq, num_time_masks=time)


def test_policy_seed_must_be_a_non_negative_integer():
    for seed in (-1, 1.5, "3", None, np.int64(-2)):
        with pytest.raises(DataError, match="seed must be an integer >= 0"):
            SpecAugmentPolicy(seed=seed)
    feats = FeatureMatrix(np.ones((20, 8)))
    for seed in (0, 2**100, np.int64(3), np.uint64(5)):
        assert spec_augment(feats, SpecAugmentPolicy(seed=seed)).values.shape == (20, 8)
    masked = [spec_augment(feats, SpecAugmentPolicy(seed=seed)).values for seed in (np.int64(3), 3)]
    assert np.array_equal(*masked)


def _seed_speed_perturb(buffer, factor):
    """The whole-buffer interpolation that the blocked one replaced, kept as
    the reference it must equal bit for bit (factor 1.0 aside)."""
    n = len(buffer)
    out_len = int(math.floor(n / factor + 0.5))
    positions = np.arange(out_len, dtype=np.float64) * factor
    return np.interp(positions, np.arange(n, dtype=np.float64), buffer.samples)


_FACTORS = (0.01, 0.37, 0.9, 1.1, 1.3, 2, 7.5, 1e4)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 2**15 - 1, 2**15 + 1])
def test_speed_perturb_matches_seed_bit_for_bit(n):
    rng = np.random.default_rng(n)
    signed_zeros = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0)
    with_zeros = rng.uniform(-1.0, 1.0, n)
    with_zeros[rng.uniform(size=n) < 0.3] = -0.0
    for samples in (rng.uniform(-1.0, 1.0, n), signed_zeros, with_zeros):
        buffer = AudioBuffer(samples, 16000)
        for factor in _FACTORS:
            want = _seed_speed_perturb(buffer, factor)
            if len(want) == 0:
                with pytest.raises(DataError, match="no output samples"):
                    speed_perturb(buffer, factor)
                continue
            got = speed_perturb(buffer, factor).samples
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), factor


def test_speed_perturb_matches_seed_on_ltr_renderings():
    from ltrkit.ltr import DEFAULT_DURATIONS_MS, reverse_segments

    rng = np.random.default_rng(7)
    t = np.arange(3 * 16000 + 5) / 16000
    buffer = AudioBuffer(0.4 * np.sin(2 * np.pi * 220 * t) + 0.05 * rng.normal(size=len(t)), 16000)
    for ms in DEFAULT_DURATIONS_MS:
        rendered = reverse_segments(buffer, ms)
        for factor in (0.9, 1.1, 1.3):
            got = speed_perturb(rendered, factor).samples
            want = _seed_speed_perturb(rendered, factor)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), (ms, factor)


def test_speed_perturb_memory_stays_bounded():
    buffer = AudioBuffer(np.random.default_rng(0).uniform(-1.0, 1.0, 640_000), 16000)
    tracemalloc.start()
    try:
        out = speed_perturb(buffer, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-buffer form peaked at 25.5 MiB for this 5.4 MiB output
    assert peak <= out.samples.nbytes + 2 * 2**20, peak / 2**20
