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
