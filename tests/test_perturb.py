import math
import os
import shutil
import threading
import types

import numpy as np
import pytest

from ltrkit import matrix_io
from ltrkit.audio_io import AudioBuffer
from ltrkit.cli import run
from ltrkit.errors import DataError
from ltrkit.features import FeatureMatrix, load_features, save_features
from ltrkit.matrix_io import FEATURES_MAGIC, MatrixFormatError, write_matrix
from ltrkit.perturb import DEFAULT_SPEED_FACTORS, SpecAugmentPolicy, spec_augment, spec_augment_file, speed_perturb


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


@pytest.mark.parametrize("n, factor, expected", [(16000, 1.1, 14545), (10, 0.9, 11), (100, 2.0, 50), (9, 2.0, 5)])
def test_speed_output_length(n, factor, expected):
    out = speed_perturb(AudioBuffer(np.zeros(n), 16000), factor)
    assert len(out) == expected
    assert expected == math.floor(n / factor + 0.5)  # half up, where round(4.5) is 4


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


@pytest.mark.parametrize("n", [1, 2, 3, 17, 2**14 - 1, 2**14 + 1, 2**15 - 1, 2**15 + 1])
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


def test_an_overflowing_slope_is_a_data_error():
    # the slope between -1.7e308 and 1.7e308 overflows; a decoded source is
    # clipped to [-1, 1], so only a buffer built from such samples has one
    buffer = AudioBuffer([1.7e308, -1.7e308, 1.0], 8000)
    with pytest.raises(DataError, match="must be finite"):
        speed_perturb(buffer, 0.5)


def test_speed_perturb_memory_stays_bounded(traced_peak):
    buffer = AudioBuffer(np.random.default_rng(0).uniform(-1.0, 1.0, 640_000), 16000)
    out, peak = traced_peak(speed_perturb, buffer, 0.9)
    # the whole-buffer form peaked at 25.5 MiB for this 5.4 MiB output
    assert peak <= out.samples.nbytes + 2 * 2**20, peak / 2**20


# ---------------------------------------------------------------- spec_augment_file


def _seed_specaug(in_path, out_path, policy):
    """The float64 round trip that spec_augment_file replaced, kept as the
    reference whose bytes and errors it must match."""
    save_features(spec_augment(load_features(in_path), policy), out_path)


_SPECAUG_POLICIES = [
    SpecAugmentPolicy(),
    SpecAugmentPolicy(seed=7),
    SpecAugmentPolicy(num_freq_masks=0, num_time_masks=0, seed=3),
    SpecAugmentPolicy(num_freq_masks=3, max_freq_mask_width=500, seed=4),  # a width >= dims
    SpecAugmentPolicy(num_time_masks=4, max_time_mask_fraction=1.0, seed=5),
    SpecAugmentPolicy(np.int64(2), np.int32(40), np.uint8(3), 0.5, np.int64(11)),
]


def _fbk1_with_signed_zeros(path, frames, dims, seed=0):
    """An FBK1 file of float32 values, about a fifth of them -0.0, with the
    float32 extremes in its first row."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(frames, dims)).astype(np.float32)
    values[rng.uniform(size=values.shape) < 0.2] = -0.0
    values[0, : min(dims, 3)] = (np.finfo(np.float32).max, -np.finfo(np.float32).tiny, 1e-45)[: min(dims, 3)]
    save_features(FeatureMatrix(values), path)


@pytest.mark.parametrize("frames, dims", [(1, 1), (1, 80), (3, 2), (4000, 80)])
def test_spec_augment_file_matches_the_seed_byte_for_byte(tmp_path, frames, dims):
    src = tmp_path / "in.fbk"
    _fbk1_with_signed_zeros(src, frames, dims, seed=frames * dims)
    for k, policy in enumerate(_SPECAUG_POLICIES):
        spec_augment_file(src, tmp_path / "got.fbk", policy)
        _seed_specaug(src, tmp_path / "want.fbk", policy)
        assert (tmp_path / "got.fbk").read_bytes() == (tmp_path / "want.fbk").read_bytes(), k
        if policy.num_freq_masks == policy.num_time_masks == 0:
            assert (tmp_path / "got.fbk").read_bytes() == src.read_bytes()  # -0.0 cells and all
    assert frames * dims <= 3 or np.signbit(load_features(src).values).any()


def test_specaug_in_place_matches_the_seed(tmp_path):
    src, work = tmp_path / "in.fbk", tmp_path / "work.fbk"
    _fbk1_with_signed_zeros(src, 300, 40)
    shutil.copy(src, work)
    assert run(["specaug", "--seed", "9", "--time-fraction", "0.5", "--in", str(work), "--out", str(work)]) == 0
    _seed_specaug(src, tmp_path / "want.fbk", SpecAugmentPolicy(max_time_mask_fraction=0.5, seed=9))
    assert work.read_bytes() == (tmp_path / "want.fbk").read_bytes()


def _faulty_fbk1(path, fault):
    values = {"0 rows": np.zeros((0, 3)), "0 cols": np.zeros((3, 0))}.get(fault, np.arange(6.0).reshape(2, 3))
    if fault in ("nan", "inf"):
        values[1, 1] = np.nan if fault == "nan" else np.inf
    write_matrix(values, path, b"PST1" if fault == "magic" else FEATURES_MAGIC)
    if fault == "size":
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")


@pytest.mark.parametrize("fault", ["nan", "inf", "0 rows", "0 cols", "size", "magic"])
def test_a_faulty_specaug_input_exits_2_with_the_seed_message(tmp_path, capsys, fault):
    src, out = tmp_path / "in.fbk", tmp_path / "out.fbk"
    _faulty_fbk1(src, fault)
    with pytest.raises(MatrixFormatError) as seed:
        _seed_specaug(src, out, SpecAugmentPolicy())
    assert run(["specaug", "--seed", "0", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {seed.value}\n"
    assert str(seed.value).startswith(f"{src}: ")
    assert not out.exists()


def test_spec_augment_file_holds_one_payload(tmp_path, traced_peak):
    path = tmp_path / "big.fbk"
    save_features(FeatureMatrix(np.random.default_rng(0).normal(size=(30_000, 80))), path)
    payload = 30_000 * 80 * 4
    _, peak = traced_peak(spec_augment_file, path, tmp_path / "out.fbk", SpecAugmentPolicy())
    # the float64 round trip peaked at 38.9 MiB for this 9.2 MiB payload
    assert peak <= 1.5 * payload, peak / 2**20


class _ShortReads:
    """A file handle whose ``readinto`` fills at most 1000 bytes a call, as a read past 2 GiB does."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def fileno(self):
        return self._handle.fileno()

    def readinto(self, view):
        return self._handle.readinto(view[:1000])

    def read(self):
        return self._handle.read()


@pytest.mark.parametrize("short", [False, True], ids=["whole", "short reads"])
@pytest.mark.parametrize("change", [0, -100, 100, -10**6], ids=["same size", "grew", "shrank", "grew from 0"])
def test_a_matrix_file_reads_to_its_end(tmp_path, monkeypatch, short, change):
    """Read whole, whatever size fstat gave (as if the file changed after it)
    and however short the reads; a file whose size then mismatches its header
    gets the size error."""
    src, wrong = tmp_path / "in.fbk", tmp_path / "wrong.fbk"
    _fbk1_with_signed_zeros(src, 300, 40)
    wrong.write_bytes(src.read_bytes()[:-4])
    want = load_features(src).values
    _seed_specaug(src, tmp_path / "want.fbk", SpecAugmentPolicy())
    real_fstat = os.fstat
    monkeypatch.setattr(matrix_io, "os", types.SimpleNamespace(fstat=lambda fd: types.SimpleNamespace(st_size=max(0, real_fstat(fd).st_size + change))))
    if short:
        monkeypatch.setattr(matrix_io, "open", lambda *args, **kwargs: _ShortReads(open(*args, **kwargs)), raising=False)
    assert np.array_equal(load_features(src).values, want)
    spec_augment_file(src, tmp_path / "got.fbk", SpecAugmentPolicy())
    assert (tmp_path / "got.fbk").read_bytes() == (tmp_path / "want.fbk").read_bytes()
    with pytest.raises(MatrixFormatError, match="expected 48012 bytes for a 300x40 matrix, found 48008$"):
        spec_augment_file(wrong, tmp_path / "never.fbk", SpecAugmentPolicy())
    assert not (tmp_path / "never.fbk").exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_reads_whole(tmp_path):
    src = tmp_path / "in.fbk"
    _fbk1_with_signed_zeros(src, 600, 80)  # 192 KB, past a pipe's 64 KiB buffer
    _seed_specaug(src, tmp_path / "want.fbk", SpecAugmentPolicy())
    for read in (lambda pipe: spec_augment_file(pipe, tmp_path / "got.fbk", SpecAugmentPolicy()),
                 lambda pipe: save_features(load_features(pipe), tmp_path / "got.fbk")):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(src.read_bytes()), daemon=True)
        writer.start()
        read(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        pipe.unlink()
    assert (tmp_path / "got.fbk").read_bytes() == src.read_bytes()
