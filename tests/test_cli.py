import dataclasses
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ltrkit import __version__
from ltrkit.audio_io import AudioBuffer, read_wav, write_wav
from ltrkit.cli import run
from ltrkit.dataset import load_manifest, save_manifest, ManifestRecord
from ltrkit.errors import DataError
from ltrkit.features import load_features
from ltrkit.ltr import reverse_segments
from ltrkit.matrix_io import FEATURES_MAGIC, POSTERIORS_MAGIC, write_matrix
from ltrkit.metrics import align, top_confusions
from ltrkit.scoring import PosteriorGrid, ctc_loss, save_grid


@pytest.fixture()
def wav(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "in.wav"
    write_wav(AudioBuffer(rng.uniform(-0.8, 0.8, 16000), 16000), path, "float32")
    return path


def test_version_prints_semver(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == __version__
    assert len(out.split(".")) == 3


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(tmp_path):
    assert run(["ltr", "--in", "a.wav", "--out", "b.wav"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["wer", "--ref", "r", "--hyp", "h", "--confusions", "x"], "argument --confusions: invalid literal for int()"),
        (["wer", "--ref", "r", "--hyp", "h", "--confusions", "0"], "argument --confusions: the value must be an integer >= 1, got 0"),
        (["featurize", "--in", "a", "--out", "b", "--dims", "2.5"], "argument --dims: invalid literal for int()"),
        (["build-set", "--manifest", "m", "--out-dir", "o", "--out-manifest", "n", "--set", "1", "--parallelism", "-1"],
         "argument --parallelism: the value must be an integer >= 1, got -1"),
    ],
)
def test_a_bad_count_is_a_usage_error_naming_the_option(capsys, argv, message):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert message in err and "_positive_int" not in err


@pytest.mark.parametrize(
    "command", ["ltr", "speed", "specaug", "featurize", "build-set", "build-speed-set", "analyze", "score", "wer"]
)
def test_help_of_every_subcommand(capsys, command):
    assert run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: ltrkit {command} ")


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("ltr", "--segment-ms", "0"),
        ("ltr", "--segment-ms", "nan"),
        ("ltr", "--segment-ms", "inf"),
        ("featurize", "--window-ms", "nan"),
        ("featurize", "--window-ms", "inf"),
        ("analyze", "--durations", "nan"),
        ("build-speed-set", "--factors", "nan,0.9"),
        ("build-speed-set", "--factors", ","),
    ],
)
def test_nonpositive_segment_is_usage_error(tmp_path, capsys, command, option, value):
    required = {
        "ltr": ["--in", "a.wav", "--out", "b.wav"],
        "featurize": ["--in", "a.wav", "--out", "b.fbk"],
        "analyze": ["--metric", "boundary", "--in", "a.wav"],
        "build-speed-set": ["--manifest", "m.jsonl", "--out-dir", str(tmp_path / "sp"), "--out-manifest", "o.jsonl"],
    }
    assert run([command, option, value, *required[command]]) == 1
    err = capsys.readouterr().err
    assert f"argument {option}:" in err and value in err
    assert not (tmp_path / "sp").exists()


def test_ltr_roundtrip(tmp_path, wav):
    out = tmp_path / "out.wav"
    assert run(["ltr", "--segment-ms", "20", "--in", str(wav), "--out", str(out)]) == 0
    rendered = read_wav(out)
    source = read_wav(wav)
    assert len(rendered) == len(source)
    expected = reverse_segments(source, 20.0)
    assert np.array_equal(rendered.samples, expected.samples)


def test_ltr_missing_input_is_data_error(tmp_path, capsys):
    assert run(["ltr", "--segment-ms", "20", "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.wav")]) == 2
    assert "error" in capsys.readouterr().err


def test_ltr_malformed_wav_is_data_error(tmp_path, wav, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    assert run(["ltr", "--segment-ms", "20", "--in", str(bad), "--out", str(tmp_path / "o.wav")]) == 2
    raw = bytearray(wav.read_bytes())
    raw[44:48] = np.float32(np.nan).tobytes()  # the first float32 sample
    bad.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["ltr", "--segment-ms", "20", "--in", str(bad), "--out", str(tmp_path / "o.wav")]) == 2
    assert f"{bad}: samples must be finite" in capsys.readouterr().err
    # A finite duration whose sample count overflows is a data error, not a traceback.
    assert run(["ltr", "--segment-ms", "1e308", "--in", str(wav), "--out", str(tmp_path / "o.wav")]) == 2
    assert "1e+308 ms" in capsys.readouterr().err
    assert not (tmp_path / "o.wav").exists()


def test_ltr_and_analyze_with_a_segment_beyond_any_array_size(tmp_path, wav, capsys):
    for codec in ("pcm16", "float32"):
        out = tmp_path / f"{codec}.wav"
        assert run(["ltr", "--segment-ms", "1e300", "--codec", codec, "--in", str(wav), "--out", str(out)]) == 0
        write_wav(AudioBuffer(read_wav(wav).samples[::-1], 16000), tmp_path / "whole.wav", codec)
        assert out.read_bytes() == (tmp_path / "whole.wav").read_bytes()
    assert run(["analyze", "--metric", "spectral-distance", "--durations", "1e300", "--in", str(wav)]) == 0
    assert capsys.readouterr().out.startswith("segment_ms,value\n1e+300,")
    # one whole-buffer segment has no interior boundary
    assert run(["analyze", "--metric", "boundary", "--durations", "1e300", "--in", str(wav)]) == 2
    assert "fewer than two" in capsys.readouterr().err


def test_featurize_with_a_filterbank_over_the_cap_is_data_error(tmp_path, wav, capsys):
    assert run(["featurize", "--dims", "1000000000", "--in", str(wav), "--out", str(tmp_path / "f.fbk")]) == 2
    assert "filterbank cells" in capsys.readouterr().err
    assert not (tmp_path / "f.fbk").exists()


@pytest.mark.parametrize("channels", [2, 9])
def test_ltr_opposite_infinities_print_only_the_error(tmp_path, channels):
    frames = np.zeros((4, channels), dtype="<f4")
    frames[1, 0], frames[1, 1] = np.inf, -np.inf  # they mix to NaN
    payload = frames.tobytes()
    fmt = struct.pack("<IHHIIHH", 16, 3, channels, 8000, 8000 * channels * 4, channels * 4, 32)
    body = b"fmt " + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    bad = tmp_path / "inf.wav"
    bad.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    # a child process, so a numpy warning would print to stderr as it does for a user
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "ltrkit.cli", "ltr", "--segment-ms", "20", "--in", str(bad), "--out", str(tmp_path / "o.wav")]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"error: {bad}: samples must be finite, 1 of 4 are not"]


def test_speed_command(tmp_path, wav):
    out = tmp_path / "fast.wav"
    assert run(["speed", "--factor", "1.1", "--in", str(wav), "--out", str(out)]) == 0
    assert len(read_wav(out)) == round(16000 / 1.1)


def test_featurize_and_specaug(tmp_path, wav):
    feat = tmp_path / "x.fbk"
    assert run(["featurize", "--in", str(wav), "--out", str(feat)]) == 0
    features = load_features(feat)
    assert features.dims == 80 and features.frames == 98
    assert abs(features.values.mean()) < 1e-5  # mvn applied by default

    raw = tmp_path / "raw.fbk"
    assert run(["featurize", "--in", str(wav), "--out", str(raw), "--no-mvn"]) == 0
    assert load_features(raw).values.mean() != pytest.approx(0.0, abs=1e-3)

    masked_a = tmp_path / "a.fbk"
    masked_b = tmp_path / "b.fbk"
    assert run(["specaug", "--seed", "7", "--in", str(feat), "--out", str(masked_a)]) == 0
    assert run(["specaug", "--seed", "7", "--in", str(feat), "--out", str(masked_b)]) == 0
    assert masked_a.read_bytes() == masked_b.read_bytes()


def test_specaug_on_non_finite_features_is_data_error(tmp_path, capsys):
    feat = tmp_path / "nan.fbk"
    write_matrix(np.array([[0.5, np.nan], [1.0, 2.0]]), feat, FEATURES_MAGIC)
    out = tmp_path / "out.fbk"
    assert run(["specaug", "--seed", "0", "--freq-masks", "0", "--time-masks", "0", "--in", str(feat), "--out", str(out)]) == 2
    assert f"{feat}: feature values must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_specaug_with_too_many_masks_is_data_error(tmp_path, capsys):
    feat = tmp_path / "x.fbk"
    write_matrix(np.ones((4, 3)), feat, FEATURES_MAGIC)
    out = tmp_path / "out.fbk"
    argv = ["specaug", "--seed", "1", "--freq-masks", "100000000000000000000", "--in", str(feat), "--out", str(out)]
    assert run(argv) == 2
    assert "mask counts must be at most 65536 per axis" in capsys.readouterr().err
    assert not out.exists()


def test_specaug_negative_seed_is_data_error(tmp_path, capsys):
    feat = tmp_path / "x.fbk"
    write_matrix(np.ones((4, 3)), feat, FEATURES_MAGIC)
    out = tmp_path / "out.fbk"
    assert run(["specaug", "--seed", "-1", "--in", str(feat), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


def test_cli_defaults_are_the_library_constants(tmp_path, capsys):
    from ltrkit.cli import build_parser
    from ltrkit.dataset import SET_DURATIONS_MS
    from ltrkit.perturb import DEFAULT_SPEED_FACTORS, SpecAugmentPolicy

    parser = build_parser()
    specaug = parser.parse_args(["specaug", "--seed", "0", "--in", "a", "--out", "b"])
    assert (specaug.freq_masks, specaug.freq_width, specaug.time_masks, specaug.time_fraction, specaug.seed) == (
        dataclasses.astuple(SpecAugmentPolicy())
    )
    speed = parser.parse_args(["build-speed-set", "--manifest", "m", "--out-dir", "d", "--out-manifest", "o"])
    assert speed.factors is DEFAULT_SPEED_FACTORS
    required = ["--manifest", "m", "--out-dir", str(tmp_path / "d"), "--out-manifest", "o"]
    for set_id in SET_DURATIONS_MS:
        assert parser.parse_args(["build-set", "--set", str(set_id), *required]).set_id == set_id
    assert run(["build-set", "--set", "6", *required]) == 1
    assert "argument --set: invalid choice: 6 (choose from 1, 2, 3, 4, 5)" in capsys.readouterr().err
    assert run(["build-set", "--help"]) == 0
    assert "--set {1..5}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--metric", "boundary", "--durations", "1e300"], "has fewer than two 1e+300 ms segments"),
        (["featurize", "--window-ms", "1e300", "--out", "x.fbk"], "is shorter than one 1e+300 ms window"),
    ],
)
def test_huge_durations_are_named_in_ms(tmp_path, wav, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--in", str(wav)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: buffer of 16000 samples {message}\n" and len(err) < 200


def test_analyze_boundary_csv(tmp_path, wav, capsys):
    assert run(["analyze", "--metric", "boundary", "--in", str(wav)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "segment_ms,value"
    assert len(lines) == 11
    assert [line.split(",")[0] for line in lines[1:]] == [str(d) for d in range(5, 55, 5)]
    for line in lines[1:]:
        float(line.split(",")[1])


def test_analyze_spectral_distance_to_file(tmp_path, wav):
    out = tmp_path / "sd.csv"
    assert run(["analyze", "--metric", "spectral-distance", "--in", str(wav), "--durations", "10,20", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "segment_ms,value"
    assert len(lines) == 3
    assert all(float(line.split(",")[1]) > 0 for line in lines[1:])


def test_build_set_rejects_set_six(tmp_path):
    assert run(["build-set", "--set", "6", "--manifest", "m.jsonl", "--out-dir", str(tmp_path), "--out-manifest", "o.jsonl"]) == 1


def test_build_set_pipeline(tmp_path, wav):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u0", str(wav), "hi there", 1.0)], manifest)
    out_manifest = tmp_path / "out.jsonl"
    code = run(["build-set", "--set", "2", "--manifest", str(manifest), "--out-dir", str(tmp_path / "aug"), "--out-manifest", str(out_manifest)])
    assert code == 0
    records = load_manifest(out_manifest)
    assert [r.utt_id for r in records] == ["u0", "u0-ltr15", "u0-ltr20"]


def test_build_set_bad_manifest_is_data_error(tmp_path, wav, capsys):
    manifest = tmp_path / "m.jsonl"
    record = '{"utt_id": "u", "audio_path": "%s", "text": "t", "duration_s": %s}\n'
    for content, message in [
        (b"{broken\n", "line 1: invalid JSON"),
        ((record % (wav, "NaN")).encode(), "line 1: duration_s of 'u' must be positive and finite, got nan"),
        ((record % (wav, '1.0, "augment": {"type": "ltr", "param": NaN}')).encode(), "line 1: augment param must be finite"),
        (b'{"utt_id": "\xff"}\n', "not UTF-8 text"),
    ]:
        manifest.write_bytes(content)
        code = run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "a"), "--out-manifest", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert f"{manifest}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("utt_id", ["../../x", "a/b", "a\0b"])
def test_build_set_utt_id_that_names_no_file_is_data_error(tmp_path, wav, capsys, utt_id):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord(utt_id, str(wav), "hi", 1.0)], manifest)
    before = sorted(tmp_path.rglob("*"))
    code = run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "D" / "o"),
                "--out-manifest", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: utt_id {utt_id!r} holds a path separator or NUL, so it cannot name a file\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_build_set_utt_id_too_long_for_a_file_name_is_data_error(tmp_path, wav, capsys):
    # the first utterance is fine; the second's "<id>-ltr5.wav" passes 255 bytes
    long_id = "u" * 300
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("short", str(wav), "hi", 1.0), ManifestRecord(long_id, str(wav), "hi", 1.0)], manifest)
    before = sorted(tmp_path.rglob("*"))
    code = run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "D"),
                "--out-manifest", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: utt_id {long_id!r} is too long to name the file {long_id}-ltr5.wav\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["build-set", "--set", "1", "--out-dir", "D", "--out-manifest", "o.jsonl", "--manifest"],
        ["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps"],
    ],
)
def test_deeply_nested_json_line_is_data_error(tmp_path, capsys, monkeypatch, argv):
    # json.loads raises RecursionError, not JSONDecodeError, on this line
    monkeypatch.chdir(tmp_path)
    lines = tmp_path / "in.jsonl"
    lines.write_text("[" * 200_000 + "\n", encoding="utf-8")
    assert run([*argv, str(lines)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {lines}: line 1: invalid JSON (nested too deeply)\n"
    assert sorted(tmp_path.iterdir()) == [lines]


_MANIFEST_ARGV = ["--out-dir", "D", "--out-manifest", "o.jsonl", "--manifest"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["build-set", "--set", "1", *_MANIFEST_ARGV], "utt_id"),
        (["build-set", "--set", "1", *_MANIFEST_ARGV], "text"),
        (["build-set", "--set", "1", *_MANIFEST_ARGV], "audio_path"),
        (["build-speed-set", *_MANIFEST_ARGV], "text"),
        (["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps"], "tokens"),
    ],
)
def test_a_lone_surrogate_in_a_json_line_is_data_error(tmp_path, wav, capsys, monkeypatch, argv, field):
    # json.loads turns the escape "\\ud800" into a str that UTF-8 cannot
    # encode; the line is rejected before any file is written
    monkeypatch.chdir(tmp_path)
    good = {"utt_id": "u", "audio_path": str(wav), "text": "t", "duration_s": 1.0}
    if field == "tokens":
        good = {"tokens": ["a"], "log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0}
    lines = tmp_path / "in.jsonl"
    lines.write_text(json.dumps({**good, field: ["a\ud800"] if field == "tokens" else "a\ud800"}) + "\n", encoding="utf-8")
    before = sorted(tmp_path.rglob("*"))
    assert run([*argv, str(lines)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {lines}: line 1: a string holds a lone surrogate '\\ud800', which UTF-8 cannot encode\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_build_set_out_dir_a_utf8_manifest_cannot_record_is_data_error(tmp_path, wav, capsys):
    # Python decodes the argument bytes b"o_\xff" as "o_\udcff"
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u", str(wav), "hi", 1.0)], manifest)
    before = sorted(tmp_path.rglob("*"))
    out_dir = str(tmp_path / "o_\udcff")
    assert run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", out_dir,
                "--out-manifest", str(tmp_path / "o.jsonl")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out_dir {out_dir!r} is not UTF-8 text, so a manifest cannot record its paths\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_build_set_nul_in_audio_path_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({"utt_id": "u", "audio_path": "a\0.wav", "text": "t", "duration_s": 1.0}) + "\n")
    code = run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "D"),
                "--out-manifest", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {manifest}: line 1: audio_path of 'u' holds a NUL character\n"
    assert sorted(tmp_path.iterdir()) == [manifest]


def test_build_speed_set_pipeline(tmp_path, wav):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u0", str(wav), "hi", 1.0)], manifest)
    out_manifest = tmp_path / "out.jsonl"
    code = run(["build-speed-set", "--manifest", str(manifest), "--out-dir", str(tmp_path / "sp"), "--out-manifest", str(out_manifest)])
    assert code == 0
    assert [r.utt_id for r in load_manifest(out_manifest)] == ["u0-sp0.9", "u0", "u0-sp1.1"]


def test_build_speed_set_repeated_factor_is_data_error(tmp_path, wav, capsys):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u", str(wav), "hi", 1.0)], manifest)
    out_manifest = tmp_path / "out.jsonl"
    code = run(["build-speed-set", "--factors", "1,1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "sp"),
                "--out-manifest", str(out_manifest)])
    assert code == 2
    assert "distinct" in capsys.readouterr().err
    assert not out_manifest.exists()


def test_parallelism_gives_identical_manifests(tmp_path, wav):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord(f"u{i}", str(wav), f"text {i}", 1.0) for i in range(5)], manifest)
    outs = []
    for workers, tag in (("1", "w1"), ("8", "w8")):
        out_manifest = tmp_path / f"{tag}.jsonl"
        assert run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / tag),
                    "--out-manifest", str(out_manifest), "--parallelism", workers]) == 0
        outs.append(out_manifest.read_text().replace(tag, "X"))
    assert outs[0] == outs[1]


def test_parallelism_defaults_to_one_whatever_the_environment(tmp_path, wav, monkeypatch):
    import ltrkit.cli as cli

    monkeypatch.setenv("LTRKIT_PARALLELISM", "3")
    argv = ["build-set", "--set", "1", "--manifest", str(tmp_path / "m.jsonl"), "--out-dir", str(tmp_path / "d"),
            "--out-manifest", str(tmp_path / "o.jsonl")]
    assert cli.build_parser().parse_args(argv).parallelism == 1
    save_manifest([ManifestRecord("u0", str(wav), "hi", 1.0)], tmp_path / "m.jsonl")
    seen = []
    monkeypatch.setattr(cli, "build_set", lambda records, aug, out_dir, parallelism: seen.append(parallelism) or [])
    assert run(argv) == 0
    assert seen == [1]


def test_verbose_applies_to_its_own_call_only(tmp_path, wav, monkeypatch):
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u0", str(wav), "hi", 1.0)], manifest)
    root, package = logging.getLogger(), logging.getLogger("ltrkit")
    elsewhere = io.StringIO()  # a handler the caller set up: it sees no per-file line
    monkeypatch.setattr(root, "handlers", [*root.handlers, logging.StreamHandler(elsewhere)])
    before = root.level, list(root.handlers), package.level, package.propagate
    for call, verbose in enumerate([True, False, True]):
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        out_dir, out_manifest = tmp_path / f"d{call}", tmp_path / f"o{call}.jsonl"
        argv = ["--verbose"] * verbose + ["build-set", "--set", "1", "--manifest", str(manifest),
                                          "--out-dir", str(out_dir), "--out-manifest", str(out_manifest)]
        assert run(argv) == 0
        rendered = [f"rendered {out_dir / name}" for name in ("u0-ltr5.wav", "u0-ltr10.wav")]
        assert err.getvalue().splitlines() == rendered * verbose + [f"wrote 3 records to {out_manifest}"]
        assert (root.level, list(root.handlers), package.level, package.propagate) == before
        assert package.handlers == []
    assert elsewhere.getvalue() == ""


def test_verbose_lines_come_in_input_order_at_any_parallelism(tmp_path, wav, monkeypatch, capsys):
    import ltrkit.dataset as dataset

    sources = [tmp_path / f"s{i}.wav" for i in range(3)]
    for source in sources:
        source.write_bytes(wav.read_bytes())
    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord(f"u{i}", str(source), "hi", 1.0) for i, source in enumerate(sources)], manifest)
    decode = dataset._decode

    def slow_first_decode(path):  # the first utterance finishes last at parallelism 2
        if path == str(sources[0]):
            time.sleep(0.3)
        seen.append(path)
        return decode(path)

    monkeypatch.setattr(dataset, "_decode", slow_first_decode)
    errs = []
    for workers in ("1", "2"):
        seen = []
        assert run(["--verbose", "build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "d"),
                    "--out-manifest", str(tmp_path / "o.jsonl"), "--parallelism", workers]) == 0
        errs.append(capsys.readouterr().err)
        assert sorted(seen) == [str(source) for source in sources], workers
    assert seen[-1] == str(sources[0])  # at parallelism 2 the slow decode ended last
    assert errs[1] == errs[0]
    assert errs[0].splitlines()[:2] == [f"rendered {tmp_path / 'd' / 'u0-ltr5.wav'}", f"rendered {tmp_path / 'd' / 'u0-ltr10.wav'}"]


def test_list_defaults_are_immutable():
    from ltrkit.cli import build_parser

    parser = build_parser()
    speed = parser.parse_args(["build-speed-set", "--manifest", "m", "--out-dir", "d", "--out-manifest", "o"])
    analyze = parser.parse_args(["analyze", "--metric", "boundary", "--in", "a.wav"])
    assert isinstance(speed.factors, tuple) and isinstance(analyze.durations, tuple)


def test_score_ctc_matches_library(tmp_path, capsys):
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.1, 1, size=(5, 3))
    grid = PosteriorGrid(probs / probs.sum(1, keepdims=True))
    path = tmp_path / "g.pst"
    save_grid(grid, path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b", "--tokens", "a b"]) == 0
    printed = float(capsys.readouterr().out.strip())
    from ltrkit.scoring import load_grid

    assert printed == pytest.approx(ctc_loss(load_grid(path), (0, 1)), rel=1e-9)


def test_score_ctc_of_a_sure_target_prints_zero_not_minus_zero(tmp_path, capsys):
    path = tmp_path / "g.pst"
    save_grid(PosteriorGrid([[0.0, 1.0]]), path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a", "--tokens", ""]) == 0
    assert capsys.readouterr().out == "0\n"


def test_score_ctc_unknown_label_is_data_error(tmp_path, capsys):
    grid = PosteriorGrid(np.full((2, 3), 1 / 3))
    path = tmp_path / "g.pst"
    save_grid(grid, path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b", "--tokens", "z"]) == 2


def test_score_ctc_vocabulary_width_mismatch_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.pst"
    save_grid(PosteriorGrid(np.full((2, 3), 1 / 3)), path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b c", "--tokens", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grid has 2 token columns but the vocabulary has 3\n"


def test_score_ctc_nan_grid_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.pst"
    write_matrix(np.array([[0.5, 0.25, 0.25], [np.nan, 0.5, 0.5]]), path, POSTERIORS_MAGIC)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b", "--tokens", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {path}: grid entries must be finite and lie in [0, 1]\n"


def test_score_ctc_signaling_nan_grid_prints_only_the_error(tmp_path):
    path = tmp_path / "snan.pst"
    path.write_bytes(POSTERIORS_MAGIC + np.array([1, 2, 0x3F800000, 0x7F800001], dtype="<u4").tobytes())
    # a child process, so a numpy warning would print to stderr as it does for a user
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = [sys.executable, "-m", "ltrkit.cli", "score", "ctc", "--grid", str(path), "--vocab", "a", "--tokens", "a"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.splitlines() == [f"error: {path}: grid entries must be finite and lie in [0, 1]"]


def test_score_fuse(tmp_path, capsys):
    hyps = tmp_path / "h.jsonl"
    lines = [
        {"tokens": [0, 1], "log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0},
        {"tokens": [1], "log_p_ctc": -0.5, "log_p_att": -0.4, "log_p_lm": -9.0},
    ]
    hyps.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", str(hyps)]) == 0
    best = json.loads(capsys.readouterr().out)
    # by hand: h0 = .5(-1)+.5(-2)+.3(-3) = -2.4 ; h1 = .5(-.5)+.5(-.4)+.3(-9) = -3.15
    assert best["tokens"] == [0, 1]
    assert best["fused_score"] == pytest.approx(-2.4, rel=1e-12)


def test_score_fuse_unorderable_tie_is_data_error(tmp_path, capsys):
    hyps = tmp_path / "h.jsonl"
    line = {"log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0}
    hyps.write_text(json.dumps({"tokens": ["a"], **line}) + "\n" + json.dumps({"tokens": [1], **line}) + "\n", encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", str(hyps)]) == 2
    assert "positions 0 and 1" in capsys.readouterr().err


def test_score_fuse_nan_score_is_data_error(tmp_path, capsys):
    hyps = tmp_path / "h.jsonl"
    lines = [
        {"tokens": [1], "log_p_ctc": -0.5, "log_p_att": -0.4, "log_p_lm": -9.0},
        {"tokens": [0], "log_p_ctc": math.nan, "log_p_att": -2.0, "log_p_lm": -3.0},
    ]
    hyps.write_text("\n".join(json.dumps(o) for o in lines) + "\n", encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", str(hyps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{hyps}: line 2: log_p_ctc must be a log-probability below +inf, got nan" in captured.err


def test_score_fuse_bad_line_is_data_error(tmp_path, capsys):
    hyps = tmp_path / "h.jsonl"
    hyps.write_text('{"tokens": [0]}\n', encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.0", "--hyps", str(hyps)]) == 2
    hyps.write_bytes(b'{"tokens": ["\xff"]}\n')
    capsys.readouterr()
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.0", "--hyps", str(hyps)]) == 2
    assert f"{hyps}: not UTF-8 text" in capsys.readouterr().err
    hyps.write_text('{"tokens": [0], "log_p_ctc": -1.0, "log_p_att": -2.0, "log_p_lm": -3.0}\n', encoding="utf-8")
    for beta in ("nan", "inf"):  # before, inf printed "fused_score": -Infinity
        assert run(["score", "fuse", "--alpha", "0.5", "--beta", beta, "--hyps", str(hyps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"lm_weight must be finite and non-negative, got {beta}" in captured.err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tokens", "abc", "tokens must be a JSON list, got str"),
        ("tokens", {"x": 1}, "tokens must be a JSON list, got dict"),
        ("log_p_ctc", "1.5", "log_p_ctc must be a JSON number, got str"),
        ("log_p_att", True, "log_p_att must be a JSON number, got bool"),
        ("log_p_lm", None, "log_p_lm must be a JSON number, got NoneType"),
    ],
)
def test_score_fuse_mistyped_field_is_data_error(tmp_path, capsys, field, value, message):
    good = {"tokens": ["a"], "log_p_ctc": -1.0, "log_p_att": -2, "log_p_lm": -math.inf}
    hyps = tmp_path / "h.jsonl"
    hyps.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n", encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", str(hyps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {hyps}: line 2: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"tokens": [NaN, Infinity], "log_p_ctc": -1, "log_p_att": -2, "log_p_lm": -3}',
         "tokens must not hold NaN or an infinity"),
        ('{"tokens": [[1, -Infinity]], "log_p_ctc": -1, "log_p_att": -2, "log_p_lm": -3}',
         "tokens must not hold NaN or an infinity"),
        ('{"log_p_ctc": -1, "log_p_att": -2, "log_p_lm": -3}', "missing required field 'tokens'"),
        ('"tokens"', "expected a JSON object"),
        ("null", "expected a JSON object"),
        ("[1, 2]", "expected a JSON object"),
        ("{broken", "invalid JSON (Expecting property name enclosed in double quotes)"),
    ],
)
def test_score_fuse_bad_line_says_what_the_manifest_reader_says(tmp_path, capsys, line, message):
    hyps = tmp_path / "h.jsonl"
    hyps.write_text(line + "\n", encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.3", "--hyps", str(hyps)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {hyps}: line 1: {message}\n"


def test_wer_command(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("the cat sat on the mat (u1)\nhello world (u2)\n", encoding="utf-8")
    hyp.write_text("the cat sat on that mat (u1)\nhello word (u2)\n", encoding="utf-8")
    json_out = tmp_path / "report.json"
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp), "--unit", "word", "--confusions", "2", "--json-out", str(json_out)]) == 0
    out = capsys.readouterr().out
    assert "error rate: 25.00%" in out  # 2 errors / 8 ref words
    assert "the -> that" in out
    report = json.loads(json_out.read_text())
    assert report["error_rate"] == pytest.approx(0.25)
    assert report["substitutions"] == 2
    assert ["the", "that", 1] in report["confusions"]


def test_wer_stdout_is_pinned(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("the cat sat on the mat (u1)\nhello world (u2)\n", encoding="utf-8")
    hyp.write_text("the cat sat on that mat (u1)\nhello word (u2)\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp), "--confusions", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "word error rate: 25.00%  (2 errors / 8 ref tokens, 2 utterances)",
        "S=2 I=0 D=0 H=6",
        "top substitutions:",
        "  the -> that  1",
        "  world -> word  1",
    ]


def test_wer_writes_its_json_before_printing(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("a b (u1)\n", encoding="utf-8")
    hyp.write_text("a c (u1)\n", encoding="utf-8")
    json_out = tmp_path / "nodir" / "r.json"
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp), "--json-out", str(json_out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(json_out) in captured.err


def test_wer_empty_reference_file_is_data_error(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    ref.write_text("\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(ref)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {ref}: no utterances\n"


def test_wer_mismatched_ids_is_data_error(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("a (u1)\n", encoding="utf-8")
    hyp.write_text("a (u2)\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp)]) == 2
    err = capsys.readouterr().err
    assert "u1" in err and "u2" in err
    hyp.write_bytes(b"\xff (u1)\n")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp)]) == 2
    assert f"{hyp}: not UTF-8 text" in capsys.readouterr().err


def test_bug_in_a_subcommand_is_not_a_data_error(tmp_path, monkeypatch):
    import ltrkit.cli as cli
    import ltrkit.metrics as metrics

    assert cli._DATA_ERRORS == (DataError, OSError)
    trn = tmp_path / "r.trn"
    trn.write_text("a (u1)\n", encoding="utf-8")
    for bug in (KeyError("u1"), ValueError("plain ValueError")):
        def broken(pairs, bug=bug):
            raise bug

        monkeypatch.setattr(metrics, "corpus_report", broken)
        with pytest.raises(type(bug)) as caught:
            run(["wer", "--ref", str(trn), "--hyp", str(trn)])
        assert caught.value is bug


def test_wer_empty_reference_names_utterance(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("a b (u1)\n(u2)\n", encoding="utf-8")
    hyp.write_text("a b (u1)\nc (u2)\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "'u2'" in captured.err and "empty reference" in captured.err


def test_wer_json_equals_pooled_per_pair_align(tmp_path):
    rng = np.random.default_rng(11)
    refs, hyps = [], []
    for k in range(12):
        ref_words = list(rng.choice(list("abcde"), size=rng.integers(1, 15)))
        hyp_words = [w for w in ref_words if rng.random() > 0.2] + list(rng.choice(list("abx"), size=rng.integers(0, 3)))
        rng.shuffle(hyp_words)
        refs.append((f"u{k}", ref_words))
        hyps.append((f"u{k}", hyp_words))
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("".join(f"{' '.join(words)} ({utt})\n" for utt, words in refs), encoding="utf-8")
    hyp.write_text("".join(f"{' '.join(words)} ({utt})\n" for utt, words in hyps), encoding="utf-8")
    json_out = tmp_path / "report.json"
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp), "--confusions", "100", "--json-out", str(json_out)]) == 0
    report = json.loads(json_out.read_text())

    reports = [align(r, h) for (_, r), (_, h) in zip(refs, hyps)]
    for key in ("substitutions", "insertions", "deletions", "hits", "ref_len"):
        assert report[key] == sum(getattr(r, key) for r in reports)
    assert report["utterances"] == 12
    assert report["error_rate"] == sum(r.total_errors for r in reports) / sum(r.ref_len for r in reports)
    assert report["confusions"] == [[a, b, n] for (a, b), n in top_confusions(reports, 100)]


def test_wer_char_unit(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("你好 吗 (u1)\n", encoding="utf-8")
    hyp.write_text("你好 吧 (u1)\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp), "--unit", "char"]) == 0
    assert "33.33%" in capsys.readouterr().out  # 1 of 3 characters


def test_infeasible_ctc_prints_inf_not_crash(tmp_path, capsys):
    grid = PosteriorGrid(np.full((1, 2), 0.5))
    path = tmp_path / "g.pst"
    save_grid(grid, path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a", "--tokens", "a a"]) == 0
    assert math.isinf(float(capsys.readouterr().out))
