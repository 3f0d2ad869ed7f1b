import json
import math

import numpy as np
import pytest

from ltrkit import __version__
from ltrkit.audio_io import AudioBuffer, read_wav, write_wav
from ltrkit.cli import run
from ltrkit.dataset import load_manifest, save_manifest, ManifestRecord
from ltrkit.features import load_features
from ltrkit.ltr import LtrConfig, reverse_segments
from ltrkit.matrix_io import POSTERIORS_MAGIC, write_matrix
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


def test_nonpositive_segment_is_usage_error():
    assert run(["ltr", "--segment-ms", "0", "--in", "a.wav", "--out", "b.wav"]) == 1


def test_ltr_roundtrip(tmp_path, wav):
    out = tmp_path / "out.wav"
    assert run(["ltr", "--segment-ms", "20", "--in", str(wav), "--out", str(out)]) == 0
    rendered = read_wav(out)
    source = read_wav(wav)
    assert len(rendered) == len(source)
    expected = reverse_segments(source, LtrConfig(20.0))
    assert np.array_equal(rendered.samples, expected.samples)


def test_ltr_missing_input_is_data_error(tmp_path, capsys):
    assert run(["ltr", "--segment-ms", "20", "--in", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "o.wav")]) == 2
    assert "error" in capsys.readouterr().err


def test_ltr_malformed_wav_is_data_error(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    assert run(["ltr", "--segment-ms", "20", "--in", str(bad), "--out", str(tmp_path / "o.wav")]) == 2


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


def test_build_set_bad_manifest_is_data_error(tmp_path, capsys):
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("{broken\n", encoding="utf-8")
    code = run(["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "a"), "--out-manifest", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


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


def test_parallelism_env_default(tmp_path, wav, monkeypatch):
    monkeypatch.setenv("LTRKIT_PARALLELISM", "3")
    from ltrkit.cli import build_parser

    args = build_parser().parse_args(["build-set", "--set", "1", "--manifest", "m", "--out-dir", "d", "--out-manifest", "o"])
    assert args.parallelism == 3


def test_run_reads_parallelism_env_on_every_call(tmp_path, wav, monkeypatch):
    import ltrkit.cli as cli

    manifest = tmp_path / "m.jsonl"
    save_manifest([ManifestRecord("u0", str(wav), "hi", 1.0)], manifest)
    seen = []
    monkeypatch.setattr(cli, "build_set", lambda records, aug, out_dir, parallelism: seen.append(parallelism) or [])
    argv = ["build-set", "--set", "1", "--manifest", str(manifest), "--out-dir", str(tmp_path / "d"),
            "--out-manifest", str(tmp_path / "o.jsonl")]
    for value in ("2", "5", "2"):
        monkeypatch.setenv("LTRKIT_PARALLELISM", value)
        assert run(argv) == 0
    monkeypatch.delenv("LTRKIT_PARALLELISM")
    assert run(argv) == 0
    assert seen == [2, 5, 2, 1]


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


def test_score_ctc_unknown_label_is_data_error(tmp_path, capsys):
    grid = PosteriorGrid(np.full((2, 3), 1 / 3))
    path = tmp_path / "g.pst"
    save_grid(grid, path)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b", "--tokens", "z"]) == 2


def test_score_ctc_nan_grid_is_data_error(tmp_path, capsys):
    path = tmp_path / "g.pst"
    write_matrix(np.array([[0.5, 0.25, 0.25], [np.nan, 0.5, 0.5]]), path, POSTERIORS_MAGIC)
    assert run(["score", "ctc", "--grid", str(path), "--vocab", "a b", "--tokens", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


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
    assert captured.out == "" and "position 1 has a NaN" in captured.err


def test_score_fuse_bad_line_is_data_error(tmp_path):
    hyps = tmp_path / "h.jsonl"
    hyps.write_text('{"tokens": [0]}\n', encoding="utf-8")
    assert run(["score", "fuse", "--alpha", "0.5", "--beta", "0.0", "--hyps", str(hyps)]) == 2


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


def test_wer_mismatched_ids_is_data_error(tmp_path, capsys):
    ref = tmp_path / "ref.trn"
    hyp = tmp_path / "hyp.trn"
    ref.write_text("a (u1)\n", encoding="utf-8")
    hyp.write_text("a (u2)\n", encoding="utf-8")
    assert run(["wer", "--ref", str(ref), "--hyp", str(hyp)]) == 2
    err = capsys.readouterr().err
    assert "u1" in err and "u2" in err


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
