import dataclasses
import functools
import gc
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ltrkit.audio_io import AudioBuffer, read_wav, write_wav
from ltrkit.dataset import (
    SET_DURATIONS_MS,
    AugmentTag,
    ManifestError,
    ManifestRecord,
    build_set,
    build_speed_set,
    load_manifest,
    save_manifest,
)
from ltrkit.errors import DataError


def write_corpus(tmp_path, count=3, rate=16000, seed=0):
    """A tiny synthetic corpus plus its manifest records."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(count):
        n = int(rng.integers(800, 4000))
        path = tmp_path / f"utt{i}.wav"
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, n), rate), path, "float32")
        records.append(ManifestRecord(f"utt{i}", str(path), f"transcript {i}", n / rate))
    return records


# ---------------------------------------------------------------- manifest io


def test_set_durations_mapping(tmp_path):
    assert SET_DURATIONS_MS == {1: (5.0, 10.0), 2: (15.0, 20.0), 3: (25.0, 30.0), 4: (35.0, 40.0), 5: (45.0, 50.0)}
    with pytest.raises(ValueError, match="1..5"):
        build_set([], 6, tmp_path / "d")
    with pytest.raises(DataError, match=r"1\.\.5, got '1'$"):  # not "got 1", which reads as a valid id refused
        build_set([], "1", tmp_path / "d")
    assert not (tmp_path / "d").exists()


def test_load_empty_manifest(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_manifest(path) == []


def test_manifest_round_trip_with_unicode(tmp_path):
    records = [
        ManifestRecord("u1", "/x/u1.wav", "你好 吗", 1.5),
        ManifestRecord("u2", "/x/u2.wav", "hello", 2.0, AugmentTag("ltr", 15.0)),
    ]
    path = tmp_path / "m.jsonl"
    save_manifest(records, path)
    assert "你好" in path.read_text(encoding="utf-8")  # not ascii-escaped
    assert load_manifest(path) == records

    # A record forced past validation is refused, not written as a bare NaN token.
    object.__setattr__(records[1], "duration_s", math.nan)
    with pytest.raises(ValueError, match="JSON compliant"):
        save_manifest(records, path)


@pytest.mark.parametrize("field", ["utt_id", "audio_path", "text"])
def test_a_record_takes_only_strings_so_what_it_accepts_round_trips(tmp_path, field):
    fields = {"utt_id": "u", "audio_path": "a.wav", "text": "t", "duration_s": 1.0}
    for value, kind in ((5, "int"), (None, "NoneType"), (b"u", "bytes")):
        with pytest.raises(DataError, match=f"^{field} must be a JSON string, got {kind}$"):
            ManifestRecord(**{**fields, field: value})
    record = ManifestRecord(**fields)
    save_manifest([record], tmp_path / "m.jsonl")
    assert load_manifest(tmp_path / "m.jsonl") == [record]


def test_integer_numbers_are_written_back_as_floats(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 2, "augment": {"type": "ltr", "param": 5}}\n')
    save_manifest(load_manifest(path), path)
    assert '"duration_s": 2.0, "augment": {"type": "ltr", "param": 5.0}}' in path.read_text(encoding="utf-8")


def test_duplicate_id_error_names_the_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    line = json.dumps({"utt_id": "u7", "audio_path": "a.wav", "text": "t", "duration_s": 1.0})
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="u7"):
        load_manifest(path)


def test_missing_field_error_names_field_and_line(tmp_path):
    path = tmp_path / "miss.jsonl"
    good = json.dumps({"utt_id": "u1", "audio_path": "a.wav", "text": "t", "duration_s": 1.0})
    bad = json.dumps({"utt_id": "u2", "audio_path": "a.wav", "duration_s": 1.0})
    path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2.*'text'"):
        load_manifest(path)


def test_malformed_json_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"utt_id": "u1", "audio_path": "a", "text": "t", "duration_s": 1.0}\n{oops\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(path)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"utt_id": "", "audio_path": "a", "text": "t", "duration_s": 1.0}, "non-empty"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": -1.0}, "positive"),
        ({"utt_id": "u", "audio_path": "a", "text": 5, "duration_s": 1.0}, "text must be a JSON string, got int"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "echo", "param": 1}}, "augment type"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "ltr"}}, "param"),
        # json.dumps writes the bare tokens NaN and Infinity, which json.loads accepts
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": math.nan}, "positive and finite"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": math.inf}, "positive and finite"),
        ('{"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1e400}', "positive and finite"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 10**400}, "too large"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "ltr", "param": math.nan}}, "finite"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "ltr", "param": -math.inf}}, "finite"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "speed", "param": 10**400}}, "too large"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "ltr", "param": "5"}}, "augment param must be a JSON number, got str"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "ltr", "param": "1e1"}}, "augment param must be a JSON number, got str"),
        ({"utt_id": "u", "audio_path": "a", "text": "t", "duration_s": 1.0, "augment": {"type": "speed", "param": True}}, "augment param must be a JSON number, got bool"),
    ],
)
def test_record_validation(tmp_path, obj, message):
    path = tmp_path / "v.jsonl"
    path.write_text((obj if isinstance(obj, str) else json.dumps(obj)) + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=f"{re.escape(str(path))}: line 1: .*{message}"):
        load_manifest(path)


# ---------------------------------------------------------------- build_set


def test_build_set_triples_the_corpus(tmp_path):
    records = write_corpus(tmp_path, count=3)
    out = build_set(records, 2, tmp_path / "aug")
    assert len(out) == 3 * len(records)

    by_id = {r.utt_id: r for r in out}
    assert set(by_id) == {f"utt{i}" for i in range(3)} | {f"utt{i}-ltr{d}" for i in range(3) for d in (15, 20)}
    for i in range(3):
        original = by_id[f"utt{i}"]
        assert original == records[i]  # originals pass through untouched
        for d in (15.0, 20.0):
            derived = by_id[f"utt{i}-ltr{d:g}"]
            assert derived.text == original.text
            assert derived.duration_s == original.duration_s
            assert derived.augment == AugmentTag("ltr", d)
            assert len(read_wav(derived.audio_path)) == len(read_wav(original.audio_path))

    # transcripts tripled as a multiset
    source_texts = sorted(r.text for r in records) * 3
    assert sorted(r.text for r in out) == sorted(source_texts)


def test_build_set_five_uses_45_and_50(tmp_path):
    records = write_corpus(tmp_path, count=1)
    out = build_set(records, 5, tmp_path / "aug")
    assert [r.utt_id for r in out] == ["utt0", "utt0-ltr45", "utt0-ltr50"]


def test_build_set_empty_manifest(tmp_path):
    assert build_set([], 1, tmp_path / "aug") == []


def test_build_set_rendered_audio_is_the_ltr_rendering(tmp_path):
    from ltrkit.ltr import reverse_segments

    records = write_corpus(tmp_path, count=1)
    out = build_set(records, 1, tmp_path / "aug")
    source = read_wav(records[0].audio_path)
    expected = reverse_segments(source, 5.0)
    rendered = read_wav(out[1].audio_path)
    assert np.array_equal(rendered.samples, expected.samples.astype(np.float32).astype(np.float64))


def test_build_set_detects_id_collision(tmp_path):
    records = write_corpus(tmp_path, count=1)
    clash = ManifestRecord("utt0-ltr5", records[0].audio_path, "x", 1.0)
    with pytest.raises(ValueError, match="collides"):
        build_set(records + [clash], 1, tmp_path / "aug")


@pytest.mark.parametrize("utt_id", ["../../x", "a/b", "a\0b"])
def test_builders_reject_an_utt_id_that_names_no_file_in_out_dir(tmp_path, utt_id):
    source = write_corpus(tmp_path, count=1)[0]
    record = ManifestRecord(utt_id, source.audio_path, source.text, source.duration_s)
    before = sorted(tmp_path.rglob("*"))
    for build in (lambda out: build_set([record], 1, out), lambda out: build_speed_set([record], [0.9], out)):
        with pytest.raises(DataError, match=re.escape(f"utt_id {utt_id!r} holds a path separator or NUL")):
            build(tmp_path / "d" / "o")
        assert sorted(tmp_path.rglob("*")) == before
    # factor 1.0 renders nothing, so it names no file
    assert build_speed_set([record], [1.0], tmp_path / "d") == [dataclasses.replace(record, augment=AugmentTag("speed", 1.0))]


def test_build_set_unreadable_audio(tmp_path):
    record = ManifestRecord("ghost", str(tmp_path / "missing.wav"), "t", 1.0)
    with pytest.raises(OSError):
        build_set([record], 1, tmp_path / "aug")


def test_build_set_deterministic_and_parallel_invariant(tmp_path):
    records = write_corpus(tmp_path, count=4)
    out_a = build_set(records, 3, tmp_path / "a", parallelism=1)
    out_b = build_set(records, 3, tmp_path / "b", parallelism=4)
    assert [r.utt_id for r in out_a] == [r.utt_id for r in out_b]
    for ra, rb in zip(out_a, out_b):
        if ra.augment is not None:
            assert Path(ra.audio_path).read_bytes() == Path(rb.audio_path).read_bytes()


@pytest.mark.parametrize("parallelism", [0, -2, 2.5, "3", None, 1.0])
@pytest.mark.parametrize("build", [functools.partial(build_set, set_id=1), build_speed_set], ids=["set", "speed_set"])
def test_builders_reject_a_parallelism_that_is_not_an_integer_of_at_least_one(tmp_path, build, parallelism):
    records = write_corpus(tmp_path, count=2)
    with pytest.raises(DataError, match=f"parallelism must be an integer >= 1, got {re.escape(repr(parallelism))}$"):
        build(records, out_dir=tmp_path / "out", parallelism=parallelism)
    assert not (tmp_path / "out").exists()


def test_build_set_frees_each_utterance_before_the_next(tmp_path, traced_peak):
    # With the cyclic collector off, audio kept alive by a reference cycle
    # would pile up across utterances; each must be freed by refcount alone.
    rng = np.random.default_rng(1)
    records = []
    for i in range(10):
        path = tmp_path / f"utt{i}.wav"
        write_wav(AudioBuffer(rng.uniform(-0.9, 0.9, 32000), 16000), path, "float32")  # 2 s
        records.append(ManifestRecord(f"utt{i}", str(path), "t", 2.0))

    enabled = gc.isenabled()
    gc.disable()
    try:
        _, one = traced_peak(build_set, records[:1], 2, tmp_path / "one")
        _, ten = traced_peak(build_set, records, 2, tmp_path / "ten")
    finally:
        if enabled:
            gc.enable()
    assert one >= 32000 * 8  # the decoded source at least
    assert ten <= 1.5 * one, (one, ten)


# ---------------------------------------------------------------- speed set


def test_build_speed_set_default_factors(tmp_path):
    records = write_corpus(tmp_path, count=2)
    out = build_speed_set(records, out_dir=tmp_path / "sp")
    assert len(out) == 6
    first = out[:3]
    assert [r.utt_id for r in first] == ["utt0-sp0.9", "utt0", "utt0-sp1.1"]
    assert all(r.augment is not None and r.augment.type == "speed" for r in out)

    unchanged = first[1]
    assert unchanged.audio_path == records[0].audio_path  # factor 1.0 aliases the source
    assert unchanged.augment == AugmentTag("speed", 1.0)

    slowed = first[0]
    assert slowed.duration_s == pytest.approx(records[0].duration_s / 0.9, abs=1e-9)
    assert len(read_wav(slowed.audio_path)) == round(len(read_wav(records[0].audio_path)) / 0.9)


def test_build_speed_set_duration_example(tmp_path):
    records = write_corpus(tmp_path, count=1)
    ten_s = ManifestRecord(records[0].utt_id, records[0].audio_path, records[0].text, 10.0)
    out = build_speed_set([ten_s], out_dir=tmp_path / "sp")
    slowed = next(r for r in out if r.augment.param == 0.9)
    assert slowed.duration_s == pytest.approx(10.0 / 0.9, abs=1e-3)


def test_build_speed_set_identity_factors(tmp_path):
    records = write_corpus(tmp_path, count=2)
    out = build_speed_set(records, factors=[1.0], out_dir=tmp_path / "sp")
    assert [r.utt_id for r in out] == [r.utt_id for r in records]
    assert [r.audio_path for r in out] == [r.audio_path for r in records]
    assert all(r.augment == AugmentTag("speed", 1.0) for r in out)


def test_build_speed_set_validates_factors(tmp_path):
    with pytest.raises(ValueError):
        build_speed_set([], factors=[], out_dir=tmp_path)
    with pytest.raises(ValueError):
        build_speed_set([], factors=[0.9, -1.0], out_dir=tmp_path)
    records = write_corpus(tmp_path, count=1)
    for factors, message in (([0.9, float("nan")], "positive and finite"), ([0.9, 0.001], "at least 0.01")):
        with pytest.raises(DataError, match=message):
            build_speed_set(records, factors=factors, out_dir=tmp_path / "sp")
        assert not (tmp_path / "sp").exists()  # rejected before the first write


def test_build_speed_set_rejects_repeated_factors(tmp_path):
    records = write_corpus(tmp_path, count=1)
    for factors in ([1.0, 1.0], [0.9, 1.1, 0.9]):
        with pytest.raises(ValueError, match="distinct"):
            build_speed_set(records, factors=factors, out_dir=tmp_path / "sp")


def test_build_speed_set_holds_only_the_source_and_one_payload(tmp_path, traced_peak):
    # each copy is resampled block by block straight into its float32
    # payload: no float64 copy of the output is made, and the 0.9 copy's
    # payload is freed before the 1.1 copy's is made
    path = tmp_path / "u.wav"
    write_wav(AudioBuffer(np.random.default_rng(2).uniform(-0.9, 0.9, 640_000), 16000), path, "float32")  # 40 s
    records = [ManifestRecord("u", str(path), "t", 40.0)]
    build_speed_set(records, out_dir=tmp_path / "warm")
    _, peak = traced_peak(build_speed_set, records, out_dir=tmp_path / "sp")
    buffer, payload = 640_000 * 8, round(640_000 / 0.9) * 4
    assert peak <= buffer + payload + 2**20, peak / 2**20


def test_build_speed_set_decodes_pcm16_to_float32_alone(tmp_path, traced_peak):
    # a mono PCM-16 source is decoded once, to float32, and resampled from
    # there; a float64 decode took this build's peak to 12.1 MiB
    n = 60 * 16000
    path = tmp_path / "u.wav"
    write_wav(AudioBuffer(np.random.default_rng(3).uniform(-0.9, 0.9, n), 16000), path, "pcm16")  # 60 s
    records = [ManifestRecord("u", str(path), "t", 60.0)]
    build_speed_set(records, (0.9,), tmp_path / "warm", 1)
    _, peak = traced_peak(build_speed_set, records, (0.9,), tmp_path / "sp", 1)
    decode, payload = n * 4, round(n / 0.9) * 4
    assert peak <= decode + payload + 2**20, peak / 2**20


def test_build_rejects_an_id_whose_file_name_passes_255_bytes(tmp_path):
    source = write_corpus(tmp_path, count=1)[0]
    # "<id>-sp0.9.wav" fills 255 bytes with a 245-byte id; "é" is two bytes in
    # UTF-8, and the temp file's name is cut to fit
    for utt_id, fits in (("a" + "é" * 122, True), ("é" * 123, False)):
        record = dataclasses.replace(source, utt_id=utt_id)
        out_dir = tmp_path / f"sp{fits}"
        if fits:
            assert [r.utt_id for r in build_speed_set([record], out_dir=out_dir)] == [f"{utt_id}-sp0.9", utt_id, f"{utt_id}-sp1.1"]
            continue
        with pytest.raises(DataError, match=f"utt_id '{utt_id}' is too long to name the file {utt_id}-sp0.9.wav"):
            build_speed_set([record], out_dir=out_dir)
        assert not out_dir.exists()


def test_build_speed_set_identity_only_reads_no_audio(tmp_path):
    record = ManifestRecord("ghost", str(tmp_path / "missing.wav"), "t", 1.0)
    assert build_speed_set([record], factors=[1.0], out_dir=tmp_path / "sp") == [
        ManifestRecord("ghost", record.audio_path, "t", 1.0, AugmentTag("speed", 1.0))
    ]
