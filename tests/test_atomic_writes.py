"""WAV files, manifests and ``analyze`` CSVs go through one atomic writer: a
failure leaves the old file or none, and no temp file; the writer keeps what
``open(path, "wb")`` does with modes, symlinks and pipes. FBK1/PST1 files and
``wer`` JSON are written in place by the same module, and a cut one is
rejected on read. Arrays are adopted, never shared."""

import ast
import json
import os
import stat
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

from ltrkit import _atomic
from ltrkit.audio_io import AudioBuffer, read_wav, write_wav
from ltrkit.cli import run
from ltrkit.dataset import ManifestRecord, save_manifest
from ltrkit.errors import DataError
from ltrkit.features import FeatureMatrix, fbank, load_features, mvn, save_features
from ltrkit.ltr import reverse_segments
from ltrkit.matrix_io import FEATURES_MAGIC, POSTERIORS_MAGIC, MatrixFormatError, read_matrix, write_matrix
from ltrkit.perturb import SpecAugmentPolicy, spec_augment, speed_perturb
from ltrkit.scoring import PosteriorGrid, _as_grid, load_grid, save_grid


class _DiskFullAfter:
    """Stands in for ``os`` in the writer: the first write stores a few bytes,
    then the disk is full."""

    def __getattr__(self, name):
        return getattr(os, name)

    def write(self, fd, data):
        os.write(fd, bytes(data[:5]))
        raise OSError(28, "No space left on device")


def _trn(path, lines):
    path.write_text("".join(f"{text} ({utt})\n" for utt, text in lines), encoding="utf-8")


def _writers(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 4000), 8000), wav)
    record = ManifestRecord("u1", "a.wav", "a b c", 1.5)
    return {
        "write_wav": lambda out: write_wav(AudioBuffer([0.25] * 50, 8000), out, "pcm16"),
        "save_manifest": lambda out: save_manifest([record], out),
        "analyze --out": lambda out: run(["analyze", "--metric", "boundary", "--in", str(wav), "--out", str(out)]),
    }


ATOMIC_WRITERS = ["write_wav", "save_manifest", "analyze --out"]


@pytest.mark.parametrize("writer", ATOMIC_WRITERS)
@pytest.mark.parametrize("old", [None, b"the old content"])
def test_a_writer_failing_midway_leaves_the_old_file_or_none(tmp_path, monkeypatch, capsys, writer, old):
    write = _writers(tmp_path)[writer]
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "target"
    if old is not None:
        target.write_bytes(old)
    monkeypatch.setattr(_atomic, "os", _DiskFullAfter())
    if writer.startswith("analyze"):
        assert write(target) == 2  # an OSError is a data error
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(OSError, match="No space left"):
            write(target)
    assert os.listdir(out_dir) == ([] if old is None else ["target"])
    if old is not None:
        assert target.read_bytes() == old


IN_PLACE_WRITERS = ["write_matrix", "save_features", "save_grid", "wer --json-out"]


@pytest.mark.parametrize("writer", IN_PLACE_WRITERS)
def test_an_in_place_writer_failing_midway_leaves_a_cut_file_a_reader_rejects(tmp_path, monkeypatch, capsys, writer):
    _trn(tmp_path / "ref.trn", [("u1", "a b c")])
    _trn(tmp_path / "hyp.trn", [("u1", "a x c")])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "target"
    target.write_bytes(b"the old content")
    write = {
        "write_matrix": lambda: write_matrix(np.full((3, 4), 0.25), target, POSTERIORS_MAGIC),
        "save_features": lambda: save_features(FeatureMatrix(np.ones((3, 4))), target),
        "save_grid": lambda: save_grid(PosteriorGrid(np.full((3, 4), 0.25)), target),
        "wer --json-out": lambda: run(["wer", "--ref", str(tmp_path / "ref.trn"), "--hyp", str(tmp_path / "hyp.trn"),
                                       "--json-out", str(target)]),
    }[writer]
    monkeypatch.setattr(_atomic, "os", _DiskFullAfter())
    if writer.startswith("wer"):
        assert write() == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "No space left on device" in captured.err
    else:
        with pytest.raises(OSError, match="No space left"):
            write()
    assert os.listdir(out_dir) == ["target"]
    cut = target.read_bytes()
    assert len(cut) == 5
    if writer.startswith("wer"):
        with pytest.raises(json.JSONDecodeError):
            json.loads(cut.decode("utf-8"))
    else:
        with pytest.raises(MatrixFormatError):
            read_matrix(target, FEATURES_MAGIC if writer == "save_features" else POSTERIORS_MAGIC)


def test_a_cut_matrix_file_is_rejected_on_read(tmp_path):
    path = tmp_path / "m.pst"
    write_matrix(np.full((3, 4), 0.25), path, POSTERIORS_MAGIC)
    whole = path.read_bytes()
    for size in range(len(whole)):
        path.write_bytes(whole[:size])
        with pytest.raises(MatrixFormatError):
            read_matrix(path, POSTERIORS_MAGIC)


def test_a_cut_wer_json_does_not_parse(tmp_path):
    _trn(tmp_path / "ref.trn", [("u1", "a b c"), ("u2", "d e")])
    _trn(tmp_path / "hyp.trn", [("u1", "a x c"), ("u2", "d")])
    out = tmp_path / "wer.json"
    assert run(["wer", "--ref", str(tmp_path / "ref.trn"), "--hyp", str(tmp_path / "hyp.trn"), "--json-out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    for size in range(len(text) - 1):  # all but the final newline
        with pytest.raises(json.JSONDecodeError):
            json.loads(text[:size])


@pytest.mark.parametrize("order", ["C", "F"])
def test_matrix_files_are_row_major_whatever_the_memory_order(tmp_path, order):
    values = np.asarray(np.arange(6.0).reshape(2, 3).T, order=order)
    expected = FEATURES_MAGIC + struct.pack("<II", 3, 2) + np.ascontiguousarray(values, dtype="<f4").tobytes()
    write_matrix(values, tmp_path / "m.fbk", FEATURES_MAGIC)
    save_features(FeatureMatrix(values), tmp_path / "f.fbk")
    assert (tmp_path / "m.fbk").read_bytes() == expected
    assert (tmp_path / "f.fbk").read_bytes() == expected
    assert load_features(tmp_path / "f.fbk").values.tolist() == values.tolist()
    probs = np.asarray(np.array([[0.25, 0.5], [0.75, 0.5]]).T, order=order)
    save_grid(PosteriorGrid(probs), tmp_path / "g.pst")
    assert load_grid(tmp_path / "g.pst").probs.tolist() == probs.tolist()


def test_a_failing_replace_removes_the_temp_file(tmp_path, monkeypatch):
    class _NoReplace(_DiskFullAfter):
        write = staticmethod(os.write)

        def replace(self, src, dst):
            raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(_atomic, "os", _NoReplace())
    with pytest.raises(PermissionError):
        save_manifest([ManifestRecord("u", "a.wav", "t", 1.0)], tmp_path / "m.jsonl")
    assert os.listdir(tmp_path) == []


def test_a_successful_write_replaces_the_target_and_leaves_nothing_else(tmp_path):
    target = tmp_path / "t.wav"
    target.write_bytes(b"old" * 1000)
    write_wav(AudioBuffer([0.5, -0.5], 8000), target, "pcm16")
    assert os.listdir(tmp_path) == ["t.wav"]
    assert read_wav(target).samples.tolist() == [0.5, -0.5]
    _atomic.write_atomic(tmp_path / "raw", b"ab", bytearray(b"cd"), memoryview(b"ef"), np.array([1], dtype="<i2"))
    assert (tmp_path / "raw").read_bytes() == b"abcdef\x01\x00"


def test_a_temp_file_left_by_a_killed_writer_is_replaced(tmp_path):
    target = tmp_path / "m.jsonl"
    (tmp_path / f"m.jsonl.{os.getpid()}-{threading.get_ident()}.tmp").write_bytes(b"half a manifest")
    save_manifest([ManifestRecord("u", "a.wav", "t", 1.0)], target)
    assert os.listdir(tmp_path) == ["m.jsonl"]
    assert target.read_bytes().startswith(b'{"utt_id": "u"')


@pytest.mark.parametrize("command, argv", [("ltr", ["--segment-ms", "5"]), ("analyze", ["--metric", "boundary"])])
@pytest.mark.parametrize("name", ["t" * 236 + ".out", "é" * 120 + ".out"], ids=["240_ascii_bytes", "244_utf8_bytes"])
def test_a_target_name_open_wb_accepts_is_written_through_a_shorter_temp_name(tmp_path, capsys, command, argv, name):
    # the temp suffix would take a 240-byte name past 255 bytes; the UTF-8
    # name is cut inside a two-byte character
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 800), 8000), tmp_path / "in.wav")
    assert run([command, *argv, "--in", str(tmp_path / "in.wav"), "--out", str(tmp_path / name)]) == 0
    assert capsys.readouterr().out == ""
    assert sorted(os.listdir(tmp_path)) == sorted(["in.wav", name])


def test_an_existing_file_keeps_its_mode(tmp_path):
    for mode in (0o600, 0o640, 0o755):
        plain, replaced = tmp_path / f"plain{mode:o}", tmp_path / f"replaced{mode:o}"
        for path in (plain, replaced):
            path.write_bytes(b"old")
            os.chmod(path, mode)
        with open(plain, "wb") as handle:
            handle.write(b"new")
        _atomic.write_atomic(replaced, b"new")
        assert stat.S_IMODE(os.stat(replaced).st_mode) == stat.S_IMODE(os.stat(plain).st_mode) == mode
        assert replaced.read_bytes() == b"new"


def test_a_symlinked_target_keeps_its_link_and_the_file_it_names_is_replaced(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    (shared / "m.jsonl").write_bytes(b"old")
    link = tmp_path / "m.jsonl"
    link.symlink_to(shared / "m.jsonl")
    save_manifest([ManifestRecord("u", "a.wav", "t", 1.0)], link)
    assert link.is_symlink()
    assert (shared / "m.jsonl").read_bytes().startswith(b'{"utt_id": "u"')
    assert sorted(os.listdir(tmp_path)) == ["m.jsonl", "shared"]
    assert os.listdir(shared) == ["m.jsonl"]

    dangling = tmp_path / "new.wav"
    dangling.symlink_to(shared / "new.wav")
    write_wav(AudioBuffer([0.5], 8000), dangling, "pcm16")  # created where the link points, as open("wb") does
    assert dangling.is_symlink()
    assert read_wav(shared / "new.wav").samples.tolist() == [0.5]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_target_is_written_through(tmp_path):
    wav = tmp_path / "in.wav"
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 4000), 8000), wav)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so the writer's open does not block
    try:
        code = run(["analyze", "--metric", "boundary", "--durations", "5,10", "--in", str(wav), "--out", str(fifo)])
        received = os.read(read_end, 1 << 16)
    finally:
        os.close(read_end)
    assert code == 0
    assert received.decode().startswith("segment_ms,value\n5,")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["in.wav", "out.fifo"]


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_files_get_the_mode_open_wb_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        write_wav(AudioBuffer([0.0], 8000), tmp_path / "a.wav")
        save_features(FeatureMatrix(np.zeros((2, 2))), tmp_path / "f.fbk")
        save_manifest([ManifestRecord("u", "a.wav", "t", 1.0)], tmp_path / "m.jsonl")
    finally:
        os.umask(previous)
    expected = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert expected == 0o666 & ~umask
    for name in ("a.wav", "f.fbk", "m.jsonl"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == expected, name


def test_header_fields_that_overflow_are_data_errors_before_any_write(tmp_path):
    out = tmp_path / "o.wav"
    for rate, codec in ((2**31, "pcm16"), (2**31, "float32"), (2**32, "pcm16"), (2**30, "float32")):
        with pytest.raises(DataError, match="does not fit a WAV header"):
            write_wav(AudioBuffer([0.0, 0.5], rate), out, codec)

    class _Long:  # too many samples for the 32-bit RIFF size, without allocating them
        sample_rate_hz = 8000

        def __len__(self):
            return 2**30

    with pytest.raises(DataError, match="RIFF chunk size"):
        write_wav(_Long(), out, "float32")
    write_wav(AudioBuffer([0.0], 2**31 - 1), out, "pcm16")  # 2^32 - 2 bytes per second still fits
    assert struct.unpack_from("<II", out.read_bytes(), 24) == (2**31 - 1, 2**32 - 2)
    out.unlink()
    assert os.listdir(tmp_path) == []


def test_ltr_on_a_2_31_hz_wav_is_a_data_error_and_writes_nothing(tmp_path, capsys):
    rate = 2**31
    fmt = struct.pack("<IHHIIHH", 16, 1, 1, rate, 0, 2, 16)  # byte rate is not read
    payload = struct.pack("<4h", 0, 100, -100, 200)
    body = b"fmt " + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    src = tmp_path / "fast.wav"
    src.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    assert read_wav(src).sample_rate_hz == rate
    for codec in ("pcm16", "float32"):
        assert run(["ltr", "--segment-ms", "1", "--codec", codec, "--in", str(src), "--out", str(tmp_path / "o.wav")]) == 2
        assert "does not fit a WAV header" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["fast.wav"]


def test_the_public_constructors_copy_and_every_array_is_read_only(tmp_path):
    source = np.array([0.1, -0.2, 0.3, 0.4])
    buffer = AudioBuffer(source, 8000)
    source[0] = 0.9
    assert buffer.samples.tolist() == [0.1, -0.2, 0.3, 0.4]
    values = np.arange(12.0).reshape(3, 4)
    matrix = FeatureMatrix(values)
    values[0, 0] = -1.0
    assert matrix.values[0, 0] == 0.0

    write_wav(AudioBuffer(np.linspace(-0.9, 0.9, 800), 8000), tmp_path / "a.wav")
    decoded = read_wav(tmp_path / "a.wav")
    buffers = [buffer, decoded, reverse_segments(decoded, 5), speed_perturb(decoded, 0.9),
               speed_perturb(decoded, 1.0)]
    for item in buffers:
        assert not item.samples.flags.writeable
        with pytest.raises(ValueError):
            item.samples[0] = 0.0
    features = fbank(decoded, dims=8)
    save_features(features, tmp_path / "f.fbk")
    matrices = [matrix, features, mvn(features), spec_augment(features, SpecAugmentPolicy(max_freq_mask_width=2)),
                load_features(tmp_path / "f.fbk")]
    for item in matrices:
        assert not item.values.flags.writeable
    assert not np.shares_memory(matrices[3].values, features.values)
    probs = np.array([[0.25, 0.75], [1.0, 0.0]])
    grid = PosteriorGrid(probs)
    probs[0, 0] = 0.5
    assert grid.probs[0].tolist() == [0.25, 0.75]
    save_grid(grid, tmp_path / "g.pst")
    for item in (grid, _as_grid(probs[1:]), load_grid(tmp_path / "g.pst")):
        assert not item.probs.flags.writeable
        with pytest.raises(ValueError):
            item.probs[0, 0] = 0.0


def test_load_grid_adopts_the_array_it_decodes(tmp_path, traced_peak):
    # the file's bytes (4 per cell) and their float64 decoding (8) at once;
    # copying the decoded array again took the peak to 18 bytes per cell
    rng = np.random.default_rng(0)
    probs = rng.random((100_000, 31))
    probs /= probs.sum(axis=1, keepdims=True)
    save_grid(PosteriorGrid(probs), tmp_path / "g.pst")
    del probs
    grid, peak = traced_peak(load_grid, tmp_path / "g.pst")
    assert grid.probs.shape == (100_000, 31)
    assert peak <= 12 * grid.probs.size + 2**20


_SRC = Path(__file__).resolve().parents[1] / "src" / "ltrkit"
_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _file_writers(source, filename):
    """``file:line`` of each call in ``source`` that may write a file: ``open``
    with a w, a, x or + mode (or a mode that is not a literal), ``os.open``
    with a write flag (or a flag that is not an ``os.O_*`` name),
    ``write_text``, ``write_bytes``, ``tofile`` and ``np.save*``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        if name == "open" and owner == "os":
            flags = node.args[1] if len(node.args) > 1 else keywords.get("flags")
            names = {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(flags) if isinstance(n, (ast.Attribute, ast.Name))}
            writes = bool(names & _WRITE_FLAGS) or any(not n.startswith("O_") for n in names - {"os"})
        elif name == "open":
            position = 1 if owner in (None, "io") else 0  # open(path, mode), io.open(path, mode), Path.open(mode)
            mode = node.args[position] if len(node.args) > position else keywords.get("mode", ast.Constant("r"))
            writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))
        else:
            writes = name in ("write_text", "write_bytes", "tofile") or (owner in ("np", "numpy") and name.startswith("save"))
        if writes:
            found.append(f"{filename}:{node.lineno}")
    return found


def test_the_guard_finds_every_kind_of_file_writer():
    source = """
open(p, "rb", buffering=0)
open(p, encoding="utf-8")
os.open(p, os.O_RDONLY | os.O_CLOEXEC)
path.read_bytes()
open(p, "w")
open(p, mode="ab")
io.open(p, "r+")
path.open("x")
open(p, mode)
os.open(p, os.O_WRONLY | os.O_CREAT, 0o666)
os.open(p, flags)
path.write_text("t")
path.write_bytes(b"b")
array.tofile(handle)
np.save(p, array)
numpy.savez(p, a=array)
"""
    assert _file_writers(source, "m.py") == [f"m.py:{line}" for line in range(6, 18)]


def test_atomic_is_the_one_module_that_writes_files():
    # The in-place/atomic switch of every output rests on this.
    paths = sorted(_SRC.glob("*.py"))
    assert _SRC / "_atomic.py" in paths and _file_writers((_SRC / "_atomic.py").read_text(encoding="utf-8"), "_atomic.py")
    found = [where for path in paths if path.name != "_atomic.py" for where in _file_writers(path.read_text(encoding="utf-8"), f"src/ltrkit/{path.name}")]
    assert not found, f"files opened for writing outside _atomic.py: {', '.join(found)}"


def _private_audio_io_names(source, filename):
    """The ``_``-prefixed names ``source`` imports from ``audio_io`` or reads as ``audio_io._name``."""
    names = set()
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "audio_io":
            names |= {alias.name for alias in node.names if alias.name.startswith("_")}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "audio_io" and node.attr.startswith("_"):
            names.add(node.attr)
    return names


def test_only_the_builders_reach_into_audio_io():
    # The WAV header and payload are audio_io's: the builders take its decode
    # and an unfilled payload to render into, featurize takes decoded spans of
    # samples from its span reader, and no other module goes further.
    source = "from .audio_io import AudioBuffer, _encode\nfrom ltrkit.audio_io import _decode\naudio_io._mono(p)\naudio_io.read_wav(p)\n"
    assert _private_audio_io_names(source, "m.py") == {"_encode", "_decode", "_mono"}
    found = {path.name: _private_audio_io_names(path.read_text(encoding="utf-8"), path.name) for path in sorted(_SRC.glob("*.py"))}
    reaching = {name: names for name, names in found.items() if names and name != "audio_io.py"}
    allowed = {"dataset.py": {"_decode", "_wav_payload"}, "features.py": {"_open_wav"}}
    assert all(names <= allowed.get(name, set()) for name, names in reaching.items()), reaching
