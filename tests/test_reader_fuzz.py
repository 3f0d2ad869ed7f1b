"""Mutation fuzz of every file reader.

Small seed files of each format are mutated by a fixed ``random.Random``: a
random byte, a truncation, an insertion of 1-5 random bytes, or a run of 1-5
bytes set to one of 0x00, 0xff, 0x7f, 0x80, a quote, a digit or a newline.
Every reader must return or raise a ``DataError`` (an ``OSError`` would be
the file system's), and print no warning: a signaling NaN widened without
``np.errstate`` is what a warning would most likely show. The builders' WAV
decode must agree with ``read_wav`` on every mutated WAV, outcome and message
alike, and so must the streamed ``featurize`` with ``fbank(read_wav(...))``.
"""

import json
import random
import struct
import warnings

import numpy as np

from ltrkit.audio_io import _decode, read_wav
from ltrkit.dataset import load_manifest
from ltrkit.errors import DataError
from ltrkit.features import _featurize, fbank, load_features, mvn, save_features
from ltrkit.matrix_io import FEATURES_MAGIC, POSTERIORS_MAGIC, write_matrix
from ltrkit.metrics import read_trn
from ltrkit.scoring import load_grid, load_hypotheses

_MUTATIONS = 200
_FILL = b'\x00\xff\x7f\x80"7\n'


def _mutate(rng: random.Random, data: bytes) -> bytes:
    data = bytearray(data)
    kind = rng.randrange(4)
    pos = rng.randrange(len(data))
    if kind == 0:
        data[pos] = rng.randrange(256)
    elif kind == 1:
        del data[pos:]
    elif kind == 2:
        data[pos:pos] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 5)))
    else:
        run = min(rng.randint(1, 5), len(data) - pos)
        data[pos : pos + run] = bytes([rng.choice(_FILL)]) * run
    return bytes(data)


def _wav(values: np.ndarray, tag: int, rate: int) -> bytes:
    frames, channels = values.shape
    bits = values.itemsize * 8
    fmt = struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"fmt " + fmt + b"data" + struct.pack("<I", values.nbytes) + values.tobytes()
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _wav_seeds(np_rng) -> list[bytes]:
    """Mono and stereo PCM-16 and mono float32, which the builders decode to
    float32, and 3-channel float32, which they decode as read_wav does."""
    pcm = np_rng.integers(-32768, 32768, (48, 2)).astype("<i2")
    floats = np_rng.uniform(-1.2, 1.2, (48, 3)).astype("<f4")
    return [_wav(pcm[:, :1], 1, 16000), _wav(pcm, 1, 8000), _wav(floats[:, :1], 3, 16000), _wav(floats, 3, 16000)]


def _text_seeds() -> dict:
    hyps = [{"tokens": [1, 2], "log_p_ctc": -1.5, "log_p_att": -2.0, "log_p_lm": -0.5},
            {"tokens": ["a"], "log_p_ctc": -3.25, "log_p_att": -1.0, "log_p_lm": -4.0}]
    records = [{"utt_id": "u0", "audio_path": "a0.wav", "text": "hello there", "duration_s": 1.5},
               {"utt_id": "u1", "audio_path": "a1.wav", "text": "more", "duration_s": 2.0,
                "augment": {"type": "ltr", "param": 15.0}}]
    return {
        load_hypotheses: "".join(json.dumps(h) + "\n" for h in hyps).encode(),
        read_trn: b"the cat sat (u0)\nso it did (u1)\n",
        load_manifest: "".join(json.dumps(r) + "\n" for r in records).encode(),
    }


def _matrix_seeds(tmp_path, np_rng) -> dict:
    probs = np_rng.uniform(0.1, 1.0, (10, 4))
    probs /= probs.sum(axis=1, keepdims=True)
    seeds = {}
    for reader, values, magic in ((load_features, np_rng.normal(-2.0, 3.0, (12, 6)), FEATURES_MAGIC),
                                  (load_grid, probs, POSTERIORS_MAGIC)):
        write_matrix(values, tmp_path / "seed", magic)
        seeds[reader] = (tmp_path / "seed").read_bytes()
    return seeds


def _outcome(reader, path):
    """``("ok", result)`` or ``(type, message)``, with every warning made an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", reader(path)
        except (DataError, OSError) as exc:
            return type(exc), str(exc)


def test_every_reader_fails_only_with_a_data_error_and_no_warning(tmp_path):
    rng, np_rng = random.Random(2208), np.random.default_rng(2208)
    path = tmp_path / "mutated"
    seeds = {**_text_seeds(), **_matrix_seeds(tmp_path, np_rng)}
    for reader, seed in seeds.items():
        outcomes = set()
        for _ in range(_MUTATIONS):
            path.write_bytes(_mutate(rng, seed))
            outcomes.add(_outcome(reader, path)[0])
        assert "ok" in outcomes and len(outcomes) > 1, (reader.__name__, outcomes)


def test_the_builders_decode_agrees_with_read_wav_on_mutated_files(tmp_path):
    rng = random.Random(2209)
    seeds = _wav_seeds(np.random.default_rng(2209))
    path = tmp_path / "mutated.wav"
    outcomes = set()
    for k in range(_MUTATIONS):
        path.write_bytes(_mutate(rng, seeds[k % len(seeds)]))
        want, got = _outcome(read_wav, path), _outcome(_decode, path)
        outcomes.add(want[0])
        if want[0] == "ok":
            assert got[0] == "ok", (k, got)
            rate, samples = got[1]
            widened = samples.astype(np.float64)
            assert rate == want[1].sample_rate_hz
            assert np.array_equal(widened, want[1].samples), k
            assert np.array_equal(np.signbit(widened), np.signbit(want[1].samples)), k
        else:
            assert got == want, k
    assert "ok" in outcomes and len(outcomes) > 1, outcomes


def test_featurize_agrees_with_fbank_of_read_wav_on_mutated_files(tmp_path):
    # a 1 ms window and a 0.5 ms shift give the 48-frame seeds several frames
    rng = random.Random(2210)
    seeds = _wav_seeds(np.random.default_rng(2210))
    path, want, got = tmp_path / "mutated.wav", tmp_path / "want.fbk", tmp_path / "got.fbk"
    outcomes = set()
    for k in range(_MUTATIONS):
        path.write_bytes(_mutate(rng, seeds[k % len(seeds)]))
        for normalize in (True, False):

            def composed(p):
                features = fbank(read_wav(p), 4, 1.0, 0.5)
                save_features(mvn(features) if normalize else features, want)

            expected = _outcome(composed, path)
            assert _outcome(lambda p: _featurize(p, got, 4, 1.0, 0.5, normalize), path) == expected, k
            if expected[0] == "ok":
                assert got.read_bytes() == want.read_bytes(), k
        outcomes.add(expected[0])
    assert "ok" in outcomes and len(outcomes) > 1, outcomes
