"""The benchmark's tracer (``ltrbench/tracer.py``) patches ltrkit from
outside: it wraps the functions each module's ``__all__`` names and the
``AudioBuffer`` constructor's ``__post_init__``. This smoke test keeps what it
assumes of the package true, without changing the tracer."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import ltrkit
import ltrkit.cli  # noqa: F401 (the tracer wraps every layer, cli too)
from ltrkit.audio_io import AudioBuffer, write_wav
from ltrkit.dataset import ManifestRecord

_TRACER = Path(__file__).resolve().parents[1] / "ltrbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave ltrbench/ as it is
    spec = importlib.util.spec_from_file_location("_ltrbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_sees_the_layers_and_restores_them(tmp_path, monkeypatch):
    tracer = _load_tracer(monkeypatch).Tracer()
    write_wav(AudioBuffer(np.linspace(-0.5, 0.5, 1600), 16000), tmp_path / "a.wav")
    record = ManifestRecord("u", str(tmp_path / "a.wav"), "t", 0.1)
    grid = ltrkit.scoring.PosteriorGrid(np.full((3, 2), 0.5))
    ltrkit.scoring.save_grid(grid, tmp_path / "g.pst")
    ltrkit.features.save_features(ltrkit.features.FeatureMatrix(np.ones((4, 3))), tmp_path / "f.fbk")

    tracer.install(ltrkit)
    patches = list(tracer._patches)
    try:
        ltrkit.dataset.build_set([record], 1, tmp_path / "out", parallelism=2)
        ltrkit.audio_io.read_wav(tmp_path / "a.wav")  # build_set decodes its sources without read_wav
        ltrkit.features.fbank(ltrkit.audio_io.AudioBuffer(np.zeros(1600), 16000))
        ltrkit.scoring.load_grid(tmp_path / "g.pst")
        assert ltrkit.cli.run(["specaug", "--seed", "1", "--in", str(tmp_path / "f.fbk"), "--out", str(tmp_path / "m.fbk")]) == 0
    finally:
        tracer.uninstall()

    counts = {}
    for _, _, name, _, _, span_counts in tracer.spans:
        counts.setdefault(name, []).append(span_counts)
    assert counts["dataset.build_set"] == [{"_parallelism": 2}]
    assert counts["audio_io.AudioBuffer"] == [{"bytes_copied": 1600 * 8}]
    assert {"audio_io.read_wav", "features.fbank", "scoring.load_grid", "matrix_io.read_matrix"} <= counts.keys()
    assert counts["perturb.spec_augment_file"] == [None]  # the CLI's specaug, one call
    assert patches
    for holder, key, original in patches:
        assert getattr(holder, key) is original


def test_a_ctc_loss_that_falls_back_to_log_space_is_one_traced_call(monkeypatch):
    # The two 1e-250 tokens underflow the scaled total to 0, so the private
    # log-space pass, which the tracer does not wrap, gives the loss. The
    # feasibility rule runs on the target ctc_loss has already checked, so
    # the public ctc_min_frames, which checks it again, is not called.
    tracer = _load_tracer(monkeypatch).Tracer()
    grid = ltrkit.scoring.PosteriorGrid(np.tile([1e-250, 1.0 - 1e-250], (5, 1)))
    tracer.install(ltrkit)
    try:
        loss = ltrkit.scoring.ctc_loss(grid, (0, 0))
    finally:
        tracer.uninstall()

    exact_above = 1021 * math.log(2.0) - math.log(3 * 5 * 5) - 5 * math.log1p(1e-6)  # T = 5 frames, S = 5 states
    assert exact_above < loss < np.inf
    calls = [(span, span_counts) for span, _, name, _, _, span_counts in tracer.spans if name == "scoring.ctc_loss"]
    assert [span_counts for _, span_counts in calls] == [{"lattice_cells": 5 * 5}]
    assert not any(name == "scoring.ctc_min_frames" for _, _, name, _, _, _ in tracer.spans)
