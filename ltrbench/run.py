"""ltrkit benchmark: one workload, one closed loop, one JSON result line.

Run from the root of a source checkout:

    python3 ltrbench/run.py --workload augment --seed 1 --seconds 30 --trace 0

The program under test is the ``ltrkit`` package in ``./src``; nothing is
installed. The seeded corpus is written under ``./.ltrbench_work`` and
removed at the end. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, measured untraced; with ``--trace 1`` it carries the
per-layer metrics of a traced run (see README.md). Exit code 0 means the
run finished; ``correct`` says whether every output passed the checks.
"""

from __future__ import annotations

import os

# BLAS stays single-threaded, so the dataset pool is the only parallelism.
# Set before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import gc
import json
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import corpus
import selftest
from tracer import Tracer
from workloads import PARALLEL, SERIAL, Workload, speed

WORKLOADS = ("augment", "frontend", "decode")
SETUP_REPEATS = 9  # fresh interpreters per run, one before each round while rounds last
MIN_ROUNDS = 3  # the first round warms caches and is not timed

PER_LAYER = (
    "audio_io.read_wav.calls", "audio_io.read_wav.self_s", "audio_io.read_wav.bytes_in",
    "audio_io.write_wav.calls", "audio_io.write_wav.self_s", "audio_io.write_wav.bytes_out",
    "audio_io.AudioBuffer.calls", "audio_io.AudioBuffer.self_s", "audio_io.AudioBuffer.bytes_copied",
    "ltr.reverse_segments.calls", "ltr.reverse_segments.self_s", "ltr.reverse_segments.samples",
    "perturb.speed_perturb.calls", "perturb.speed_perturb.self_s", "perturb.speed_perturb.samples_out",
    "perturb.spec_augment.calls", "perturb.spec_augment.self_s",
    "features.fbank.calls", "features.fbank.self_s", "features.fbank.frames",
    "features.mvn.self_s", "features.boundary_discontinuity.self_s", "features.spectral_distance.self_s",
    "matrix_io.read_matrix.self_s", "matrix_io.read_matrix.bytes_in",
    "matrix_io.write_matrix.self_s", "matrix_io.write_matrix.bytes_out",
    "dataset.load_manifest.self_s", "dataset.save_manifest.self_s",
    "dataset.build_set.self_s", "dataset.build_speed_set.self_s", "dataset.worker_busy_fraction",
    "dataset.build_set.pN.audio_s_per_s", "dataset.build_speed_set.pN.audio_s_per_s",
    "scoring.load_grid.self_s",
    "scoring.ctc_loss.calls", "scoring.ctc_loss.self_s", "scoring.ctc_loss.lattice_cells", "scoring.ctc_loss.ns_per_cell",
    "scoring.greedy_ctc_decode.self_s", "scoring.attention_loss.self_s", "scoring.rescore_hypotheses.self_s",
    "metrics.align.calls", "metrics.align.self_s", "metrics.align.cells", "metrics.align.ns_per_cell",
    "metrics.tokenize.self_s", "metrics.read_trn.self_s", "metrics.top_confusions.self_s",
    "cli.run.calls", "cli.run.self_s",
    "trace.overhead_s",
)

UNITS = {"s": "s", "calls": "count", "bytes_in": "B", "bytes_out": "B", "bytes_copied": "B", "samples": "count",
         "samples_out": "count", "frames": "count", "lattice_cells": "count", "cells": "count", "ns_per_cell": "ns",
         "self_s": "s", "worker_busy_fraction": "ratio", "overhead_s": "s", "audio_s_per_s": "audio_s/s"}
# How much a build at --parallelism nproc beats one at 1 swings between
# 0.85x and 1.9x from run to run on a shared 2-vCPU host, with p1 steady; no
# bound of 25% holds such a figure, so the pN throughputs are per-layer
# figures of the dataset pool, taken from the untraced half of a traced run.

# CPU time of a fresh interpreter, like the serial throughputs.
SETUP_SNIPPET = """
import contextlib, io, sys, time
start = time.process_time()
sys.path.insert(0, "src")
from ltrkit import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(time.process_time() - start, code)
"""

GENERATE_SNIPPET = """
import pickle, sys
bench_dir, root, seed, workload, out = sys.argv[1:]
sys.path.insert(0, bench_dir)
import corpus
with open(out, "wb") as handle:
    pickle.dump(corpus.generate(root, int(seed), workload), handle)
"""


def fail(message: str) -> None:
    print(f"ltrbench: {message}", file=sys.stderr)
    sys.exit(1)


def import_ltrkit(root: Path):
    """Import ltrkit from ``root/src`` and nowhere else."""
    if not (root / "src" / "ltrkit" / "__init__.py").is_file():
        fail(f"no ltrkit sources under {root / 'src'}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    import ltrkit
    import ltrkit.cli

    if Path(ltrkit.__file__).resolve().parent != (root / "src" / "ltrkit").resolve():
        fail(f"imported ltrkit from {ltrkit.__file__}, not from {root / 'src'}")
    return ltrkit


def setup_seconds(root: Path, argv: list[str]) -> float:
    """CPU time of a fresh interpreter to import ltrkit and run one small
    command."""
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv], cwd=root, capture_output=True, text=True, timeout=120)
    if done.returncode != 0 or done.stdout.split()[1:] != ["0"]:
        fail(f"set-up command {argv} failed: {done.stderr.strip()}")
    return float(done.stdout.split()[0])


def setup_argv(workload: str, data: corpus.Corpus, work: Path, nproc: int) -> list[str]:
    if workload == "augment":
        return ["build-set", "--set", "1", "--manifest", data.tiny_manifest, "--out-dir", str(work / "setup"),
                "--out-manifest", str(work / "setup" / "out.jsonl"), "--parallelism", str(nproc)]
    if workload == "frontend":
        return ["featurize", "--in", data.tone[0], "--out", str(work / "setup.fbk")]
    u = data.decode.utts[0]
    return ["score", "ctc", "--grid", u.grid_path, "--vocab", " ".join(corpus.LABELS), "--tokens", " ".join(corpus.LABELS[t] for t in u.reference)]


def generate(work: Path, seed: int, workload: str) -> corpus.Corpus:
    # A child process makes the corpus, so its memory stays out of this
    # process's peak RSS, which then measures ltrkit alone. subprocess.run
    # waits for it, and kills and reaps it on a timeout or an interrupt.
    out = work / "corpus.pickle"
    argv = [sys.executable, "-c", GENERATE_SNIPPET, str(Path(__file__).resolve().parent), str(work), str(seed), workload, str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        fail(f"corpus generation failed: {done.stderr.strip()}")
    with out.open("rb") as handle:
        return pickle.load(handle)


def declared_metrics(root: Path, key: str) -> list[str] | None:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [m["name"] for m in json.loads(path.read_text())[key]]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # A termination request unwinds like an error: subprocess.run kills and
    # reaps its child, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    lk = import_ltrkit(root)
    problems = selftest.failures()
    if problems:
        fail("checker self-test failed: " + "; ".join(problems))

    nproc = len(os.sched_getaffinity(0))
    work = root / ".ltrbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        data = generate(work, args.seed, args.workload)
        bench = Workload(lk, data, work / "out", nproc, args.workload)
        # The corpus and the benchmark's own records stay out of the cyclic
        # collector's passes, so ltrkit's allocations cost what they would
        # in a fresh process.
        gc.collect()
        gc.freeze()
        if args.trace:
            plain = bench.run_for(args.seconds / 2, MIN_ROUNDS)
            tracer = Tracer()
            tracer.install(lk)
            try:
                traced = bench.run_for(args.seconds / 2, MIN_ROUNDS)
            finally:
                tracer.uninstall()
            rounds = plain + traced
            layers = tracer.layer_metrics(len(traced))
            layers["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(r["wall"] for r in plain[1:])
            untraced = bench.throughputs(plain[1:])
            layers.update({f"dataset.{name}": untraced[name] for name in PARALLEL})
            metrics = {name: {"value": layers.get(name, 0.0), "unit": UNITS[name.rsplit(".", 1)[1]]} for name in PER_LAYER}
        else:
            # Set-up is sampled between rounds, so that its samples meet the
            # host's slow and fast stretches in the same shares as the rounds.
            argv = setup_argv(args.workload, data, work, nproc)
            setup_times: list[float] = []

            def sample_setup() -> None:
                if len(setup_times) < SETUP_REPEATS:
                    setup_times.append(setup_seconds(root, argv))

            rounds = bench.run_for(args.seconds, MIN_ROUNDS, sample_setup)
            while len(setup_times) < SETUP_REPEATS:
                sample_setup()
            # Scaled to the reference host's speed, like the throughputs.
            setup_s = statistics.median(setup_times) * statistics.median(speed(r) for r in rounds[1:])
            values = bench.throughputs(rounds[1:])
            # Peak RSS of a fresh process through one serial pass over the
            # corpus: later rounds add allocator fragmentation, and the pool's
            # threads make the peak depend on their timing.
            peak_rss_mb = rounds[0]["serial_peak_rss_mb"]
            metrics = {"setup_s": {"value": setup_s, "unit": "s"}, "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
            metrics.update({name: {"value": values[name], "unit": name.rsplit(".", 1)[1].replace("_per_", "/")} for name in SERIAL})
        problems = bench.verify(np.random.default_rng([args.seed, 99]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if declared is not None and sorted(declared) != sorted(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} differ between this run and BENCHMARK.json")
    for problem in problems:
        print(f"ltrbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
