"""Traced run: calls into each chordmodel module from outside, in one process.

Spans (name, start, end, parent) are kept in memory and written as JSON
lines when the run ends. A span wraps either a call the benchmark makes
directly (parse, collapse, fit, ...) or a module function that the
program calls itself, wrapped from outside for the duration of one call:
FeatureSpace's voice-leading matrix, spectra, cache I/O and harmonicity
table, and the bootstrap's nests and count rebuilds. A layer that no
longer exists, or that is no longer called, reports 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import corpora

REPEATS = 3
REPLICATES = {"tonal-large": 10, "diverse-small": 1}   # as in the untraced bootstraps
RAW_TRANSITION_EVENTS = 20000
SAMPLED_CHORDS = 500

# per-layer metric -> unit
UNITS = {
    "cli.import_s": "s",
    "pcset.alphabet_s": "s",
    "features.space_warm_s": "s",
    "features.space_cold_s": "s",
    "features.harmonicity_table_s": "s",
    "features.tables_mb": "MB",
    "features.raw_transition_us": "us",
    "voiceleading.matrix_s": "s",
    "voiceleading.pairs": "count",
    "voiceleading.cache_file_mb": "MB",
    "spectrum.alphabet_spectra_s": "s",
    "spectrum.cache_write_s": "s",
    "spectrum.cache_read_s": "s",
    "spectrum.cache_file_mb": "MB",
    "corpus.parse_s": "s",
    "corpus.preprocess_s": "s",
    "corpus.collapse_s": "s",
    "corpus.aggregate_ms": "ms",
    "corpus.events": "count",
    "corpus.groups": "count",
    "corpus.context_rows": "count",
    "model.cost_grad_ms": "ms",
    "model.bytes_per_eval": "B",
    "model.fit_s": "s",
    "model.fit_iterations": "count",
    "model.sample_chord_us": "us",
    "importance.nest_s": "s",
    "importance.replicate_s": "s",
    "importance.subfits": "count",
    "importance.nonconverged_subfits": "count",
}


class Tracer:
    """In-memory spans; one per timed call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        record = {"id": sid, "name": name,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record.update(start=start - self._t0, end=end - self._t0, **attrs)

    @contextlib.contextmanager
    def wrapped(self, module, names: dict[str, str], describe=None):
        """Temporarily replace module.<attr> by a span-recording wrapper.

        describe(result) gives extra span attributes; by default an array
        result's size.
        """
        saved = {}
        for attr, span_name in names.items():
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved[attr] = fn

            def wrapper(*args, _fn=fn, _name=span_name, **kwargs):
                with self.span(_name) as rec:
                    out = _fn(*args, **kwargs)
                    rec.update(describe(out) if describe else _array_size(out))
                    return out

            setattr(module, attr, functools.wraps(fn)(wrapper))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        d = self.durations(name)
        return statistics.median(d) if d else 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _array_size(out) -> dict:
    return {"size": int(out.size)} if isinstance(out, np.ndarray) else {}


def _nest_counts(report) -> dict:
    return {"subfits": len(report.fits), "nonconverged": len(report.nonconverged_fits)}


def _import_seconds(src: Path) -> float:
    """Import time of chordmodel.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import chordmodel.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _file_mb(directory: Path, prefix: str) -> float:
    return sum(p.stat().st_size for p in directory.glob(prefix + "*")) / 2**20


def _array_mb(obj, depth: int = 2) -> float:
    """Bytes held in numpy arrays reachable through attributes."""
    total = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif depth > 0 and hasattr(value, "__dict__"):
            total += _array_mb(value, depth - 1) * 2**20
    return total / 2**20


def run(workload: str, seed: int, run_dir: Path, trace_dir: Path,
        warm_cache: Path, cli) -> dict:
    """Per-layer metrics of one workload; cli(*args) runs one CLI command."""
    src = Path.cwd() / "src"
    files = corpora.write_inputs(workload, seed, run_dir)
    tr = Tracer()
    m: dict[str, float] = {}

    for _ in range(REPEATS):
        with tr.span("cli.import_fresh_process") as rec:
            rec["seconds"] = _import_seconds(src)
    m["cli.import_s"] = statistics.median(
        s["seconds"] for s in tr.spans if s["name"] == "cli.import_fresh_process")

    sys.path.insert(0, str(src))
    with tr.span("cli.import"):
        importlib.import_module("chordmodel.cli")
    from chordmodel import corpus, features, importance, model, pcset

    for _ in range(REPEATS):
        with tr.span("pcset.alphabet"):
            pcset.ChordAlphabet()
    m["pcset.alphabet_s"] = tr.median("pcset.alphabet")
    pcset.enumerate_alphabet()

    layer_calls = {
        "voice_leading_matrix": "voiceleading.matrix",
        "alphabet_spectra": "spectrum.alphabet_spectra",
        "write_spectrum_cache": "spectrum.cache_write",
        "read_spectrum_cache": "spectrum.cache_read",
        "build_harmonicity_table": "features.harmonicity_table",
    }
    cold_dir = run_dir / "cold-cache"
    with tr.wrapped(features, layer_calls):
        with tr.span("features.space_cold"):
            features.FeatureSpace(cache_dir=cold_dir)
        for _ in range(REPEATS):
            with tr.span("features.space_warm"):
                space = features.FeatureSpace(cache_dir=cold_dir)
    m["features.space_cold_s"] = tr.median("features.space_cold")
    m["features.space_warm_s"] = tr.median("features.space_warm")
    m["features.harmonicity_table_s"] = tr.median("features.harmonicity_table")
    m["features.tables_mb"] = _array_mb(space)
    m["voiceleading.matrix_s"] = tr.median("voiceleading.matrix")
    m["voiceleading.pairs"] = sum(s.get("size", 0) for s in tr.spans
                                  if s["name"] == "voiceleading.matrix")
    m["voiceleading.cache_file_mb"] = _file_mb(cold_dir, "voiceleading-")
    m["spectrum.alphabet_spectra_s"] = tr.median("spectrum.alphabet_spectra")
    m["spectrum.cache_write_s"] = tr.median("spectrum.cache_write")
    m["spectrum.cache_read_s"] = tr.median("spectrum.cache_read")
    m["spectrum.cache_file_mb"] = _file_mb(cold_dir, "spectra-")
    # the tables just built cold must give the CLI the same bytes as the warm cache
    corpora.write_plain(run_dir / "small.txt", corpora.small_pieces(seed))
    for cache, out in ((cold_dir, "cold.csv"), (warm_cache, "warm.csv")):
        cli("features", "small.txt", "-o", out, "--cache-dir", cache)
    errors = checks.check_same_bytes(run_dir / "cold.csv", run_dir / "warm.csv",
                                     "features with the fresh vs the warm cache")
    shutil.rmtree(cold_dir)

    # corpus layers on the workload's main input (its first file)
    name = next(iter(files))
    fmt = "jsonl" if name.endswith(".jsonl") else "plain"
    for _ in range(REPEATS):
        with tr.span("corpus.parse"):
            raw = corpus.parse_corpus(run_dir / name, fmt)
        with tr.span("corpus.preprocess"):
            pre = corpus.preprocess_corpus(raw)
        with tr.span("corpus.collapse"):
            cc = corpus.collapse(pre, space.alphabet)
    for key in ("parse", "preprocess", "collapse"):
        m[f"corpus.{key}_s"] = tr.median(f"corpus.{key}")
    m["corpus.events"] = cc.n_events
    m["corpus.groups"] = cc.n_classes
    rows = {row for row, _ in cc.trans}
    m["corpus.context_rows"] = len(rows)

    # the per-event loop of `features`
    al = space.alphabet
    events = [(p.chords[k - 1] if k else None, c)
              for p in pre.pieces for k, c in enumerate(p.chords)]
    events = events[:RAW_TRANSITION_EVENTS]
    with tr.span("features.raw_transitions", events=len(events)):
        for prev, cur in events:
            raw_values = space.raw_transition_values(
                None if prev is None else al.id_of(prev), al.id_of(cur))
            space.stats.standardize(raw_values)
    m["features.raw_transition_us"] = 1e6 * tr.median("features.raw_transitions") / len(events)

    # model layer
    with tr.span("model.fit"):
        result = model.fit(cc, space)
    m["model.fit_s"] = tr.median("model.fit")
    m["model.fit_iterations"] = result.iterations
    fitted = model.EnergyModel(space, weights=result.weights)
    for _ in range(REPEATS):
        with tr.span("model.cost_grad"):
            model.corpus_gradient(cc, fitted)
    m["model.cost_grad_ms"] = 1e3 * tr.median("model.cost_grad")
    # dense float64 feature rows read per evaluation: one (4095 x 4) block
    # per context row, plus the start block
    m["model.bytes_per_eval"] = (len(rows) + bool(cc.start)) * len(al) * space.n_features * 8
    sampler = model.EnergyModel(space, weights=np.array(
        [corpora.SAMPLE_WEIGHTS[n] for n in features.FEATURE_NAMES]))
    with tr.span("model.sample", chords=SAMPLED_CHORDS):
        model.sample_sequence(sampler, SAMPLED_CHORDS, np.random.default_rng(seed))
    m["model.sample_chord_us"] = 1e6 * tr.median("model.sample") / SAMPLED_CHORDS

    # importance layer: the bootstrap the workload's CLI command runs, on the
    # same corpus with the same --seed 0
    imp_name = list(files)[-1]
    imp_cc = corpus.collapse(corpus.preprocess_corpus(corpus.parse_corpus(
        run_dir / imp_name, "jsonl" if imp_name.endswith(".jsonl") else "plain")), al)
    replicates = REPLICATES[workload]
    with tr.wrapped(importance, {"feature_importance": "importance.nest"}, _nest_counts), \
            tr.wrapped(model, {"aggregate_counts": "corpus.aggregate"}):
        with tr.span("importance.bootstrap"):
            boot = importance.bootstrap(imp_cc, space, n_replicates=replicates,
                                        seed=0, threads=1)
    # in call order: the point nest, then one nest per replicate
    nests = [s for s in tr.spans if s["name"] == "importance.nest"]
    seconds = [s["end"] - s["start"] for s in nests]
    m["importance.nest_s"] = seconds[0] if nests else 0.0
    m["importance.replicate_s"] = statistics.median(seconds[1:]) if seconds[1:] else 0.0
    m["importance.subfits"] = nests[0]["subfits"] if nests else 0
    m["importance.nonconverged_subfits"] = sum(s["nonconverged"] for s in nests[1:])
    m["corpus.aggregate_ms"] = 1e3 * tr.median("corpus.aggregate")

    tr.write(trace_dir / f"{workload}-seed{seed}.jsonl")
    # operations as run.py counts a bootstrap's: the point nest and each
    # replicate, a replicate with a non-converged sub-fit counting as failed
    return {
        "correct": not errors,
        "attempted": 1 + replicates,
        "failed": boot.n_nonconverged,
        "errors": errors,
        "metrics": {k: {"value": m[k], "unit": u} for k, u in UNITS.items()},
    }
