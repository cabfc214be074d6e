#!/usr/bin/env python3
"""Benchmark of the chordmodel command line.

Run from the repository root:

    python3 perfbench/run.py --workload tonal-large --seed 1 --seconds 60 --trace 0

--trace 0 runs the workload's CLI commands, one process at a time, checks
every artifact and prints the end-to-end metrics. --trace 1 calls each
module's public functions in-process, wrapped in spans, and prints the
per-layer metrics. Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The workloads
and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child: the multi-threaded
# default is slower here and spreads more from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import corpora  # noqa: E402
import oracles  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
COMMAND_TIMEOUT_S = 170

TONAL_BOOTSTRAP = 10
DIVERSE_BOOTSTRAP = 1
SAMPLE_FIXED = (100, 50)    # pieces x chords from corpora.SAMPLE_WEIGHTS
SAMPLE_FITTED = (20, 50)    # pieces x chords from the round's fit
SETUP_PROBES = 2            # per round
MIN_ROUNDS = 2              # so that every run repeats and byte-checks each command

WORKLOADS = ("tonal-large", "diverse-small")


class BenchError(RuntimeError):
    """A command or check went wrong in a way the benchmark cannot count."""


class Cli:
    """Runs `python -m chordmodel.cli` from the checkout's source tree."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.peak_rss_kb = 0

    def __call__(self, *args, measure: bool = True) -> float:
        """Run one command to completion; return its wall time in seconds."""
        out = self.run_dir / "cli.stdout"
        err = self.run_dir / "cli.stderr"
        cmd = [sys.executable, "-m", "chordmodel.cli", *map(str, args)]
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env,
                                    stdout=fo, stderr=fe)
            peak = PeakRss(proc.pid)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait without reaping, so the pid stays the child's while
                # the sampler reads it
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                elapsed = time.perf_counter() - t0
            finally:
                timer.cancel()
                peak.stop()
                proc.wait()
        if proc.returncode != 0:
            tail = err.read_text(errors="replace")[-2000:]
            raise BenchError(f"exit {proc.returncode}: {' '.join(cmd[3:])}\n{tail}")
        if measure:
            self.peak_rss_kb = max(self.peak_rss_kb, peak.kb)
        return elapsed


class PeakRss:
    """Samples a child's VmHWM every 20 ms until stopped.

    The kernel's ru_maxrss for a child also counts the parent's resident
    set at fork, which here would be the benchmark's own memory; VmHWM
    covers only the child's image after exec.
    """

    def __init__(self, pid: int) -> None:
        self.kb = 0
        self._path = f"/proc/{pid}/status"
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            try:
                with open(self._path, encoding="ascii") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            self.kb = max(self.kb, int(line.split()[1]))
                            break
            except OSError:
                pass
            if self._done.wait(0.02):
                return

    def stop(self) -> None:
        self._done.set()
        self._thread.join()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def code_stamp(files) -> str:
    """Short hash of the given files' names and contents."""
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def warm_cache_dir() -> Path:
    """The warm feature cache of the sources in the checkout.

    Keyed by the program's code, so that after a change of the sources the
    tables are built again, untimed, by the code being measured.
    """
    return WORK / f"warm-cache-{code_stamp((SRC / 'chordmodel').rglob('*.py'))}"


def oracle_tables_path() -> Path:
    return WORK / f"oracle-tables-{code_stamp([Path(oracles.__file__)])}.npz"


def prepare(cli: Cli) -> Path:
    """One-time work per version of the code: a warm feature cache and the
    oracle tables. Returns the warm cache directory."""
    WORK.mkdir(exist_ok=True)
    warm, tables = warm_cache_dir(), oracle_tables_path()
    for stale in [*WORK.glob("warm-cache*"), *WORK.glob("oracle-tables*")]:
        if stale not in (warm, tables):
            if stale.is_dir():
                shutil.rmtree(stale)
            else:
                stale.unlink()
    if not warm.is_dir():
        log("building the warm feature cache (once per version of the sources)")
        tmp = warm.with_name(warm.name + ".tmp")
        probe = write_probe(cli.run_dir)
        cli("features", probe, "--cache-dir", tmp, "-o", "probe.csv", measure=False)
        tmp.rename(warm)
    if not tables.is_file():
        log("building the oracle feature tables (once per version of oracles.py)")
        tmp = tables.with_name("oracle-tables.tmp.npz")
        np.savez(tmp, **oracles.build_tables())
        os.replace(tmp, tables)
    return warm


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def write_probe(run_dir: Path) -> Path:
    path = run_dir / "probe.txt"
    path.write_text("0,4,7\n", encoding="utf-8")
    return path


def load_oracle() -> oracles.FeatureOracle:
    with np.load(oracle_tables_path()) as data:
        return oracles.FeatureOracle({k: data[k] for k in data.files})


def dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 2**20


class Record:
    """Samples, counts and check failures of one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


class Steps:
    """One CLI command per method: run it, record its metric, check its
    artifact and count its operations.

    The first round checks each artifact against the oracles; later rounds
    require the same bytes as the first, since every command is
    deterministic.
    """

    def __init__(self, cli: Cli, rec: Record, oracle, rng, cache: Path) -> None:
        self.cli, self.rec, self.oracle, self.rng = cli, rec, oracle, rng
        self.cache = cache
        self.dir = cli.run_dir
        self.first_bytes: dict[str, bytes] = {}

    def _verify(self, out: str, check) -> None:
        data = (self.dir / out).read_bytes()
        if out not in self.first_bytes:
            self.first_bytes[out] = data
            self.rec.errors += check()
        elif data != self.first_bytes[out]:
            self.rec.errors.append(f"{out} differs from the first round's")

    def probe(self) -> None:
        for _ in range(SETUP_PROBES):
            self.rec.add("setup_s", self.cli("features", "probe.txt", "-o", "probe.csv",
                                             "--cache-dir", self.cache))

    def fit(self, corpus, pieces, out="fit.json", generating=None):
        """fit_s, or with generating weights the untimed refit of a sample."""
        t = self.cli("fit", corpus, "-o", out, "--cache-dir", self.cache)
        if generating is None:
            self.rec.add("fit_s", t)

        def check():
            fit = checks.load_json(self.dir / out)
            errors = checks.check_fit(fit, self.oracle, pieces, out)
            if generating is not None:
                errors += checks.check_refit(fit, self.oracle, pieces, generating)
            return errors
        self._verify(out, check)
        self.rec.attempted += 1
        return checks.load_json(self.dir / out)

    def features(self, corpus, pieces):
        t = self.cli("features", corpus, "-o", "features.csv", "--cache-dir", self.cache)
        self.rec.add("features_events_per_s", sum(map(len, pieces)) / t)
        self._verify("features.csv", lambda: checks.check_features(
            self.dir / "features.csv", self.oracle, pieces, self.rng))
        self.rec.attempted += 1

    def importance(self, corpus, pieces, fit=None):
        self.rec.add("importance_s", self.cli("importance", corpus, "-o", "imp",
                                              "--threads", 1, "--cache-dir", self.cache))
        imp = checks.load_json(self.dir / "imp.json")
        self._verify("imp.json", lambda: checks.check_importance(
            imp, self.oracle, pieces, fit))
        self.rec.attempted += 1
        return imp

    def bootstrap(self, corpus, pieces, replicates, imp=None):
        self.rec.add("bootstrap_s", self.cli(
            "importance", corpus, "-o", "boot", "--bootstrap", replicates,
            "--seed", 0, "--threads", 1, "--cache-dir", self.cache))
        boot = checks.load_json(self.dir / "boot.json")
        self._verify("boot.json", lambda: checks.check_bootstrap(
            boot, replicates, self.oracle, pieces, imp))
        # the point nest plus one operation per replicate; a replicate the
        # artifact reports as non-converged counts as failed
        self.rec.attempted += 1 + replicates
        self.rec.failed += boot["corpus_level"]["n_nonconverged"]

    def sample(self, weights, n_pieces, length, seed, out):
        t = self.cli("sample", weights, "-o", out, "-n", n_pieces,
                     "--length", length, "--seed", seed, "--cache-dir", self.cache)
        self.rec.add("sample_chords_per_s", n_pieces * length / t)
        self._verify(out, lambda: checks.check_sample(self.dir / out, n_pieces, length))
        self.rec.attempted += 1
        return corpora.merged([([tuple(map(int, tok.split(","))) for tok in line], None)
                               for line in checks.read_plain(self.dir / out)])


def tonal_round(steps: Steps, inputs, seed) -> None:
    fixed = inputs["tonal-fixed.jsonl"]
    steps.probe()
    steps.fit("tonal.jsonl", inputs["tonal.jsonl"])
    steps.features("tonal.jsonl", inputs["tonal.jsonl"])
    # `sample` twice a round, 10 s apart: slow stretches of the machine last
    # seconds, and with one sample a round this metric spread the most
    steps.sample("weights.json", *SAMPLE_FIXED, seed, "sample.txt")
    imp = steps.importance("tonal-fixed.jsonl", fixed)
    steps.bootstrap("tonal-fixed.jsonl", fixed, TONAL_BOOTSTRAP, imp)
    # round trip: sample at known weights, refit, recover them
    sampled = steps.sample("weights.json", *SAMPLE_FIXED, seed, "sample.txt")
    steps.fit("sample.txt", sampled, "refit.json",
              np.array([corpora.SAMPLE_WEIGHTS[n] for n in checks.FEATURES]))
    steps.rec.add("cache_mb", dir_mb(steps.cache))


def diverse_round(steps: Steps, inputs, seed) -> None:
    fixed = inputs["diverse-fixed.txt"]
    steps.probe()
    fit = steps.fit("diverse-fixed.txt", fixed)
    steps.features("diverse.txt", inputs["diverse.txt"])
    imp = steps.importance("diverse-fixed.txt", fixed, fit)
    steps.bootstrap("diverse-fixed.txt", fixed, DIVERSE_BOOTSTRAP, imp)
    steps.sample("fit.json", *SAMPLE_FITTED, seed, "sample.txt")
    steps.rec.add("cache_mb", dir_mb(steps.cache))


ROUNDS = {"tonal-large": tonal_round, "diverse-small": diverse_round}
UNITS = {"setup_s": "s", "fit_s": "s", "importance_s": "s", "bootstrap_s": "s",
         "features_events_per_s": "1/s", "sample_chords_per_s": "1/s",
         "peak_rss_mb": "MB", "cache_mb": "MB"}


def run_untraced(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    cli = Cli(run_dir)
    warm = prepare(cli)
    oracle = load_oracle()
    inputs = corpora.write_inputs(workload, seed, run_dir)
    write_probe(run_dir)
    rec = Record()
    steps = Steps(cli, rec, oracle, np.random.default_rng([seed, 99]), warm)
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        ROUNDS[workload](steps, inputs, seed)
        rounds += 1
        if rounds == 1:
            # the operations are those of one round: later rounds repeat
            # them for timing and must reproduce their bytes, so the counts
            # do not depend on how many rounds fit
            attempted, failed = rec.attempted, rec.failed
        last = time.perf_counter() - t0
        # whole rounds only, and none that would end past the budget
        if rounds >= MIN_ROUNDS and time.perf_counter() - start + last > seconds:
            break
    metrics = {name: rec.median(name) for name in UNITS if name != "peak_rss_mb"}
    metrics["peak_rss_mb"] = cli.peak_rss_kb / 1024.0
    return {
        "correct": not rec.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "errors": rec.errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chordmodel" / "cli.py").is_file():
        log(f"no chordmodel sources under {SRC}; run from the repository root")
        return 2

    for stale in WORK.glob("run-*"):
        if not pid_alive(int(stale.name.removeprefix("run-"))):
            shutil.rmtree(stale, ignore_errors=True)  # left by a killed run
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            import trace_layers
            cli = Cli(run_dir)
            warm = prepare(cli)
            result = trace_layers.run(args.workload, args.seed, run_dir,
                                      WORK / "traces", warm, cli)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, run_dir)
    except BenchError as exc:
        log(str(exc))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in result.pop("errors", []):
        log(f"CHECK FAILED: {msg}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
