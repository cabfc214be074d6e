#!/usr/bin/env python3
"""Self-test of the benchmark's oracles and artifact checks.

Run from the repository root (builds the per-checkout tables on first use):

    python3 perfbench/check_oracles.py

Part 1 tests the oracles on hand-computed cases. Part 2 runs small
chordmodel CLI commands, shows that every artifact check passes on the real
artifact, and that it fails on a deliberately wrong copy of it.
Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys

import numpy as np

import checks
import corpora
import oracles
import run as bench

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def expect_fails(errors: list[str], what: str) -> None:
    expect(bool(errors), f"rejects {what}")


def expect_passes(errors: list[str], what: str) -> None:
    expect(not errors, f"accepts {what}" + (f": {errors[:2]}" if errors else ""))


def hand_cases() -> None:
    # voice leading: C major -> F major 6/4 moves 4->5 and 7->9: 1 + 2
    for solver in (oracles.vl_brute, oracles.vl_assignment):
        name = solver.__name__
        expect(solver((0, 4, 7), (0, 5, 9)) == 3.0, f"{name} C -> F6/4 = 3")
        expect(solver((0, 4, 7), (0, 4, 7)) == 0.0, f"{name} identity = 0")
        expect(solver((0,), (6,)) == 6.0, f"{name} tritone = 6")
        # one voice splits three ways: 0 + 4 + 5
        expect(solver((0,), (0, 4, 7)) == 9.0, f"{name} 0 -> 0,4,7 = 9")
        # 11 goes up to 1 (2), 3, 4, 5 go down to 2 (1 + 2 + 3)
        expect(solver((1, 2, 3, 4, 5, 11), (1, 2)) == 8.0,
               f"{name} 1,2,3,4,5,11 -> 1,2 = 8")
    expect(oracles.vl_brute((0, 4, 7), (0, 5, 9)) != 4.0,
           "a wrong expected distance (4) is told apart")
    rng = np.random.default_rng(7)
    bad = 0
    for _ in range(300):
        a = oracles.chord_of(int(rng.integers(4095)))[:4]
        b = oracles.chord_of(int(rng.integers(4095)))[:4]
        bad += oracles.vl_brute(a, b) != oracles.vl_assignment(a, b)
    expect(bad == 0, "brute force and assignment agree on 300 random pairs")

    # spectra: a tone at pc 0 peaks at bin 0 with the four octave partials
    # (j = 1, 2, 4, 8) on top of each other: norm * (1 + 2^-.75 + 4^-.75 + 8^-.75)
    s0 = oracles.tone_spectrum(0.0)
    norm = 1.0 / (0.0683 * math.sqrt(2.0 * math.pi))
    peak = norm * sum(j ** -0.75 for j in (1, 2, 4, 8))
    expect(abs(s0[0] - peak) < 1e-6 * peak, f"tone peak {s0[0]:.6f} = {peak:.6f}")
    expect(np.allclose(oracles.tone_spectrum(7.0), np.roll(s0, 700)),
           "a tone at pc 7 is the pc-0 tone shifted 700 bins")
    c = oracles.chord_spectrum((0, 4, 7))
    expect(oracles.spectral_distance(c, c) == 0.0, "spectral distance to itself = 0")
    d = oracles.spectral_distance(oracles.chord_spectrum((0,)), oracles.chord_spectrum((6,)))
    expect(0.9 < d <= 1.0, f"pc 0 vs pc 6 share almost no partials ({d:.4f})")
    # documented harmonicity values (README, "Harmonicity properties")
    for chord, h12, h11 in (((0, 4, 7), 0.941484, 0.932791), ((0, 6), 0.918454, 0.940006)):
        got12 = oracles.harmonicity_raw(chord)
        got11 = oracles.harmonicity_raw(chord, harmonics=11)
        expect(abs(got12 - h12) < 5e-7 and abs(got11 - h11) < 5e-7,
               f"harmonicity {chord}: {got12:.6f} (12 h), {got11:.6f} (11 h)")


def model_cases(oracle) -> None:
    pieces = [[(0, 4, 7), (5, 9, 0), (7, 11, 2, 5), (0, 4, 7)], [(0,), (0, 6)]]
    cost, grad, n = oracle.cost_gradient(pieces, np.zeros(4))
    expect(n == 6 and abs(cost - 6 * math.log(4095)) < 1e-9,
           "uniform model: cost = events * ln 4095")
    w = np.array([0.2, -0.4, 0.3, -0.7])
    cost, grad, _ = oracle.cost_gradient(pieces, w)
    h = 1e-6
    numeric = np.array([(oracle.cost_gradient(pieces, w + h * e)[0]
                         - oracle.cost_gradient(pieces, w - h * e)[0]) / (2 * h)
                        for e in np.eye(4)])
    expect(np.allclose(grad, numeric, rtol=1e-6, atol=1e-6),
           "oracle gradient = central differences")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(4095, size=2))
        sd, vl = oracle.raw(x, y)
        cx, cy = oracles.chord_of(x), oracles.chord_of(y)
        direct = oracles.spectral_distance(oracles.chord_spectrum(cx),
                                           oracles.chord_spectrum(cy))
        worst = max(worst, abs(sd - direct), abs(vl - oracles.vl_assignment(cx, cy)))
    expect(worst < 1e-12, f"transposed table rows = direct pairs (max diff {worst:.1e})")


def mutated(obj, path, fn):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = fn(node[path[-1]])
    return out


def artifact_cases(oracle, run_dir, warm_cache) -> None:
    cli = bench.Cli(run_dir)
    warm = ("--cache-dir", warm_cache)
    small = corpora.diverse_pieces(5, n_pieces=8, length=10)
    corpora.write_plain(run_dir / "small.txt", small)
    pieces = corpora.merged(small)

    cli("fit", "small.txt", "-o", "fit.json", *warm)
    fit = checks.load_json(run_dir / "fit.json")
    expect_passes(checks.check_fit(fit, oracle, pieces), "fit artifact")
    expect_fails(checks.check_fit(mutated(fit, ("result", "cross_entropy_nats"),
                                          lambda v: v * (1 + 1e-8)), oracle, pieces),
                 "fit with cross entropy off by 1e-8 relative")
    expect_fails(checks.check_fit(mutated(fit, ("result", "weights", "harmonicity"),
                                          lambda v: v + 1e-3), oracle, pieces),
                 "fit with one weight off by 1e-3")
    expect_fails(checks.check_fit(fit, oracle, pieces[:-1]), "fit of another corpus")

    cli("importance", "small.txt", "-o", "imp", *warm)
    imp = checks.load_json(run_dir / "imp.json")
    expect_passes(checks.check_importance(imp, oracle, pieces, fit), "importance artifact")
    point = ("corpus_level", "point")
    expect_fails(checks.check_importance(
        mutated(imp, point + ("null_cross_entropy",), lambda v: v + 1e-6), oracle, pieces),
        "importance with a wrong null cross entropy")
    expect_fails(checks.check_importance(
        mutated(imp, point + ("features", "chord_size", "unique_explained_entropy"),
                lambda v: -1e-3), oracle, pieces),
        "importance with a sub-model better than the full model")
    expect_fails(checks.check_importance(
        imp, oracle, pieces,
        mutated(fit, ("result", "weights", "chord_size"), lambda v: v + 1e-6)),
        "importance whose weights differ from fit")

    cli("importance", "small.txt", "-o", "boot", "--bootstrap", 2, *warm)
    boot = checks.load_json(run_dir / "boot.json")
    expect_passes(checks.check_bootstrap(boot, 2, oracle, pieces, imp),
                  "bootstrap artifact (against plain importance)")
    expect_passes(checks.check_bootstrap(boot, 2, oracle, pieces),
                  "bootstrap artifact (against the oracle)")

    def swap(rows):
        rows = copy.deepcopy(rows)
        rows[0]["lower"], rows[0]["upper"] = rows[0]["upper"] + 1.0, rows[0]["lower"]
        return rows
    expect_fails(checks.check_bootstrap(mutated(boot, ("corpus_level", "rows"), swap),
                                        2, oracle, pieces, imp),
                 "bootstrap with lower > upper")
    expect_fails(checks.check_bootstrap(
        mutated(boot, point + ("full_cross_entropy",), lambda v: v + 1e-9),
        2, oracle, pieces, imp), "bootstrap point block differing from importance")
    expect_fails(checks.check_bootstrap(boot, 3, oracle, pieces, imp),
                 "bootstrap with the wrong replicate count")

    tonal = corpora.tonal_pieces(5, n_pieces=6)
    corpora.write_jsonl(run_dir / "t.jsonl", tonal)
    tpieces = corpora.merged(tonal)
    cli("features", "t.jsonl", "-o", "f.csv", *warm)
    rng = np.random.default_rng(0)
    expect_passes(checks.check_features(run_dir / "f.csv", oracle, tpieces, rng),
                  "features artifact")
    text = (run_dir / "f.csv").read_text()
    lines = text.splitlines(keepends=True)
    header = [k for k, line in enumerate(lines) if line.startswith("piece_id")][0]
    cols = lines[header].strip().split(",")

    def corrupt(row_index, column, value, name):
        bad = list(lines)
        cells = bad[header + 1 + row_index].rstrip("\n").split(",")
        # chord cells are quoted and contain commas: index from the right
        cells[len(cells) - len(cols) + cols.index(column)] = value
        bad[header + 1 + row_index] = ",".join(cells) + "\n"
        (run_dir / "bad.csv").write_text("".join(bad))
        expect_fails(checks.check_features(run_dir / "bad.csv", oracle, tpieces,
                                           np.random.default_rng(0), n_sample=10**6),
                     name)
    corrupt(1, "voice_leading_distance_raw", "99.0", "features with a wrong voice-leading value")
    corrupt(1, "spectral_distance_raw", "0.5", "features with a wrong spectral distance")
    corrupt(2, "chord_size_raw", "7.0", "features with a wrong chord size")
    corrupt(0, "voice_leading_distance_std", "1e-300", "features with a non-zero start _std")
    expect_fails(checks.check_features(run_dir / "f.csv", oracle, tpieces[1:], rng),
                 "features of another corpus")

    (run_dir / "w.json").write_text(json.dumps({"weights": corpora.SAMPLE_WEIGHTS}))
    cli("sample", "w.json", "-o", "s.txt", "-n", 200, "--length", 50, "--seed", 1, *warm)
    expect_passes(checks.check_sample(run_dir / "s.txt", 200, 50), "sample artifact")
    good = (run_dir / "s.txt").read_text().splitlines()
    for bad_chord in ("0,0,4", "4,0", "12", "-1", "0,x"):
        first = good[0].split()
        first[0] = bad_chord
        (run_dir / "bad.txt").write_text("\n".join([" ".join(first)] + good[1:]) + "\n")
        expect_fails(checks.check_sample(run_dir / "bad.txt", 200, 50),
                     f"sample with chord {bad_chord!r}")
    cli("fit", "s.txt", "-o", "refit.json", *warm)
    refit = checks.load_json(run_dir / "refit.json")
    sampled = corpora.merged([([tuple(map(int, t.split(","))) for t in line], None)
                              for line in checks.read_plain(run_dir / "s.txt")])
    weights = np.array([corpora.SAMPLE_WEIGHTS[n] for n in checks.FEATURES])
    expect_passes(checks.check_refit(refit, oracle, sampled, weights),
                  "refit of the sample")
    expect_fails(checks.check_refit(refit, oracle, sampled, weights + 0.1),
                 "refit against generating weights off by 0.1")

    (run_dir / "copy.csv").write_bytes((run_dir / "f.csv").read_bytes())
    expect_passes(checks.check_same_bytes(run_dir / "f.csv", run_dir / "copy.csv", "same"),
                  "identical files")
    flipped = bytearray((run_dir / "f.csv").read_bytes())
    flipped[-3] ^= 1
    (run_dir / "copy.csv").write_bytes(bytes(flipped))
    expect_fails(checks.check_same_bytes(run_dir / "f.csv", run_dir / "copy.csv", "flip"),
                 "a file with one flipped bit")


def main() -> int:
    if not (bench.SRC / "chordmodel" / "cli.py").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    run_dir = bench.WORK / "self-test"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        warm_cache = bench.prepare(bench.Cli(run_dir))
        oracle = bench.load_oracle()
        hand_cases()
        model_cases(oracle)
        artifact_cases(oracle, run_dir, warm_cache)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{len(FAILURES)} unexpected result(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
