"""Seeded corpus and weight generators for the benchmark workloads.

Every input is drawn here with numpy's generator keyed by the workload seed,
never with chordmodel's own sampler, so a change to the program cannot
change what the benchmark feeds it.
"""

from __future__ import annotations

import bisect
import json

import numpy as np

MAJOR_SCALE = (0, 2, 4, 5, 7, 9, 11)

# Functional-harmony transition weights between scale degrees (I..vii).
# Common-practice moves dominate; every other move keeps a small weight, so
# the corpus collapses to about 140 groups over the 7 diatonic chord types.
DEGREE_WEIGHTS = np.array([
    # I    ii   iii  IV   V    vi   vii
    [0.0, 3.0, 1.0, 5.0, 6.0, 3.0, 1.0],   # I
    [1.0, 0.0, 0.3, 1.0, 6.0, 0.3, 2.0],   # ii
    [0.3, 0.3, 0.0, 3.0, 0.3, 5.0, 0.3],   # iii
    [5.0, 2.0, 0.3, 0.0, 6.0, 0.3, 1.0],   # IV
    [8.0, 0.3, 0.3, 1.0, 0.0, 3.0, 0.3],   # V
    [0.3, 4.0, 0.3, 4.0, 3.0, 0.0, 0.3],   # vi
    [6.0, 0.3, 2.0, 0.3, 0.3, 0.3, 0.0],   # vii
])
START_DEGREES = (0, 0, 0, 5, 3)
SEVENTH_PROB = (0.25, 0.35, 0.2, 0.25, 0.5, 0.3, 0.5)
REPEAT_PROB = 0.04      # immediate repeats, merged away by preprocessing

# Generating weights for the sample/refit round trip (standardized units).
SAMPLE_WEIGHTS = {
    "chord_size": -0.3,
    "harmonicity": 0.5,
    "spectral_distance": -0.5,
    "voice_leading_distance": -1.0,
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def diatonic_chord(key: int, degree: int, seventh: bool) -> tuple[int, ...]:
    """Stacked-thirds chord on a scale degree of a major key."""
    steps = (0, 2, 4, 6) if seventh else (0, 2, 4)
    return tuple(sorted({(key + MAJOR_SCALE[(degree + s) % 7]) % 12
                         for s in steps}))


def tonal_pieces(seed: int, n_pieces: int = 2500, mean_length: int = 41,
                 stream: int = 1):
    """Diatonic triad/seventh progressions in all 12 keys.

    Returns a list of (chords, bass) per piece; bass is the chord root.
    """
    rng = _rng(seed, stream)
    cum = np.cumsum(DEGREE_WEIGHTS, axis=1)
    cum = (cum / cum[:, -1:]).tolist()
    chord_of = {(k, d, s): diatonic_chord(k, d, s)
                for k in range(12) for d in range(7) for s in (False, True)}
    pieces = []
    for _ in range(n_pieces):
        key = int(rng.integers(12))
        length = int(rng.integers(mean_length - 8, mean_length + 9))
        degree = START_DEGREES[int(rng.integers(len(START_DEGREES)))]
        seventh = False
        chords, bass = [], []
        for k, (u_rep, u_deg, u_sev) in enumerate(rng.random((length, 3)).tolist()):
            if k > 0 and u_rep >= REPEAT_PROB:
                degree = min(bisect.bisect(cum[degree], u_deg), 6)
                seventh = u_sev < SEVENTH_PROB[degree]
            chords.append(chord_of[key, degree, seventh])
            bass.append((key + MAJOR_SCALE[degree]) % 12)
        pieces.append((chords, bass))
    return pieces


def diverse_pieces(seed: int, n_pieces: int = 12, length: int = 30,
                   stream: int = 2):
    """Random walks over all 4,095 pitch-class sets (bit flips on 12 bits)."""
    rng = _rng(seed, stream)
    pieces = []
    for _ in range(n_pieces):
        mask = int(rng.integers(1, 4096))
        chords = []
        for k in range(length):
            if k > 0 and rng.random() >= REPEAT_PROB:
                while True:
                    flips = rng.choice(12, size=int(rng.integers(1, 4)),
                                       replace=False)
                    new = mask
                    for b in flips:
                        new ^= 1 << int(b)
                    if new:
                        mask = new
                        break
            chords.append(tuple(b for b in range(12) if mask >> b & 1))
        pieces.append((chords, None))
    return pieces


def small_pieces(seed: int):
    """Small bass-less tonal corpus: the first 20 pieces of tonal_pieces."""
    return [(chords, None) for chords, _ in tonal_pieces(seed, n_pieces=20)]


def write_jsonl(path, pieces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (chords, bass) in enumerate(pieces):
            obj = {"id": f"p{i:05d}", "chords": [list(c) for c in chords]}
            if bass is not None:
                obj["bass"] = bass
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def write_plain(path, pieces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for chords, _ in pieces:
            fh.write(" ".join(",".join(map(str, c)) for c in chords) + "\n")


def merged(pieces):
    """Chord lists after the documented preprocessing: drop immediate
    repeats of (set, bass), then drop the bass."""
    out = []
    for chords, bass in pieces:
        bass = bass if bass is not None else [None] * len(chords)
        kept, last = [], None
        for ev in zip(chords, bass):
            if ev != last:
                kept.append(ev[0])
            last = ev
        out.append(kept)
    return out


# Each workload's bootstrap runs on a corpus that does not depend on --seed.
# Whether a replicate's sub-fits converge depends on the corpus (see the
# GRADIENT_TOL fault in README.md); on a fixed corpus the failed replicates
# are the same operations, failing the same way, in every run.
FIXED_SEED = 0
TONAL_FIXED_STREAM, DIVERSE_FIXED_STREAM = 3, 4


def write_inputs(workload: str, seed: int, run_dir) -> dict:
    """Write a workload's input files into run_dir; return the merged
    chord lists the checks compare against, keyed by file name. The seeded
    corpus comes first, the fixed bootstrap corpus last."""
    if workload == "tonal-large":
        files = {"tonal.jsonl": tonal_pieces(seed),
                 "tonal-fixed.jsonl": tonal_pieces(FIXED_SEED, stream=TONAL_FIXED_STREAM)}
    elif workload == "diverse-small":
        files = {"diverse.txt": diverse_pieces(seed),
                 "diverse-fixed.txt": diverse_pieces(FIXED_SEED,
                                                     stream=DIVERSE_FIXED_STREAM)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for name, pieces in files.items():
        (write_jsonl if name.endswith(".jsonl") else write_plain)(run_dir / name, pieces)
    (run_dir / "weights.json").write_text(
        json.dumps({"weights": SAMPLE_WEIGHTS}), encoding="utf-8")
    return {name: merged(pieces) for name, pieces in files.items()}
