"""Exhaustively validate the production voice-leading solver.

Compares the staircase/rotation dynamic program against an independent
minimum-weight edge-cover solver built on the classical reduction to an
assignment problem: pay every note its cheapest incident edge, then correct
with a minimum matching over clipped reduced costs.

By transposition invariance every chord pair (X, Y) is equivalent to
(rep(X), Y - shift(X)), so checking all 351 class representatives against
all 4,095 chords covers the entire 4,095 x 4,095 domain.

Usage:
    python3 scripts/verify_voice_leading.py            # full domain
    python3 scripts/verify_voice_leading.py --sample 20000
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
from scipy.optimize import linear_sum_assignment

from chordmodel.pcset import N_PITCH_CLASSES, enumerate_alphabet
from chordmodel.voiceleading import voice_leading_distance, voice_leading_matrix

BIG = 1e9


def edge_cover_assignment(xs: tuple[int, ...], ys: tuple[int, ...]) -> float:
    """Minimum-weight bipartite edge cover via one assignment solve."""
    m, n = len(xs), len(ys)
    w = np.empty((m, n))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            d = abs(x - y)
            w[i, j] = min(d, N_PITCH_CLASSES - d)
    cx = w.min(axis=1)
    cy = w.min(axis=0)
    reduced = np.minimum(w - cx[:, None] - cy[None, :], 0.0)
    cost = np.full((m + n, m + n), BIG)
    cost[:m, :n] = reduced
    cost[m:, n:] = 0.0
    for i in range(m):
        cost[i, n + i] = 0.0
    for j in range(n):
        cost[m + j, j] = 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cx.sum() + cy.sum() + cost[rows, cols].sum())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sample", type=int, default=0,
                        help="check only this many random (class, chord) pairs")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    alphabet = enumerate_alphabet()
    t0 = time.time()
    produced = voice_leading_matrix(alphabet)
    print(f"production matrix ({produced.shape[0]} x {produced.shape[1]}) "
          f"built in {time.time() - t0:.1f} s")

    if args.sample:
        rng = np.random.default_rng(args.seed)
        rows = rng.integers(0, alphabet.n_classes, size=args.sample)
        cols = rng.integers(0, len(alphabet), size=args.sample)
        pairs = list(zip(rows.tolist(), cols.tolist()))
    else:
        pairs = [(r, c) for r in range(alphabet.n_classes)
                 for c in range(len(alphabet))]

    t0 = time.time()
    mismatches = 0
    for k, (r, c) in enumerate(pairs):
        rep = alphabet[int(alphabet.rep_ids[r])]
        chord = alphabet[c]
        expect = edge_cover_assignment(rep, chord)
        if abs(produced[r, c] - expect) > 1e-9:
            mismatches += 1
            if mismatches <= 20:
                print(f"MISMATCH rep={rep} chord={chord} "
                      f"dp={produced[r, c]} cover={expect}")
        if (k + 1) % 100000 == 0:
            print(f"  {k + 1}/{len(pairs)} checked "
                  f"({(time.time() - t0):.0f} s elapsed)")

    # the scalar entry point is a separate pure-Python implementation of the
    # same dynamic program; check it independently on a subsample
    rng = np.random.default_rng(args.seed + 1)
    scalar_bad = 0
    for _ in range(1500):
        a = alphabet[int(rng.integers(0, len(alphabet)))]
        b = alphabet[int(rng.integers(0, len(alphabet)))]
        if abs(voice_leading_distance(a, b) - edge_cover_assignment(a, b)) > 1e-9:
            scalar_bad += 1
            if scalar_bad <= 20:
                print(f"SCALAR MISMATCH {a} {b}")

    print(f"checked {len(pairs)} matrix pairs: {mismatches} mismatches")
    print(f"checked 1500 scalar pairs: {scalar_bad} mismatches")
    return 0 if mismatches == 0 and scalar_bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
