"""Minimal voice-leading distance between pitch-class sets.

A voice leading from X to Y assigns every member of X to at least one member
of Y and vice versa (a bipartite edge cover); its size is the sum of wrapped
semitone distances over the assigned pairs. The distance returned here is
the minimum size over all voice leadings.

An optimal cover never needs crossing edges on the chromatic circle, and
every inclusion-minimal non-crossing cover contains at least one "diagonal"
transition (a pair of edges x_{i-1}-y_{j-1}, x_i-y_j adjacent on both
circles). Cutting both circles at such a transition unrolls the cover into a
monotone staircase, so the optimum is found by scoring the standard
three-move dynamic program over all rotation pairs of the two sorted sets.
One-sided rotation is not enough: the cheapest cover of {1,2,3,4,5,11} by
{1,2} sends 11 backward to 1, which no rotation of {1,2} alone can express.
voice_leading_distance is the one-pair reference. The full-domain check in
scripts/verify_voice_leading.py compares voice_leading_matrix with an
independent edge-cover solver on all 351 x 4,095 class/chord pairs.
"""

from __future__ import annotations

import numpy as np

from .pcset import N_PITCH_CLASSES, ChordAlphabet, PcSet, as_pcset

# SHA-256 of voice_leading_matrix(enumerate_alphabet()).tobytes(); the
# voice-leading cache trusts a file, and a fresh build, only with this digest,
# and names its file voiceleading-<first 16 hex digits>.npy
VL_MATRIX_SHA256 = "9bffdfb743ab0563a99a8ec60501608bd2371e696a9185e0a39db694576dd944"


def _staircase_cost(cost: list[list[float]], m: int, n: int) -> float:
    """Minimal monotone edge-cover cost for one unrolled alignment."""
    acc = [row[:] for row in cost]
    for j in range(1, n):
        acc[0][j] += acc[0][j - 1]
    for i in range(1, m):
        acc[i][0] += acc[i - 1][0]
        for j in range(1, n):
            acc[i][j] += min(acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1])
    return acc[m - 1][n - 1]


def voice_leading_distance(a: PcSet, b: PcSet) -> float:
    """Minimal total wrapped motion of any voice leading between two sets."""
    xs = as_pcset(a)
    ys = as_pcset(b)
    if not xs or not ys:
        raise ValueError("voice-leading distance needs non-empty pitch-class sets")
    m, n = len(xs), len(ys)
    base = [
        [float(min(abs(x - y), N_PITCH_CLASSES - abs(x - y))) for y in ys]
        for x in xs
    ]
    best = float("inf")
    for r in range(m):
        rows = [base[(i + r) % m] for i in range(m)]
        for s in range(n):
            cost = [[row[(j + s) % n] for j in range(n)] for row in rows]
            best = min(best, _staircase_cost(cost, m, n))
    return best


def voice_leading_matrix(alphabet: ChordAlphabet) -> np.ndarray:
    """Voice-leading distances from every transposition class to every chord.

    Returns a (n_classes, n_chords) uint8 array whose row order follows
    alphabet.rep_ids. Distances for the remaining contexts are recovered by
    permutation: d(X, Y) = d(X - t, Y - t) for the shift t that maps X onto
    its class representative.

    For each (context size m, chord size n) block, the wrapped distances of
    all m * n rotation pairs are gathered into one array of shape
    (rows, chords, m, n, m, n); the staircase dynamic program runs once over
    its last two axes.
    """
    out = np.empty((alphabet.n_classes, len(alphabet)), dtype=np.uint8)
    for m in range(1, N_PITCH_CLASSES + 1):
        rows = np.flatnonzero(alphabet.sizes[alphabet.rep_ids] == m)
        xs = np.array([alphabet[int(alphabet.rep_ids[r])] for r in rows])
        rot_x = (np.arange(m)[:, None] + np.arange(m)) % m
        for n in range(1, N_PITCH_CLASSES + 1):
            ids = np.flatnonzero(alphabet.sizes == n)
            ys = np.array([alphabet[int(i)] for i in ids])
            rot_y = (np.arange(n)[:, None] + np.arange(n)) % n
            # context rows per chunk, so that acc holds about 2**24 bytes
            step = max(1, 2**24 // (len(ids) * (m * n) ** 2))
            for lo in range(0, len(rows), step):
                diff = np.abs(xs[lo : lo + step, None, :, None] - ys[None, :, None, :])
                base = np.minimum(diff, N_PITCH_CLASSES - diff).astype(np.uint8)
                # acc[..., r, s, i, j] = base[..., (i + r) % m, (j + s) % n]. uint8 is
                # exact: a path sums at most m + n - 1 <= 23 steps of <= 6, 138 < 256
                acc = base[:, :, rot_x[:, None, :, None], rot_y[None, :, None, :]]
                for j in range(1, n):
                    acc[..., 0, j] += acc[..., 0, j - 1]
                for i in range(1, m):
                    acc[..., i, 0] += acc[..., i - 1, 0]
                    for j in range(1, n):
                        up = np.minimum(acc[..., i - 1, j - 1], acc[..., i - 1, j])
                        acc[..., i, j] += np.minimum(up, acc[..., i, j - 1])
                best = acc[..., m - 1, n - 1].min(axis=(2, 3))
                out[np.ix_(rows[lo : lo + step], ids)] = best
    return out
