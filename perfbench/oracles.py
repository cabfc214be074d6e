"""Independent reference computations for checking chordmodel's outputs.

Nothing here imports chordmodel. Each quantity is rebuilt from the
definitions the package documents (README, module docstrings):

- chord spectra: every tone contributes 12 harmonics, partial j with mass
  j**-rho centred at (x + 12*log2 j) mod 12, smoothed by a wrapped Gaussian
  of SD sigma and sampled at k/100, k = 0..1199;
- spectral distance: 1 minus the cosine of two spectra;
- harmonicity: KL divergence in bits, from uniform, of the unit-mass
  profile of cosine similarities between the chord spectrum and a harmonic
  tone template at every grid point; z-scored within each chord size;
- voice-leading distance: minimum-cost bipartite edge cover on the
  chromatic circle, by brute force over covers (small sets) and by the
  classical reduction to one assignment problem (any size);
- standardisation: population mean and SD of each raw feature over all
  4,095 x 4,095 ordered chord pairs; start events take the mean;
- model: one softmax over the 4,095 chords per event, no transposition
  grouping of events.

Chords are indexed by their 12-bit mask minus one (pc 0 = lowest bit).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

N_CHORDS = 4095
RHO, SIGMA, N_HARMONICS, N_BINS = 0.75, 0.0683, 12, 1200
BIN_WIDTH = 12.0 / N_BINS
GRID = np.arange(N_BINS) * BIN_WIDTH


def mask_of(chord) -> int:
    return sum(1 << int(p) for p in set(chord))


def chord_of(index: int) -> tuple[int, ...]:
    m = index + 1
    return tuple(b for b in range(12) if m >> b & 1)


ALL_CHORDS = [chord_of(i) for i in range(N_CHORDS)]
SIZES = np.array([len(c) for c in ALL_CHORDS], dtype=float)


def rotate_mask(m: int, t: int) -> int:
    t %= 12
    return ((m << t) | (m >> (12 - t))) & 0xFFF


# ROT[t, i] = index of chord i transposed up by t semitones
ROT = np.array([[rotate_mask(i + 1, t) - 1 for i in range(N_CHORDS)]
                for t in range(12)], dtype=np.int64)


# ---------------------------------------------------------------------------
# spectra


def circ_dist(a, b):
    d = np.abs(np.asarray(a, dtype=float) - b) % 12.0
    return np.minimum(d, 12.0 - d)


def tone_spectrum(x: float, rho=RHO, sigma=SIGMA, harmonics=N_HARMONICS):
    """Harmonic complex tone at pitch class x, straight from the definition."""
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    out = np.zeros(N_BINS)
    for j in range(1, harmonics + 1):
        centre = (x + 12.0 * math.log2(j)) % 12.0
        out += j ** -rho * norm * np.exp(-0.5 * (circ_dist(GRID, centre) / sigma) ** 2)
    return out


def chord_spectrum(chord, **params):
    return sum(tone_spectrum(float(p), **params) for p in chord)


def spectral_distance(a, b) -> float:
    cos = float(a @ b) / math.sqrt(float(a @ a) * float(b @ b))
    return min(max(1.0 - cos, 0.0), 1.0)


def harmonicity_raw(chord, **params) -> float:
    """Peakiness of the virtual-pitch profile, one template per grid point."""
    w = chord_spectrum(chord, **params)
    templates = np.array([tone_spectrum(p, **params) for p in GRID])
    sim = templates @ w / (np.linalg.norm(templates, axis=1) * np.linalg.norm(w))
    q = np.clip(sim, 0.0, 1.0)
    q = q / (q.sum() * BIN_WIDTH)
    pos = q > 0
    return BIN_WIDTH * float(np.sum(q[pos] * np.log2(12.0 * q[pos])))


# ---------------------------------------------------------------------------
# voice leading


def _circle_costs(xs, ys) -> np.ndarray:
    return circ_dist(np.array(xs, dtype=float)[:, None], np.array(ys, dtype=float)[None, :])


def vl_brute(xs, ys) -> float:
    """Minimum edge cover by enumeration.

    Every edge cover contains, for each note, one edge that covers it; the
    union of those chosen edges is itself a cover. So the minimum runs over
    all maps f: X -> Y and g: Y -> X of the cost of the edge set
    {(x, f(x))} | {(g(y), y)}. Exponential; meant for sets of <= 4 notes.
    """
    xs, ys = sorted(set(xs)), sorted(set(ys))
    c = _circle_costs(xs, ys)
    best = math.inf
    for f in itertools.product(range(len(ys)), repeat=len(xs)):
        for g in itertools.product(range(len(xs)), repeat=len(ys)):
            edges = {(i, f[i]) for i in range(len(xs))}
            edges |= {(g[j], j) for j in range(len(ys))}
            best = min(best, sum(c[i, j] for i, j in edges))
    return float(best)


def vl_assignment(xs, ys) -> float:
    """Minimum edge cover = every note's cheapest edge + the best matching
    on the (clipped, non-positive) reduced costs."""
    c = _circle_costs(sorted(set(xs)), sorted(set(ys)))
    cx, cy = c.min(axis=1), c.min(axis=0)
    reduced = np.minimum(c - cx[:, None] - cy[None, :], 0.0)
    r, k = linear_sum_assignment(reduced)
    return float(cx.sum() + cy.sum() + reduced[r, k].sum())


# ---------------------------------------------------------------------------
# full feature tables


def transposition_classes():
    """Class representative (lowest mask among rotations) and shift per chord.

    chord i == rotate(rep[i], shift[i]).
    """
    rep = np.empty(N_CHORDS, dtype=np.int64)
    shift = np.empty(N_CHORDS, dtype=np.int64)
    for i in range(N_CHORDS):
        rots = ROT[:, i]
        r = int(rots.min())
        rep[i] = r
        shift[i] = next(t for t in range(12) if ROT[t, r] == i)
    reps = np.unique(rep)
    return reps, rep, shift


def build_tables() -> dict[str, np.ndarray]:
    """Raw per-class distance rows, harmonicity and population moments.

    The two distance tables hold one row per transposition class
    representative; d(X, Y) = d(rep, Y transposed down by X's shift), which
    holds because both distances depend only on pitch-class differences.
    Takes about half a minute (1.4 M assignment solves).
    """
    reps, rep, shift = transposition_classes()
    row_of = {int(r): k for k, r in enumerate(reps)}
    spectra = np.array([chord_spectrum(c) for c in ALL_CHORDS])
    unit = spectra / np.linalg.norm(spectra, axis=1, keepdims=True)
    sd_rep = np.clip(1.0 - unit[reps] @ unit.T, 0.0, 1.0)
    vl_rep = np.empty((len(reps), N_CHORDS))
    for n in range(1, 13):
        cols = np.flatnonzero(SIZES == n)
        ys = np.array([ALL_CHORDS[i] for i in cols], dtype=float)
        for k, r in enumerate(reps):
            # vl_assignment, batched over every chord of size n
            xs = np.array(ALL_CHORDS[r], dtype=float)
            c = circ_dist(xs[None, :, None], ys[:, None, :])
            cx, cy = c.min(axis=2), c.min(axis=1)
            red = np.minimum(c - cx[:, :, None] - cy[:, None, :], 0.0)
            base = cx.sum(axis=1) + cy.sum(axis=1)
            for p, col in enumerate(cols):
                i, j = linear_sum_assignment(red[p])
                vl_rep[k, col] = base[p] + red[p][i, j].sum()

    templates = np.array([tone_spectrum(p) for p in GRID])
    templates /= np.linalg.norm(templates, axis=1, keepdims=True)
    q = np.clip(unit @ templates.T, 0.0, 1.0)
    q /= q.sum(axis=1, keepdims=True) * BIN_WIDTH
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(q > 0, q * np.log2(12.0 * q), 0.0)
    harm_raw = BIN_WIDTH * terms.sum(axis=1)
    harm = np.zeros(N_CHORDS)
    for size in range(1, 13):
        g = SIZES == size
        v = harm_raw[g]
        # sizes 1, 11, 12 are single orbits: equal in exact arithmetic, so a
        # spread at round-off level is no spread
        if np.ptp(v) > 1e-9 * abs(v.mean()):
            harm[g] = (v - v.mean()) / v.std()

    orbit = np.array([np.unique(ROT[:, r]).size for r in reps], dtype=float)
    mean = np.empty(4)
    sd = np.empty(4)
    mean[0], sd[0] = SIZES.mean(), SIZES.std()
    mean[1], sd[1] = harm.mean(), harm.std()
    for k, table in ((2, sd_rep), (3, vl_rep)):
        n = orbit.sum() * N_CHORDS
        m1 = float(orbit @ table.sum(axis=1)) / n
        m2 = float(orbit @ (table * table).sum(axis=1)) / n
        mean[k], sd[k] = m1, math.sqrt(m2 - m1 * m1)
    return {
        "reps": reps, "rep_row": np.array([row_of[int(r)] for r in rep]),
        "shift": shift, "sd_rep": sd_rep, "vl_rep": vl_rep,
        "harm": harm, "mean": mean, "sd": sd,
    }


class FeatureOracle:
    """Standardised feature rows for any context, from build_tables()."""

    def __init__(self, tables: dict[str, np.ndarray]) -> None:
        self.t = tables
        mean, sd = tables["mean"], tables["sd"]
        self.size_std = (SIZES - mean[0]) / sd[0]
        self.harm_std = (tables["harm"] - mean[1]) / sd[1]
        self.start = np.zeros((N_CHORDS, 4))
        self.start[:, 0] = self.size_std
        self.start[:, 1] = self.harm_std

    def raw(self, ctx: int, cur: int) -> tuple[float, float]:
        """Raw spectral and voice-leading distance of one transition."""
        row = self.t["rep_row"][ctx]
        rel = ROT[(-self.t["shift"][ctx]) % 12, cur]
        return float(self.t["sd_rep"][row, rel]), float(self.t["vl_rep"][row, rel])

    def rows(self, ctx: int | None) -> np.ndarray:
        """(4095, 4) standardised features of ctx -> every chord."""
        if ctx is None:
            return self.start
        t = self.t
        row = t["rep_row"][ctx]
        perm = ROT[(-t["shift"][ctx]) % 12]
        out = np.empty((N_CHORDS, 4))
        out[:, 0] = self.size_std
        out[:, 1] = self.harm_std
        out[:, 2] = (t["sd_rep"][row, perm] - t["mean"][2]) / t["sd"][2]
        out[:, 3] = (t["vl_rep"][row, perm] - t["mean"][3]) / t["sd"][3]
        return out

    def cost_gradient(self, pieces, weights, mask=None):
        """Total negative log-likelihood (nats) and its gradient, event-wise.

        pieces: chord-tuple lists after preprocessing. Events that share the
        same context chord share one softmax; no transposition grouping.
        """
        w = np.asarray(weights, dtype=float)
        if mask is not None:
            w = np.where(mask, w, 0.0)
        by_ctx: dict[int | None, list[int]] = {}
        for chords in pieces:
            prev = None
            for c in chords:
                cur = mask_of(c) - 1
                by_ctx.setdefault(prev, []).append(cur)
                prev = cur
        terms = []
        grad = np.zeros(4)
        for ctx in sorted(by_ctx, key=lambda k: -1 if k is None else k):
            cur = np.array(by_ctx[ctx])
            feats = self.rows(ctx)
            scores = feats @ w
            top = scores.max()
            log_z = top + math.log(float(np.exp(scores - top).sum()))
            terms.extend((log_z - scores[cur]).tolist())
            probs = np.exp(scores - log_z)
            grad += len(cur) * (probs @ feats) - feats[cur].sum(axis=0)
        return math.fsum(terms), grad, len(terms)

    def fisher(self, pieces, weights) -> np.ndarray:
        """Summed per-event Fisher information (feature covariance)."""
        w = np.asarray(weights, dtype=float)
        info = np.zeros((4, 4))
        counts: dict[int | None, int] = {}
        for chords in pieces:
            prev = None
            for c in chords:
                counts[prev] = counts.get(prev, 0) + 1
                prev = mask_of(c) - 1
        for ctx, n in counts.items():
            feats = self.rows(ctx)
            scores = feats @ w
            p = np.exp(scores - scores.max())
            p /= p.sum()
            mu = p @ feats
            info += n * ((feats * p[:, None]).T @ feats - np.outer(mu, mu))
        return info
