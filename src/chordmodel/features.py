"""The four transition features and their standardization rules.

Features of a chord transition (prev -> cur):

- chord size: number of pitch classes in cur.
- harmonicity: peakiness (KL divergence from uniform, in bits) of the
  virtual pitch-class spectrum of cur, z-scored within its chord-size group.
- spectral distance: 1 minus cosine similarity of the spectra of prev and cur.
- voice-leading distance: minimal total wrapped motion from prev to cur.

All four are finally scaled by the population mean and SD over the set of
all 4,095 x 4,095 ordered chord pairs. When a chord has no predecessor the
sequential features are imputed with the population mean, hence standardize
to exactly 0.

FeatureSpace bundles every per-alphabet table (pairwise distance matrices
keyed by transposition class, harmonicity table, standardization stats,
standardized feature tables) and is the unit of caching: everything
downstream (model fitting, importance, the command line) reads from it.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import replacing
from .corpus import relative_ids
from .pcset import (
    N_PITCH_CLASSES,
    ChordAlphabet,
    PcSet,
    as_pcset,
    enumerate_alphabet,
)
from .spectrum import (
    SpectrumParams,
    Spectrum,
    pcset_spectrum,
    tone_autocorrelation,
    tone_correlations,
    tone_similarity_profile,
)
from .voiceleading import VL_MATRIX_SHA256, voice_leading_matrix

FEATURE_NAMES = (
    "chord_size",
    "harmonicity",
    "spectral_distance",
    "voice_leading_distance",
)
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class HarmonicityTable:
    """Raw and size-normalized harmonicity for every alphabet chord."""

    raw: np.ndarray
    normalized: np.ndarray


@dataclass(frozen=True)
class TransitionFeatureStats:
    """Population mean and SD of each raw feature over all ordered pairs."""

    mean: np.ndarray
    sd: np.ndarray

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        return (np.asarray(raw, dtype=float) - self.mean) / self.sd


def virtual_pitch_spectrum(
    x: PcSet,
    params: SpectrumParams = SpectrumParams(),
    literal_q: bool = False,
) -> Spectrum:
    """Unit-mass profile of template-match strength across all 1,200 bins.

    Each bin p holds the spectral similarity (1 minus spectral distance)
    between the harmonic tone template at p and the spectrum of x, then the
    profile is normalized so its rectangle-rule integral is 1. Peaks mark
    virtual pitches. With literal_q the profile is built from the distance
    itself instead of the similarity (kept for comparison; it peaks at the
    worst template matches).
    """
    x = as_pcset(x)
    if not x:
        raise ValueError("virtual pitch spectrum needs a non-empty pitch-class set")
    sim = tone_similarity_profile(pcset_spectrum(x, params), params)
    q = (1.0 - sim) if literal_q else sim
    mass = q.sum() * params.bin_width
    if mass == 0.0:
        raise ValueError("virtual pitch profile has zero mass")
    return q / mass


def _kl_from_uniform(q_prime: np.ndarray, bin_width: float) -> float:
    """KL divergence in bits of a unit-mass profile from the uniform density."""
    q = np.asarray(q_prime, dtype=float)
    positive = q > 0.0
    vals = q[positive] * np.log2(N_PITCH_CLASSES * q[positive])
    return bin_width * float(np.sum(vals))


def harmonicity_raw(
    x: PcSet,
    params: SpectrumParams = SpectrumParams(),
    literal_q: bool = False,
) -> float:
    """Peakiness of the virtual pitch-class spectrum, in bits; >= 0."""
    return _kl_from_uniform(
        virtual_pitch_spectrum(x, params, literal_q), params.bin_width
    )


def build_harmonicity_table(
    alphabet: ChordAlphabet,
    params: SpectrumParams = SpectrumParams(),
    literal_q: bool = False,
) -> HarmonicityTable:
    """Raw harmonicity for all chords, z-scored within chord-size groups.

    Raw values are computed once per transposition class and broadcast over
    each orbit, so transposition invariance holds exactly. They follow
    harmonicity_raw, for all classes at once: each class's tone-similarity
    profile comes from tone_correlations, not from an FFT of its spectrum.
    Z-scores use the population SD; zero-variance size groups (1, 11 and 12
    notes, each a single transposition orbit) map to 0.
    """
    reps = [alphabet[int(rep_id)] for rep_id in alphabet.rep_ids]
    corr = tone_correlations(reps, params)
    # |S_X|^2 sums the inner products of S_X with the spectra of its own tones
    members = (alphabet.masks[alphabet.rep_ids, None] >> np.arange(N_PITCH_CLASSES)) & 1
    norm = np.sqrt((corr[:, :: params.bins_per_pc] * members).sum(axis=1))
    template_norm = math.sqrt(tone_autocorrelation(params)[0])
    sim = np.clip(corr / (norm[:, None] * template_norm), 0.0, 1.0)
    q = (1.0 - sim) if literal_q else sim
    q /= q.sum(axis=1, keepdims=True) * params.bin_width
    log_q = np.log2(N_PITCH_CLASSES * q, out=np.zeros_like(q), where=q > 0.0)
    rep_raw = params.bin_width * (q * log_q).sum(axis=1)
    raw = rep_raw[alphabet.rep_row]
    normalized = np.zeros(len(alphabet))
    for size in range(1, N_PITCH_CLASSES + 1):
        group = alphabet.sizes == size
        values = raw[group]
        # sizes 1, 11 and 12 are single transposition orbits, hence constant;
        # comparing extremes avoids round-off posing as spread
        if np.ptp(values) > 0.0:
            normalized[group] = (values - values.mean()) / values.std()
    return HarmonicityTable(raw=raw, normalized=normalized)


def pair_population_moments(
    values: np.ndarray, orbit_sizes: np.ndarray
) -> tuple[float, float]:
    """Population mean and variance of a per-(class, chord) value matrix.

    values[r, c] is the feature value of the transition (representative of
    class r -> chord c). Weighting row r by its orbit size reproduces the
    moments over all ordered chord pairs exactly, because transposing a
    context permutes its continuation row rather than changing its values.
    """
    v = np.asarray(values, dtype=float)
    w = np.asarray(orbit_sizes, dtype=float)
    n = w.sum() * v.shape[1]
    mean = float(w @ v.sum(axis=1)) / n
    second = float(w @ (v * v).sum(axis=1)) / n
    return mean, second - mean * mean


def build_transition_stats(
    alphabet: ChordAlphabet,
    table: HarmonicityTable,
    spectral_matrix: np.ndarray,
    vl_matrix: np.ndarray,
) -> TransitionFeatureStats:
    """Exact moments of the four raw features over all 4095^2 ordered pairs.

    Chord size and harmonicity depend only on the continuation, so their
    pair-population moments equal plain per-chord moments. The sequential
    features are aggregated from the per-class matrices with orbit weights.
    """
    sizes = alphabet.sizes.astype(float)
    mean = np.empty(N_FEATURES)
    var = np.empty(N_FEATURES)
    mean[0], var[0] = float(sizes.mean()), float(sizes.var())
    mean[1], var[1] = float(table.normalized.mean()), float(table.normalized.var())
    mean[2], var[2] = pair_population_moments(spectral_matrix, alphabet.rep_orbit_sizes)
    mean[3], var[3] = pair_population_moments(vl_matrix, alphabet.rep_orbit_sizes)
    if np.any(var <= 0.0):
        raise ValueError("degenerate feature population (zero variance)")
    return TransitionFeatureStats(mean=mean, sd=np.sqrt(var))


class FeatureSpace:
    """All per-alphabet feature tables, built once per parameter set.

    Key members:

    - spectral_matrix, vl_matrix: raw distances, shape (n_classes, 4095),
      row r = transition (class-r representative -> chord c). Distances for
      an arbitrary transition are read at its (class row, relative id), see
      corpus.transition_classes. vl_matrix is the pinned uint8 array (every
      distance is a whole number of semitones); spectral_matrix is float64.
    - table: HarmonicityTable; stats: TransitionFeatureStats.
    - standardized: one table per feature. A context-free feature (chord
      size, harmonicity) is a column of shape (4095,); a sequential one
      (spectral and voice-leading distance) is a matrix of shape
      (n_classes + 1, 4095): the class rows laid out like the raw distances,
      then one row of exact zeros for the start context, which imputes the
      population mean. A start event with chord j thus reads row -1 at
      column j, the same (row, id) gather as any transition.
    """

    def __init__(
        self,
        params: SpectrumParams = SpectrumParams(),
        literal_q: bool = False,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.params = params
        self.literal_q = literal_q
        self.alphabet = enumerate_alphabet()
        al = self.alphabet

        # inner[r, m] is the inner product of the class-r representative's
        # spectrum with the spectrum of the chord whose mask is m; adding pitch
        # class p to every mask below 2**p fills the masks below 2**(p + 1)
        reps = [al[int(rep_id)] for rep_id in al.rep_ids]
        tones = tone_correlations(reps, params)[:, :: params.bins_per_pc]
        inner = np.zeros((al.n_classes, 2**N_PITCH_CLASSES))
        for p in range(N_PITCH_CLASSES):
            inner[:, 2**p : 2 ** (p + 1)] = inner[:, : 2**p] + tones[:, p, None]
        inner = np.take(inner, al.masks, axis=1)  # C order, unlike inner[:, masks]
        norm = np.sqrt(inner[np.arange(al.n_classes), al.rep_ids])
        # 1 - cosine in place: each freed temporary of this size would stay
        # in the heap and add about 11 MB to the resident set
        inner /= norm[:, None] * norm[al.rep_row]
        np.subtract(1.0, inner, out=inner)
        self.spectral_matrix = np.clip(inner, 0.0, 1.0, out=inner)
        self.vl_matrix = self._cached_vl_matrix(cache_dir)

        self.table = build_harmonicity_table(al, params, literal_q)
        self.stats = build_transition_stats(
            al, self.table, self.spectral_matrix, self.vl_matrix
        )

        mean, sd = self.stats.mean, self.stats.sd
        standardized = [(al.sizes.astype(float) - mean[0]) / sd[0],
                        (self.table.normalized - mean[1]) / sd[1]]
        for k, raw in enumerate((self.spectral_matrix, self.vl_matrix), start=2):
            # (raw - mean) / sd bit for bit, written in place so that no
            # table-sized temporary grows the heap; the last row (the start
            # context, row -1) stays 0
            table = np.zeros((al.n_classes + 1, len(al)))
            np.subtract(raw, mean[k], out=table[:-1])
            np.divide(table[:-1], sd[k], out=table[:-1])
            standardized.append(table)
        self.standardized = tuple(standardized)
        self.feature_names = FEATURE_NAMES

    @property
    def n_features(self) -> int:
        return len(self.standardized)

    @cached_property
    def table_bounds(self) -> tuple[float, ...]:
        """max |table| of each standardized table, computed on first use
        (by EnergyModel) and without a table-sized temporary."""
        return tuple(max(float(t.max()), -float(t.min())) for t in self.standardized)

    def _cached_vl_matrix(self, cache_dir: str | Path | None) -> np.ndarray:
        """The pinned voice-leading matrix, read from or saved to
        cache_dir/voiceleading-<VL_MATRIX_SHA256[:16]>.npy."""
        al = self.alphabet

        def pinned(m: np.ndarray) -> bool:
            digest = hashlib.sha256(m.tobytes()).hexdigest()
            return (m.dtype, m.shape, digest) == (
                np.uint8, (al.n_classes, len(al)), VL_MATRIX_SHA256)

        if cache_dir is not None:
            path = Path(cache_dir) / f"voiceleading-{VL_MATRIX_SHA256[:16]}.npy"
            # an unusable directory fails here, before the build
            path.parent.mkdir(parents=True, exist_ok=True)
            # a missing, truncated or not .npy file is rebuilt like a wrong one
            with suppress(OSError, ValueError, EOFError), path.open("rb") as fh:
                stored = np.lib.format.read_array(fh)
                if pinned(stored):
                    return stored
        stored = np.asarray(voice_leading_matrix(al), dtype=np.uint8)
        if not pinned(stored):
            raise RuntimeError("voice-leading matrix does not match VL_MATRIX_SHA256")
        if cache_dir is not None:
            with replacing(path) as (tmp,), open(tmp, "wb") as fh:
                np.save(fh, stored)
        return stored

    def raw_transition_values(
        self, context_id: int | None, continuation_id: int
    ) -> np.ndarray:
        """Raw (unstandardized) feature values of one transition."""
        al = self.alphabet
        out = np.empty(N_FEATURES)
        out[0] = float(al.sizes[continuation_id])
        out[1] = float(self.table.normalized[continuation_id])
        if context_id is None:
            out[2] = self.stats.mean[2]
            out[3] = self.stats.mean[3]
        else:
            row = al.rep_row[context_id]
            rel = relative_ids(context_id, continuation_id, al)
            out[2] = self.spectral_matrix[row, rel]
            out[3] = self.vl_matrix[row, rel]
        return out


_SPACES: dict[tuple, FeatureSpace] = {}


def get_feature_space(
    params: SpectrumParams = SpectrumParams(),
    literal_q: bool = False,
    cache_dir: str | Path | None = None,
) -> FeatureSpace:
    """Process-wide memoized FeatureSpace, one per parameter set and resolved
    cache_dir (about 3 s to construct without a cached voice-leading matrix,
    0.1 s with one)."""
    key = (params, literal_q, None if cache_dir is None else Path(cache_dir).resolve())
    if key not in _SPACES:
        _SPACES[key] = FeatureSpace(params, literal_q, cache_dir)
    return _SPACES[key]
