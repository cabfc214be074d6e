"""Discretized pitch-class spectra and spectral distance.

A spectrum is a length-1,200 numpy array of perceptual weight sampled at the
left endpoints p = k/100 of a rectangle-rule grid over [0, 12). One hundred
bins per semitone means transposing a chord by t semitones shifts its
spectrum by exactly 100*t bins.

Chord tones are expanded into 12 harmonics; the j-th partial contributes a
Gaussian of mass j**-rho centered at (x + 12*log2 j) mod 12 with standard
deviation sigma, evaluated with the wrapped circle distance (no truncation
window). Spectral distance between two spectra is 1 minus their cosine
similarity; the rectangle-rule interval width cancels in the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pcset import N_PITCH_CLASSES, PcSet

Spectrum = np.ndarray


@dataclass(frozen=True)
class SpectrumParams:
    """Roll-off, Gaussian SD, harmonic count, and grid resolution.

    Defaults follow the psychoacoustic model this feature set is built on:
    rho = 0.75, sigma = 0.0683, 12 harmonics, 1,200 bins.
    """

    rho: float = 0.75
    sigma: float = 0.0683
    n_harmonics: int = 12
    n_bins: int = 1200

    def __post_init__(self) -> None:
        if not (0 < self.rho < math.inf):
            raise ValueError(f"rho must be positive and finite, got {self.rho}")
        if not (0 < self.sigma < math.inf):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.n_harmonics < 1:
            raise ValueError(f"need at least one harmonic, got {self.n_harmonics}")
        if self.n_bins < N_PITCH_CLASSES or self.n_bins % N_PITCH_CLASSES != 0:
            raise ValueError(
                f"n_bins must be a positive multiple of 12, got {self.n_bins}"
            )

    @property
    def bins_per_pc(self) -> int:
        return self.n_bins // N_PITCH_CLASSES

    @property
    def bin_width(self) -> float:
        return N_PITCH_CLASSES / self.n_bins


def partial_pitch_class(x: float, j: int) -> float:
    """Pitch class of the j-th partial of a harmonic complex tone rooted at x."""
    return (x + N_PITCH_CLASSES * math.log2(j)) % N_PITCH_CLASSES


def bin_grid(params: SpectrumParams) -> np.ndarray:
    """Left-endpoint grid points p = k * 12 / n_bins."""
    return np.arange(params.n_bins) * params.bin_width


def _tone_gaussians(x: float, params: SpectrumParams) -> Spectrum:
    """Sum of the partials' wrapped Gaussians for fundamental pitch class x."""
    grid = bin_grid(params)
    out = np.zeros(params.n_bins)
    norm = 1.0 / (params.sigma * math.sqrt(2.0 * math.pi))
    for j in range(1, params.n_harmonics + 1):
        level = j ** -params.rho
        mean = partial_pitch_class(x, j)
        diff = np.abs(grid - mean)
        d = np.minimum(diff, N_PITCH_CLASSES - diff)
        out += level * norm * np.exp(-0.5 * (d / params.sigma) ** 2)
    return out


@lru_cache(maxsize=8)
def _base_tone_spectrum(params: SpectrumParams) -> Spectrum:
    """Spectrum of a harmonic complex tone with fundamental pitch class 0."""
    out = _tone_gaussians(0.0, params)
    out.setflags(write=False)
    return out


def harmonic_tone_spectrum(
    x: float, params: SpectrumParams = SpectrumParams()
) -> Spectrum:
    """Spectrum of a harmonic complex tone with fundamental pitch class x.

    Grid-aligned fundamentals (x a multiple of the bin width, which covers
    all integer chord tones) are produced as exact circular shifts of the
    x = 0 template, so transposition equivariance holds bit-for-bit.
    """
    x = float(x) % N_PITCH_CLASSES
    base = _base_tone_spectrum(params)
    shift = x / params.bin_width
    shift_int = round(shift)
    if math.isclose(shift, shift_int, abs_tol=1e-9):
        return np.roll(base, shift_int % params.n_bins)
    return _tone_gaussians(x, params)


def pcset_spectrum(x: PcSet, params: SpectrumParams = SpectrumParams()) -> Spectrum:
    """Spectrum of a pitch-class set: perceptual weights combine additively."""
    if not x:
        raise ValueError("cannot build a spectrum for an empty pitch-class set")
    out = np.zeros(params.n_bins)
    for member in x:
        out += harmonic_tone_spectrum(member, params)
    return out


def spectral_distance(a: Spectrum, b: Spectrum) -> float:
    """1 minus the cosine similarity of two spectra, in [0, 1].

    The value is clipped to [0, 1] to remove float round-off; mathematically
    the cosine of two non-negative vectors already lies in that interval.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"spectra have different bin counts: {a.shape} vs {b.shape}")
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("spectral distance is undefined for a zero-norm spectrum")
    cos = float(a @ b) / (na * nb)
    return min(max(1.0 - cos, 0.0), 1.0)


@lru_cache(maxsize=8)
def tone_autocorrelation(params: SpectrumParams) -> Spectrum:
    """Circular autocorrelation of the tone template, from one FFT.

    Entry k is sum_i base[i] * base[(i + k) mod n_bins], the inner product
    of two tone spectra k bins apart; entry 0 is the template's squared norm.
    """
    base_hat = np.fft.rfft(_base_tone_spectrum(params))
    out = np.fft.irfft(base_hat * np.conj(base_hat), n=params.n_bins)
    out.setflags(write=False)
    return out


def tone_correlations(chords: list[PcSet], params: SpectrumParams) -> np.ndarray:
    """Inner products of chord spectra with the tone template at every bin.

    Entry [i, k] is pcset_spectrum(chords[i]) @ harmonic_tone_spectrum at
    grid point k. A chord spectrum is a sum of templates shifted by whole
    semitones, so row i is the template's autocorrelation shifted to each
    chord tone and summed. Entry [i, bins_per_pc * p] is thus the inner
    product with pitch class p, and summing it over the tones of a chord Y
    gives pcset_spectrum(chords[i]) @ pcset_spectrum(Y). Tones are added in
    ascending order without BLAS, so no BLAS thread count changes a digit.
    """
    auto = tone_autocorrelation(params)
    member = np.zeros((len(chords), N_PITCH_CLASSES), dtype=bool)
    for i, chord in enumerate(chords):
        member[i, list(chord)] = True
    out = np.zeros((len(chords), params.n_bins))
    for t in range(N_PITCH_CLASSES):
        shifted = np.roll(auto, t * params.bins_per_pc)
        np.add(out, shifted, out=out, where=member[:, t, None])
    return out


def tone_similarity_profile(
    chord_spectrum: Spectrum, params: SpectrumParams
) -> np.ndarray:
    """Cosine similarity of a chord spectrum with the tone template at every bin.

    Entry k is the cosine similarity, clipped to [0, 1], of the chord
    spectrum with the tone template at grid point k * bin_width. All grid
    templates are circular shifts of one base template, so the profile is a
    circular cross-correlation, evaluated here with an FFT.
    """
    base = _base_tone_spectrum(params)
    w = np.asarray(chord_spectrum, dtype=float)
    nw = math.sqrt(float(w @ w))
    nb = math.sqrt(float(base @ base))
    if nw == 0.0:
        raise ValueError("zero-norm chord spectrum")
    # correlation[k] = sum_i w[i] * base[(i - k) mod n]
    corr = np.fft.irfft(np.fft.rfft(w) * np.conj(np.fft.rfft(base)), n=params.n_bins)
    return np.clip(corr / (nw * nb), 0.0, 1.0)
