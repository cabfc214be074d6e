"""Smoothed pitch-class spectra and the spectral distance."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel.pcset import transpose
from chordmodel.spectrum import (
    SpectrumParams,
    bin_grid,
    harmonic_tone_spectrum,
    partial_pitch_class,
    pcset_spectrum,
    spectral_distance,
    tone_similarity_profile,
)

pcsets = st.sets(st.integers(0, 11), min_size=1).map(lambda s: tuple(sorted(s)))

# independently frozen spot values (direct summation, double precision)
FROZEN_DISTANCES = {
    ((0,), (6,)): 0.9924952604,
    ((0,), (1,)): 0.9999999734,
    ((0,), (7,)): 0.6567712261,
}


def direct_spectrum(x, params: SpectrumParams) -> np.ndarray:
    """Slow reference: explicit sum of circular Gaussian densities, one per
    partial of each chord tone, weighted by the harmonic level."""
    grid = bin_grid(params)
    out = np.zeros(params.n_bins)
    coeff = 1.0 / (params.sigma * math.sqrt(2.0 * math.pi))
    for pc in x:
        for j in range(1, params.n_harmonics + 1):
            p = (pc + 12.0 * math.log2(j)) % 12.0
            level = j ** -params.rho
            d = np.abs(grid - p)
            d = np.minimum(d, 12.0 - d)
            out += level * coeff * np.exp(-(d**2) / (2.0 * params.sigma**2))
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        SpectrumParams(rho=0.0)
    with pytest.raises(ValueError):
        SpectrumParams(sigma=-1.0)
    for bad in ({"rho": math.nan}, {"sigma": math.nan}, {"sigma": math.inf}):
        with pytest.raises(ValueError):
            SpectrumParams(**bad)
    with pytest.raises(ValueError):
        SpectrumParams(n_harmonics=0)
    with pytest.raises(ValueError):
        SpectrumParams(n_bins=100)  # not a multiple of 12
    p = SpectrumParams()
    assert p.bins_per_pc == 100
    assert p.bin_width == 0.01


def test_bin_grid_left_endpoints():
    grid = bin_grid(SpectrumParams())
    assert grid[0] == 0.0
    assert abs(grid[1] - 0.01) < 1e-15
    assert abs(grid[-1] - 11.99) < 1e-12
    assert len(grid) == 1200


def test_partial_pitch_classes():
    assert partial_pitch_class(0.0, 1) == 0.0
    assert abs(partial_pitch_class(0.0, 2) - 0.0) < 1e-12  # octave
    assert abs(partial_pitch_class(0.0, 3) - 7.019550008653873) < 1e-12
    assert abs(partial_pitch_class(0.0, 4) - 0.0) < 1e-12
    assert abs(partial_pitch_class(5.0, 3) - (5 + 7.019550008653873) % 12) < 1e-12


@given(pcsets)
@settings(max_examples=25, deadline=None)
def test_pcset_spectrum_matches_direct_sum(x):
    params = SpectrumParams()
    assert np.allclose(pcset_spectrum(x, params), direct_spectrum(x, params),
                       rtol=0, atol=1e-9)


def test_tone_spectrum_is_circular_shift_of_base():
    params = SpectrumParams()
    base = harmonic_tone_spectrum(0.0, params)
    for pc in (1, 5, 11):
        assert np.array_equal(
            harmonic_tone_spectrum(float(pc), params), np.roll(base, pc * 100)
        )
    # off-grid pitches fall back to the direct sum
    off = harmonic_tone_spectrum(0.005, params)
    assert off.shape == (1200,)
    assert not np.array_equal(off, base)


def test_spectral_distance_frozen_values():
    params = SpectrumParams()
    for (x, y), expected in FROZEN_DISTANCES.items():
        d = spectral_distance(pcset_spectrum(x, params), pcset_spectrum(y, params))
        assert abs(d - expected) < 1e-9


def test_spectral_distance_edge_cases():
    params = SpectrumParams()
    a = pcset_spectrum((0, 4, 7), params)
    assert abs(spectral_distance(a, a)) < 1e-12
    with pytest.raises(ValueError):
        spectral_distance(a, np.zeros_like(a))
    with pytest.raises(ValueError):
        spectral_distance(a, a[:100])


@given(pcsets, pcsets)
@settings(max_examples=40, deadline=None)
def test_spectral_distance_properties(x, y):
    params = SpectrumParams()
    a, b = pcset_spectrum(x, params), pcset_spectrum(y, params)
    d = spectral_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert d == spectral_distance(b, a)
    if x == y:
        assert d < 1e-12


@given(pcsets, st.integers(0, 11))
@settings(max_examples=30, deadline=None)
def test_joint_transposition_invariance(x, t):
    params = SpectrumParams()
    y = transpose(x, t)
    d_ref = spectral_distance(pcset_spectrum(x, params),
                              pcset_spectrum((0, 6), params))
    d_shift = spectral_distance(pcset_spectrum(y, params),
                                pcset_spectrum(transpose((0, 6), t), params))
    assert abs(d_ref - d_shift) < 1e-9


def test_tone_similarity_profile_matches_pointwise_cosine():
    params = SpectrumParams()
    w = pcset_spectrum((0, 4, 7), params)
    profile = tone_similarity_profile(w, params)
    assert profile.shape == (1200,)
    for k in (0, 3, 600, 731, 1199):
        tone = harmonic_tone_spectrum(k / 100.0, params)
        expected = 1.0 - spectral_distance(tone, w)
        assert abs(profile[k] - expected) < 1e-9
    # major triad: root is a far better tone match than the tritone
    assert profile[0] > profile[600]
