"""Minimal voice-leading distance between pitch-class sets."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel.pcset import enumerate_alphabet, transpose
from chordmodel.voiceleading import (
    VL_MATRIX_SHA256,
    voice_leading_distance,
    voice_leading_matrix,
)
from helpers import cost_matrix, edge_cover_star_union, voice_leading_oracle

pcsets = st.sets(st.integers(0, 11), min_size=1).map(lambda s: tuple(sorted(s)))
small_pcsets = st.sets(st.integers(0, 11), min_size=1, max_size=6).map(
    lambda s: tuple(sorted(s))
)


def test_spot_values():
    assert voice_leading_distance((0, 4, 7), (0, 4, 7)) == 0.0
    assert voice_leading_distance((0,), (6,)) == 6.0
    assert voice_leading_distance((0, 4, 7), (0, 5, 9)) == 3.0
    assert voice_leading_distance((0, 4, 7, 10), (1, 4, 6, 10)) == 2.0
    assert voice_leading_distance((0,), (0, 1, 2, 3)) == 6.0
    assert voice_leading_distance(tuple(range(12)), (0,)) == 36.0


def test_unbalanced_pair_needs_cuts_in_both_sequences():
    # the optimal cover here contains no "aligned" cut; minimizing over
    # rotations of both sorted sequences is required for exactness
    assert voice_leading_distance((1, 2, 3, 4, 5, 11), (1, 2)) == 8.0
    assert voice_leading_oracle((1, 2, 3, 4, 5, 11), (1, 2)) == 8.0


@given(small_pcsets, small_pcsets)
@settings(max_examples=150, deadline=None)
def test_matches_independent_subset_dp_oracle(x, y):
    assert voice_leading_distance(x, y) == voice_leading_oracle(x, y)


@given(pcsets, pcsets)
@settings(max_examples=80, deadline=None)
def test_symmetry_and_identity(x, y):
    d = voice_leading_distance(x, y)
    assert d == voice_leading_distance(y, x)
    assert d >= 0.0
    assert (d == 0.0) == (x == y)


@given(pcsets, pcsets, st.integers(0, 11))
@settings(max_examples=80, deadline=None)
def test_joint_transposition_invariance(x, y, t):
    assert voice_leading_distance(x, y) == voice_leading_distance(
        transpose(x, t), transpose(y, t)
    )


def test_star_union_oracle_on_all_tiny_pairs():
    import itertools

    sets2 = [tuple(sorted(c)) for m in (1, 2)
             for c in itertools.combinations(range(12), m)]
    for x in sets2[:20]:
        for y in sets2:
            w = cost_matrix(x, y)
            assert voice_leading_distance(x, y) == float(
                edge_cover_star_union(w[None])[0]
            )


def test_matrix_agrees_with_scalar_operation(space):
    al = space.alphabet
    rng = np.random.default_rng(11)
    rows = rng.integers(0, al.n_classes, 60)
    cols = rng.integers(0, len(al), 60)
    for r, c in zip(rows, cols):
        rep = al[int(al.rep_ids[int(r)])]
        chord = al[int(c)]
        assert space.vl_matrix[int(r), int(c)] == voice_leading_distance(rep, chord)


@pytest.fixture(scope="module")
def built_matrix():
    """A fresh build: the session space may have loaded its matrix from disk."""
    return voice_leading_matrix(enumerate_alphabet())


def test_matrix_build_matches_pinned_digest(built_matrix):
    assert built_matrix.dtype == np.uint8
    assert built_matrix.shape == (351, 4095)
    assert hashlib.sha256(built_matrix.tobytes()).hexdigest() == VL_MATRIX_SHA256


@given(st.integers(0, 350), st.integers(0, 4094))
@settings(max_examples=300, deadline=None)
def test_matrix_build_matches_scalar_distance(built_matrix, row, chord):
    al = enumerate_alphabet()
    rep = al[int(al.rep_ids[row])]
    assert built_matrix[row, chord] == voice_leading_distance(rep, al[chord])
