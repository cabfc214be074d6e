"""Pitch-class sets, transposition classes, and the chord alphabet."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel.pcset import (
    ALPHABET_SIZE,
    N_PITCH_CLASSES,
    as_pcset,
    enumerate_alphabet,
    format_pcset,
    normal_form,
    parse_pcset,
    pc_distance,
    pcset_to_mask,
    transpose,
)

from helpers import alphabet_reference

pcsets = st.sets(st.integers(0, 11), min_size=1).map(lambda s: tuple(sorted(s)))


def test_as_pcset_sorts_and_dedupes():
    assert as_pcset([7, 0, 4, 7]) == (0, 4, 7)
    with pytest.raises(ValueError):
        as_pcset([])
    with pytest.raises(ValueError):
        as_pcset([12])
    with pytest.raises(ValueError):
        as_pcset([-1])


def test_pc_distance_examples():
    assert pc_distance(0, 6) == 6.0
    assert pc_distance(1, 11) == 2.0
    assert pc_distance(11.5, 0.5) == 1.0
    assert pc_distance(3.25, 3.25) == 0.0


@given(st.floats(0, 12, allow_nan=False), st.floats(0, 12, allow_nan=False))
def test_pc_distance_is_a_metric_on_the_circle(a, b):
    d = pc_distance(a, b)
    assert 0.0 <= d <= 6.0
    assert d == pc_distance(b, a)
    assert pc_distance(a, a) == 0.0
    assert abs(pc_distance(a + 12.0, b) - d) < 1e-9


def test_parse_format_round_trip():
    assert parse_pcset("0,4,7") == (0, 4, 7)
    assert format_pcset((0, 4, 7)) == "0,4,7"
    with pytest.raises(ValueError):
        parse_pcset("0,4,x")


@pytest.mark.parametrize("text", ["+4,-0", "1_1", "\u0663"])
def test_parse_pcset_takes_ascii_digits_only(text):
    """Signs, digit separators and non-ASCII digits, all of which int()
    takes, are malformed, as in a plain corpus token."""
    with pytest.raises(ValueError, match="malformed chord token"):
        parse_pcset(text)


@given(pcsets)
def test_format_parse_inverse(x):
    assert parse_pcset(format_pcset(x)) == x


@given(pcsets, st.integers(0, 11))
def test_transpose_properties(x, t):
    y = transpose(x, t)
    assert len(y) == len(x)
    assert transpose(y, (12 - t) % 12) == x


def test_normal_form_examples():
    cls, shift = normal_form((2, 6, 9))
    assert cls.representative == (0, 4, 7)
    assert shift == 2
    assert cls.orbit_size == 12
    cls, shift = normal_form((0, 4, 7))
    assert cls.representative == (0, 4, 7) and shift == 0
    # fully symmetric chords
    cls, shift = normal_form(tuple(range(12)))
    assert cls.representative == tuple(range(12))
    assert cls.orbit_size == 1 and shift == 0
    cls, _ = normal_form((1, 7))
    assert cls.representative == (0, 6) and cls.orbit_size == 6


@given(pcsets, st.integers(0, 11))
def test_normal_form_is_transposition_invariant(x, t):
    a, _ = normal_form(x)
    b, _ = normal_form(transpose(x, t))
    assert a.representative == b.representative
    assert a.orbit_size == b.orbit_size


@given(pcsets)
def test_normal_form_minimizes_mask_and_reconstructs(x):
    cls, shift = normal_form(x)
    assert transpose(cls.representative, shift) == x
    masks = [pcset_to_mask(transpose(x, t)) for t in range(12)]
    assert pcset_to_mask(cls.representative) == min(masks)


def test_alphabet_enumeration_shape(alphabet):
    assert len(alphabet) == ALPHABET_SIZE == 4095
    assert alphabet.n_classes == 351
    sizes = np.asarray(alphabet.sizes)
    for m in range(1, 13):
        assert (sizes == m).sum() == math.comb(12, m)
    # ordered by size, then lexicographically within size
    chords = list(alphabet.chords)
    assert chords == sorted(chords, key=lambda c: (len(c), c))
    assert chords[0] == (0,)
    assert chords[-1] == tuple(range(12))


def test_alphabet_orbits_partition_the_alphabet(alphabet):
    assert int(np.sum(alphabet.rep_orbit_sizes)) == ALPHABET_SIZE
    # every chord's representative row points back at a chord whose class is itself
    for cid in [0, 100, 2047, 4094]:
        row = int(alphabet.rep_row[cid])
        rep_id = int(alphabet.rep_ids[row])
        rep = alphabet[rep_id]
        cls, _ = normal_form(alphabet[cid])
        assert rep == cls.representative


@given(pcsets, st.integers(0, 11))
@settings(max_examples=60)
def test_alphabet_permutation_matches_transposition(alphabet, x, t):
    cid = alphabet.id_of(x)
    assert alphabet[int(alphabet.perm[t, cid])] == transpose(x, t)


def test_id_of_accepts_unsorted_input(alphabet):
    assert alphabet.id_of((5, 9, 0)) == alphabet.id_of((0, 5, 9))


def test_ids_of_equals_id_of_per_chord(alphabet):
    """Canonical chords, and sequences that need id_of (unsorted, repeated
    or list chords), give id_of's ids; a chord id_of rejects is rejected."""
    canonical = [(0, 4, 7), (11,), tuple(range(12))]
    for chords in (canonical, canonical + [(5, 9, 0)], [[0, 4, 7], (2, 2, 6)], []):
        ids = alphabet.ids_of(chords)
        assert ids.dtype == np.int64
        assert ids.tolist() == [alphabet.id_of(c) for c in chords]
    for bad in ((), (0, 12)):
        with pytest.raises(ValueError):
            alphabet.ids_of(canonical + [bad])


def test_shift_and_rep_row_reconstruct_chord(alphabet):
    rng = np.random.default_rng(3)
    for cid in rng.integers(0, 4095, 200):
        cid = int(cid)
        row = int(alphabet.rep_row[cid])
        shift = int(alphabet.shift_of[cid])
        rep = alphabet[int(alphabet.rep_ids[row])]
        assert transpose(rep, shift) == alphabet[cid]


def test_alphabet_tables_match_normal_form_reference(alphabet):
    for name, expected in alphabet_reference(alphabet).items():
        assert np.array_equal(getattr(alphabet, name), expected), name
