"""Pitch-class arithmetic, the chord alphabet, and transposition normal forms.

A pitch class is a real number in [0, 12); chord tones are integer pitch
classes. A pitch-class set is represented as a sorted tuple of distinct
integers in {0..11}. Sorted tuples are hashable, order-canonical, and cheap,
which makes them serviceable dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

PcSet = tuple[int, ...]

N_PITCH_CLASSES = 12
ALPHABET_SIZE = 2**N_PITCH_CLASSES - 1  # 4095 non-empty subsets


def as_pcset(members: Iterable[int]) -> PcSet:
    """Validate and canonicalize an iterable of integer pitch classes.

    Returns a sorted tuple of distinct values. Raises ValueError for empty
    input or out-of-range members.
    """
    values = sorted(set(int(m) for m in members))
    if not values:
        raise ValueError("pitch-class set must be non-empty")
    if values[0] < 0 or values[-1] >= N_PITCH_CLASSES:
        bad = [v for v in values if not 0 <= v < N_PITCH_CLASSES]
        raise ValueError(f"pitch classes must lie in 0..11, got {bad}")
    return tuple(values)


def pc_distance(a: float, b: float) -> float:
    """Distance between two pitch classes on the chromatic circle, in [0, 6]."""
    diff = abs(float(a) - float(b)) % N_PITCH_CLASSES
    return min(diff, N_PITCH_CLASSES - diff)


def transpose(x: PcSet, t: int) -> PcSet:
    """Shift every member of x by t semitones (mod 12)."""
    t = int(t) % N_PITCH_CLASSES
    return tuple(sorted((p + t) % N_PITCH_CLASSES for p in x))


def pcset_to_mask(x: PcSet) -> int:
    """12-bit characteristic mask of a pitch-class set (pc 0 = least significant bit)."""
    mask = 0
    for p in x:
        mask |= 1 << p
    return mask


def parse_pcset(text: str) -> PcSet:
    """Parse chord text such as "0,4,7", rejecting a repeated pitch class.

    Pitch classes are ASCII digits, as in the corpus parser's plain tokens
    (int() would also take "-0", "+4", "1_1" and "٣"); spaces around them
    are allowed. Stricter than the corpus parser, which does not call it: a
    plain token "0,0,4" or a jsonl chord [0, 0, 4] is read there as the set
    {0, 4}.
    """
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"malformed chord token {text!r}")
    members = [int(p) for p in parts]
    if len(set(members)) != len(members):
        raise ValueError(f"duplicate pitch class in chord token {text!r}")
    for m in members:
        if not 0 <= m < N_PITCH_CLASSES:
            raise ValueError(f"pitch class {m} out of range 0..11 in {text!r}")
    return as_pcset(members)


def format_pcset(x: PcSet) -> str:
    """Inverse of parse_pcset: "0,4,7"."""
    return ",".join(str(p) for p in x)


@dataclass(frozen=True)
class TranspositionClass:
    """Canonical representative of a pitch-class set under transposition.

    The representative is the transposition whose 12-bit mask (pc 0 = least
    significant bit) is smallest; for a major triad in any key this is
    {0, 4, 7}. orbit_size is the number of distinct transpositions, a divisor
    of 12.
    """

    representative: PcSet
    orbit_size: int


def normal_form(x: PcSet) -> tuple[TranspositionClass, int]:
    """Canonical (transposition class, shift) decomposition of x.

    The shift t is the smallest value such that transpose(representative, t)
    equals x; for transposition-symmetric sets any valid shift gives the same
    representative and the smallest is chosen.
    """
    candidates = [transpose(x, t) for t in range(N_PITCH_CLASSES)]
    rep = min(candidates, key=pcset_to_mask)
    orbit_size = len(set(candidates))
    shift = next(t for t in range(N_PITCH_CLASSES) if transpose(rep, t) == x)
    return TranspositionClass(rep, orbit_size), shift


class ChordAlphabet:
    """The 4,095 non-empty pitch-class sets, ordered by (size, lexicographic).

    The ordering is part of the on-disk cache contract: the voice-leading
    matrix's pinned digest, VL_MATRIX_SHA256, depends on it. Alongside the
    enumeration this carries id maps, the 12-bit masks, transposition
    permutations, and the decomposition of every chord into
    (transposition-class row, shift), all as normal_form defines them.
    """

    def __init__(self) -> None:
        chords: list[PcSet] = []
        for size in range(1, N_PITCH_CLASSES + 1):
            chords.extend(combinations(range(N_PITCH_CLASSES), size))
        self.chords: tuple[PcSet, ...] = tuple(chords)
        self.index: dict[PcSet, int] = {c: i for i, c in enumerate(self.chords)}
        self.sizes = np.array([len(c) for c in self.chords], dtype=np.int64)
        self.masks = np.array([pcset_to_mask(c) for c in self.chords], dtype=np.int64)
        id_of_mask = np.full(2**N_PITCH_CLASSES, -1, dtype=np.int64)
        id_of_mask[self.masks] = np.arange(len(self.chords))

        # rotated[t, i] = mask of transpose(chord i, t): bit p moves to p + t
        t = np.arange(N_PITCH_CLASSES)[:, None]
        full = 2**N_PITCH_CLASSES - 1
        rotated = ((self.masks << t) | (self.masks >> (N_PITCH_CLASSES - t))) & full
        # perm[t, i] = id of transpose(chord i, t)
        self.perm = id_of_mask[rotated]

        # The representative is the transposition with the smallest mask. Its
        # shifts back onto the chord are -t mod 12 for every minimising t, and
        # these repeat with the orbit size, so the smallest is -t mod orbit.
        orbit_size = N_PITCH_CLASSES // (rotated == self.masks).sum(axis=0)
        rep_mask = rotated.min(axis=0)
        self.shift_of = -rotated.argmin(axis=0) % orbit_size
        # classes are numbered in order of their first chord in the enumeration
        rep_id = id_of_mask[rep_mask]
        _, first = np.unique(rep_id, return_index=True)
        first.sort()
        self.rep_ids = rep_id[first]
        self.rep_orbit_sizes = orbit_size[first]
        row_of = np.empty(len(self.chords), dtype=np.int64)
        row_of[self.rep_ids] = np.arange(len(self.rep_ids))
        self.rep_row = row_of[rep_id]

    def __len__(self) -> int:
        return len(self.chords)

    def __getitem__(self, chord_id: int) -> PcSet:
        return self.chords[chord_id]

    def id_of(self, x: Sequence[int]) -> int:
        key = tuple(x)
        if key not in self.index:
            key = as_pcset(x)
        return self.index[key]

    def ids_of(self, chords: Sequence[Sequence[int]]) -> np.ndarray:
        """Chord ids of a sequence of chords, as an int64 array.

        One dict lookup per chord when every chord is a canonical PcSet;
        otherwise every chord goes through id_of.
        """
        try:
            return np.fromiter(map(self.index.__getitem__, chords),
                               dtype=np.int64, count=len(chords))
        except (KeyError, TypeError):
            return np.array([self.id_of(c) for c in chords], dtype=np.int64)

    @property
    def n_classes(self) -> int:
        return len(self.rep_ids)


_ALPHABET: ChordAlphabet | None = None


def enumerate_alphabet() -> ChordAlphabet:
    """Return the shared alphabet instance (construction is deterministic)."""
    global _ALPHABET
    if _ALPHABET is None:
        _ALPHABET = ChordAlphabet()
    return _ALPHABET
