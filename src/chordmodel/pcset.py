"""Pitch-class arithmetic, the chord alphabet, and transposition normal forms.

A pitch class is a real number in [0, 12); chord tones are integer pitch
classes. A pitch-class set is represented as a sorted tuple of distinct
integers in {0..11}. Sorted tuples are hashable, order-canonical, and cheap,
which makes them serviceable dictionary keys for the caching layers.
"""

from __future__ import annotations

import math
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


def freq_to_pc(f: float) -> float:
    """Map a frequency in Hz to a pitch class in [0, 12), with A4 = 440 Hz at 9."""
    if f <= 0:
        raise ValueError(f"frequency must be positive, got {f}")
    return (9.0 + 12.0 * math.log2(f / 440.0)) % N_PITCH_CLASSES


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
    """Parse the chord text syntax "0,4,7" used by corpus files and the CLI."""
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"malformed chord token {text!r}")
    try:
        members = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"malformed chord token {text!r}") from exc
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

    The ordering is part of the on-disk cache contract. Alongside the
    enumeration this carries the lookup structures the caching layers need:
    id maps, transposition permutations, and the decomposition of every chord
    into (transposition-class row, shift).
    """

    def __init__(self) -> None:
        chords: list[PcSet] = []
        for size in range(1, N_PITCH_CLASSES + 1):
            chords.extend(combinations(range(N_PITCH_CLASSES), size))
        self.chords: tuple[PcSet, ...] = tuple(chords)
        self.index: dict[PcSet, int] = {c: i for i, c in enumerate(self.chords)}
        self.sizes = np.array([len(c) for c in self.chords], dtype=np.int64)

        # perm[t, i] = id of transpose(chord i, t)
        self.perm = np.empty((N_PITCH_CLASSES, len(self.chords)), dtype=np.int64)
        for t in range(N_PITCH_CLASSES):
            for i, c in enumerate(self.chords):
                self.perm[t, i] = self.index[transpose(c, t)]

        # Transposition classes: rep_row maps chord id -> row in the class
        # table, shift_of maps chord id -> t with transpose(rep, t) == chord.
        rep_ids: list[int] = []
        rep_row_of_rep: dict[int, int] = {}
        self.rep_row = np.empty(len(self.chords), dtype=np.int64)
        self.shift_of = np.empty(len(self.chords), dtype=np.int64)
        orbit_sizes: list[int] = []
        for i, c in enumerate(self.chords):
            tclass, shift = normal_form(c)
            rep_id = self.index[tclass.representative]
            if rep_id not in rep_row_of_rep:
                rep_row_of_rep[rep_id] = len(rep_ids)
                rep_ids.append(rep_id)
                orbit_sizes.append(tclass.orbit_size)
            self.rep_row[i] = rep_row_of_rep[rep_id]
            self.shift_of[i] = shift
        self.rep_ids = np.array(rep_ids, dtype=np.int64)
        self.rep_orbit_sizes = np.array(orbit_sizes, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.chords)

    def __getitem__(self, chord_id: int) -> PcSet:
        return self.chords[chord_id]

    def id_of(self, x: Sequence[int]) -> int:
        key = tuple(x)
        if key not in self.index:
            key = as_pcset(x)
        return self.index[key]

    @property
    def n_classes(self) -> int:
        return len(self.rep_ids)

    def ordering_hash(self) -> str:
        """Hash of the enumeration order, embedded in cache file names."""
        import hashlib

        payload = ";".join(format_pcset(c) for c in self.chords)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


_ALPHABET: ChordAlphabet | None = None


def enumerate_alphabet() -> ChordAlphabet:
    """Return the shared alphabet instance (construction is deterministic)."""
    global _ALPHABET
    if _ALPHABET is None:
        _ALPHABET = ChordAlphabet()
    return _ALPHABET
