"""Chord-sequence corpus ingestion, preprocessing, and collapse.

A piece is its chord sequence, a tuple of pitch-class sets, with an
optional bass pitch class (or None) per chord. Two interchangeable file
formats, both UTF-8 (a leading byte-order mark is ignored) with blank lines
ignored:

- jsonl: one JSON object per line,
  {"id": str, "chords": [[pc, ...], ...], "bass": [pc | null, ...]?}
- plain: one piece per line, chords as comma-joined pitch classes (ASCII
  digits only) separated by spaces ("0,4,7 5,9,0"); lines starting with "#"
  are comments.

Corpora labelled in some chord vocabulary (roman numerals, jazz symbols,
...) can be ingested through a label map: a JSON object from label to
pitch-class list, e.g. {"C": [0, 4, 7], "G7": [7, 11, 2, 5]}. With a label
map, plain-format tokens are looked up instead of parsed as numbers. No
vocabulary ships here; the mapping is the user's claim about their data.

Preprocessing merges consecutive events with identical (pitch-class set,
bass) pairs and returns bass-less pieces; a change of bass over the same
set survives as a repeated set, which is how chord inversions are
represented. Bass plays no further role: the model reads pitch-class sets
only.

Collapse groups events by the transposition normal form of their (context,
continuation) pair; events with no context group by the continuation's
normal form alone. Transposition-invariant features make each group share
one probability, so downstream cost and gradient work scales with the number
of distinct groups rather than the number of events. A collapsed corpus is
one count matrix, with a row per piece and a column per group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .atomic import replacing
from .pcset import N_PITCH_CLASSES, ChordAlphabet, PcSet, enumerate_alphabet

class CorpusFormatError(ValueError):
    """Raised for malformed corpus files; message names the file, and the
    line at fault if one is."""


@dataclass(frozen=True)
class Piece:
    """One chord sequence. bass is None, or one bass pitch class (or None)
    per chord."""

    id: str
    chords: tuple[PcSet, ...]
    bass: tuple[int | None, ...] | None = None


@dataclass(frozen=True)
class CorpusFile:
    pieces: tuple[Piece, ...]


def _validated_chord(values, where: str) -> PcSet:
    members = []
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < N_PITCH_CLASSES:
            raise CorpusFormatError(f"{where}: pitch class {v!r} outside 0..11")
        members.append(v)
    if not members:
        raise CorpusFormatError(f"{where}: empty chord")
    return tuple(sorted(set(members)))


def load_label_map(path: str | Path) -> dict[str, PcSet]:
    """Read a JSON label -> pitch-class-list map for plain-format corpora."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{path.name}: not UTF-8 text")
    except ValueError as exc:  # also an integer past Python's digit limit
        raise CorpusFormatError(
            f"{path.name}: invalid JSON ({getattr(exc, 'msg', exc)})")
    except RecursionError:
        raise CorpusFormatError(f"{path.name}: invalid JSON (nested too deeply)")
    if not isinstance(obj, dict) or not obj:
        raise CorpusFormatError(
            f"{path.name}: expected a non-empty object mapping labels to"
            " pitch-class lists"
        )
    mapping: dict[str, PcSet] = {}
    for label, values in obj.items():
        if not isinstance(values, list):
            raise CorpusFormatError(
                f"{path.name}: label {label!r} must map to a list"
            )
        mapping[label] = _validated_chord(values, f"{path.name}: label {label!r}")
    return mapping


def _parse_plain_line(
    line: str,
    where: str,
    label_map: dict[str, PcSet] | None,
    valid: dict[str, PcSet],
) -> tuple[PcSet, ...]:
    chords = []
    for token in line.split():
        if label_map is not None:
            if token not in label_map:
                raise CorpusFormatError(f"{where}: unknown chord label {token!r}")
            chord = label_map[token]
        elif token in valid:
            chord = valid[token]
        else:
            # ASCII digits only: int() would also take "-0", "+4", "1_1" and
            # non-ASCII digits such as the Arabic-Indic "٣"
            parts = token.split(",")
            if not all(part.isascii() and part.isdigit() for part in parts):
                raise CorpusFormatError(f"{where}: malformed chord token {token!r}")
            values = [int(part) for part in parts]
            chord = valid[token] = _validated_chord(values, f"{where}: token {token!r}")
        chords.append(chord)
    if not chords:
        raise CorpusFormatError(f"{where}: piece has no chords")
    return tuple(chords)


def _parse_jsonl_line(line: str, where: str, valid: dict[str, PcSet]) -> Piece:
    try:
        obj = json.loads(line)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise CorpusFormatError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})")
    except RecursionError:
        raise CorpusFormatError(f"{where}: invalid JSON (nested too deeply)")
    if not isinstance(obj, dict) or "id" not in obj or "chords" not in obj:
        raise CorpusFormatError(f'{where}: expected an object with "id" and "chords"')
    piece_id = obj["id"]
    if not isinstance(piece_id, str) or not piece_id:
        raise CorpusFormatError(f"{where}: piece id must be a non-empty string")
    chords_raw = obj["chords"]
    if not isinstance(chords_raw, list) or not chords_raw:
        raise CorpusFormatError(f"{where}: chords must be a non-empty list")
    chords = []
    for k, c in enumerate(chords_raw):
        if not isinstance(c, list):
            raise CorpusFormatError(f"{where}: chord {k} is not a list")
        # [1], [true] and [1.0] are equal lists but differ as text
        key = str(c)
        if key not in valid:
            valid[key] = _validated_chord(c, f"{where}: chord {k}")
        chords.append(valid[key])
    bass = obj.get("bass")
    if bass is not None:
        if not isinstance(bass, list) or len(bass) != len(chords):
            raise CorpusFormatError(f"{where}: bass list length differs from chords")
        for k, b in enumerate(bass):
            if b is None:
                continue
            if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b < 12:
                raise CorpusFormatError(f"{where}: bass {b!r} outside 0..11")
            if b not in chords[k]:
                raise CorpusFormatError(
                    f"{where}: bass {b} of chord {k} is not a chord member"
                )
        bass = tuple(bass) if any(b is not None for b in bass) else None
    return Piece(piece_id, tuple(chords), bass)


def parse_corpus(
    path: str | Path,
    fmt: str = "jsonl",
    label_map: dict[str, PcSet] | None = None,
) -> CorpusFile:
    """Read a corpus file; raises CorpusFormatError naming the faulty line,
    or only the file if it is not UTF-8 text."""
    path = Path(path)
    if fmt not in ("jsonl", "plain"):
        raise ValueError(f"unknown corpus format {fmt!r}")
    if label_map is not None and fmt != "plain":
        raise ValueError("label maps apply to the plain format only")
    pieces: list[Piece] = []
    seen_ids: set[str] = set()
    # chord text -> validated chord; a chord is checked once per call and its
    # repeats share one tuple
    valid: dict[str, PcSet] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path.name}:{lineno}"
                if fmt == "plain":
                    if line.startswith("#"):
                        continue
                    piece = Piece(f"piece-{len(pieces) + 1:04d}",
                                  _parse_plain_line(line, where, label_map, valid))
                else:
                    piece = _parse_jsonl_line(line, where, valid)
                if piece.id in seen_ids:
                    raise CorpusFormatError(f"{where}: duplicate piece id {piece.id!r}")
                seen_ids.add(piece.id)
                pieces.append(piece)
    except UnicodeDecodeError:
        raise CorpusFormatError(f"{path.name}: not UTF-8 text")
    if not pieces:
        raise CorpusFormatError(f"{path.name}: corpus contains no pieces")
    return CorpusFile(pieces=tuple(pieces))


def write_corpus(corpus: CorpusFile, path: str | Path, fmt: str = "jsonl") -> None:
    """Serialize a corpus so that re-parsing reproduces it."""
    path = Path(path)
    lines = []
    for piece in corpus.pieces:
        if fmt == "plain":
            lines.append(" ".join(",".join(map(str, pcs)) for pcs in piece.chords))
        elif fmt == "jsonl":
            obj: dict = {"id": piece.id, "chords": [list(pcs) for pcs in piece.chords]}
            if any(b is not None for b in piece.bass or ()):
                obj["bass"] = list(piece.bass)
            lines.append(json.dumps(obj, separators=(",", ":")))
        else:
            raise ValueError(f"unknown corpus format {fmt!r}")
    with replacing(path) as (tmp,):
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")


def preprocess(piece: Piece) -> Piece:
    """Merge consecutive events with identical (pitch-class set, bass) and
    return the bass-less piece.

    A bass change over an unchanged set survives as a repeated set
    (inversion change); downstream consumers see pitch-class sets only.
    Single-pass ingestion step: reapplying it to its own output would merge
    the deliberately kept inversion repeats, so it is not idempotent.
    """
    keys = piece.chords if piece.bass is None else tuple(zip(piece.chords, piece.bass))
    return Piece(piece.id, tuple(c for k, c in enumerate(piece.chords)
                                 if k == 0 or keys[k] != keys[k - 1]))


def preprocess_corpus(corpus: CorpusFile) -> CorpusFile:
    return CorpusFile(pieces=tuple(preprocess(p) for p in corpus.pieces))


@dataclass(frozen=True, eq=False)
class CollapsedCorpus:
    """Event counts as a CSR integer matrix: row i is piece i, with counts
    data[indptr[i]:indptr[i + 1]] in the columns indices[indptr[i]:indptr[i + 1]].

    Columns are the collapsed groups in sorted code order. A transition group
    (row, rel) (see transition_classes) is coded (row + 1) * CODE_BASE + rel,
    and a start group, the class representative id of a piece's first chord,
    by itself: the code of (row -1, that id), the start context's row in
    every feature table. So start groups come first. start and trans are the
    nonzero column totals as read-only dicts, keys sorted.
    """

    CODE_BASE = 2**N_PITCH_CLASSES  # above every chord id
    piece_ids: tuple[str, ...]
    codes: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def n_events(self) -> int:
        return int(self.data.sum())

    @cached_property
    def group_counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Context rows, relative ids and counts of the groups with a nonzero
        column total, in code order, counts as floats; start groups carry
        row -1 and come first."""
        # float sums of integer counts are exact below 2**53
        totals = np.bincount(self.indices, self.data, len(self.codes))
        codes, totals = self.codes[totals > 0], totals[totals > 0]
        rows, rels = np.divmod(codes, self.CODE_BASE)
        return rows - 1, rels, totals

    @property
    def n_start(self) -> int:
        """Number of start groups, the first n_start of group_counts."""
        return int(np.searchsorted(self.group_counts[0], 0))

    @cached_property
    def start(self) -> MappingProxyType:
        _, ids, counts = (a[:self.n_start] for a in self.group_counts)
        return MappingProxyType(dict(zip(ids.tolist(), counts.astype(int).tolist())))

    @cached_property
    def trans(self) -> MappingProxyType:
        rows, rels, counts = (a[self.n_start:] for a in self.group_counts)
        return MappingProxyType(dict(zip(zip(rows.tolist(), rels.tolist()),
                                         counts.astype(int).tolist())))

    @property
    def n_classes(self) -> int:
        """Distinct collapsed groups; the collapse ratio is n_events over this."""
        return len(self.group_counts[2])

    def piece(self, i: int) -> CollapsedCorpus:
        """Piece i alone: row i of the matrix."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return CollapsedCorpus((self.piece_ids[i],), self.codes, np.array([0, hi - lo]),
                               self.indices[lo:hi], self.data[lo:hi])

    @property
    def pieces(self) -> tuple[CollapsedCorpus, ...]:
        return tuple(self.piece(i) for i in range(len(self.piece_ids)))

    def resampled(self, mult) -> CollapsedCorpus:
        """The bootstrap replicate that draws piece i mult[i] times."""
        return replace(self, data=self.data * np.repeat(mult, np.diff(self.indptr)))


def transition_classes(
    ids: np.ndarray, alphabet: ChordAlphabet
) -> tuple[np.ndarray, np.ndarray]:
    """(context class row, relative continuation id) of every transition.

    Transition k runs from chord ids[k] to ids[k + 1]. The relative id is the
    continuation transposed by the shift that maps the context onto its class
    representative, so a pair indexes the per-class feature tables directly.
    """
    return alphabet.rep_row[ids[:-1]], relative_ids(ids[:-1], ids[1:], alphabet)


def relative_ids(context_ids, continuation_ids, alphabet: ChordAlphabet) -> np.ndarray:
    """Continuation ids transposed by the shift that maps each context onto
    its class representative: their columns in the contexts' class rows.

    Arguments broadcast, so one context with every chord id (or slice(None))
    gives the order that maps a class row onto chord ids.
    """
    shifts = -alphabet.shift_of[context_ids] % N_PITCH_CLASSES
    return alphabet.perm[shifts, continuation_ids]


def collapse(
    corpus: CorpusFile, alphabet: ChordAlphabet | None = None
) -> CollapsedCorpus:
    """Collapse a preprocessed corpus into per-piece group counts."""
    alphabet = alphabet or enumerate_alphabet()
    lengths = [len(p.chords) for p in corpus.pieces]
    ids = np.array([alphabet.id_of(c) for p in corpus.pieces for c in p.chords],
                   dtype=np.int64)
    piece_of = np.repeat(np.arange(len(lengths)), lengths)
    # start codes, then transition codes for events after one of their piece
    codes = alphabet.rep_ids[alphabet.rep_row[ids]]
    rows, rels = transition_classes(ids, alphabet)
    codes[1:] = np.where(piece_of[1:] == piece_of[:-1],
                         (rows + 1) * CollapsedCorpus.CODE_BASE + rels, codes[1:])
    groups, column = np.unique(codes, return_inverse=True)
    cells, counts = np.unique(piece_of * len(groups) + column, return_counts=True)
    indptr = np.searchsorted(cells, np.arange(len(lengths) + 1) * len(groups))
    return CollapsedCorpus(tuple(p.id for p in corpus.pieces), groups, indptr,
                           cells % len(groups), counts)
