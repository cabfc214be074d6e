"""Corpus parsing, preprocessing, and transposition-class collapse."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel.corpus import (
    CorpusFile,
    CorpusFormatError,
    Piece,
    collapse,
    load_label_map,
    parse_corpus,
    preprocess,
    preprocess_corpus,
    write_corpus,
)
from chordmodel.model import _statistics

from helpers import collapse_piece_reference, make_corpus, statistics_reference


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_plain(tmp_path):
    p = tmp_path / "c.txt"
    write_lines(p, ["# a comment", "0,4,7 5,9,0 7,11,2", "", "0 0,6"])
    corpus = parse_corpus(p, fmt="plain")
    assert len(corpus.pieces) == 2
    assert corpus.pieces[0].id == "piece-0001"
    assert corpus.pieces[0].chords == ((0, 4, 7), (0, 5, 9), (2, 7, 11))
    assert corpus.pieces[1].chords == ((0,), (0, 6))
    assert all(piece.bass is None for piece in corpus.pieces)


def test_parse_jsonl_with_bass(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(
        p,
        [
            json.dumps(
                {
                    "id": "x",
                    "chords": [[0, 4, 7], [0, 4, 7], [5, 9, 0]],
                    "bass": [0, 4, None],
                }
            ),
            json.dumps({"id": "y", "chords": [[11, 2, 7]]}),
        ],
    )
    corpus = parse_corpus(p, fmt="jsonl")
    assert corpus.pieces[0].chords == ((0, 4, 7), (0, 4, 7), (0, 5, 9))
    assert corpus.pieces[0].bass == (0, 4, None)
    assert corpus.pieces[1].chords == ((2, 7, 11),)
    assert corpus.pieces[1].bass is None


def test_preprocess_merges_repeats_then_drops_bass():
    piece = Piece(
        id="p",
        chords=((0, 4, 7), (0, 4, 7), (0, 4, 7), (0, 5, 9), (0, 5, 9)),
        # exact repeat: merged; inversion change: kept; exact repeat: merged
        bass=(0, 0, 4, None, None),
    )
    out = preprocess(piece)
    assert out.chords == ((0, 4, 7), (0, 4, 7), (0, 5, 9))
    assert out.bass is None


def test_preprocess_keeps_bassless_repeats_merged():
    piece = Piece(id="p", chords=((0,), (0,), (1,)))
    assert preprocess(piece).chords == ((0,), (1,))


@pytest.mark.parametrize(
    "line,fragment",
    [
        ('{"id": "a", "chords": [[0, 12]]}', "outside 0..11"),
        ('{"id": "a", "chords": [[]]}', "empty chord"),
        ('{"id": "a", "chords": "no"}', "non-empty list"),
        ('{"id": "", "chords": [[0]]}', "non-empty string"),
        ("{nope}", "invalid JSON"),
        ('{"chords": [[0]]}', '"id" and "chords"'),
        ('{"id": "a", "chords": [[0, 4, 7]], "bass": [5]}', "not a chord member"),
        ('{"id": "a", "chords": [[0, 4, 7]], "bass": [1, 2]}', "length differs"),
        ('{"id": "a", "chords": [[0, 4, 7]], "bass": [true]}', "outside 0..11"),
    ],
)
def test_jsonl_errors_name_the_line(tmp_path, line, fragment):
    p = tmp_path / "bad.jsonl"
    write_lines(p, ['{"id": "ok", "chords": [[0]]}', line])
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus(p, fmt="jsonl")
    assert "bad.jsonl:2" in str(err.value)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "chords", ["[[1],[true]]", "[[1],[1.0]]", "[[0,4,7],[0,4,7.0]]", "[[1],[false]]"]
)
def test_chords_equal_to_a_valid_one_are_still_validated(tmp_path, chords):
    """[1], [true] and [1.0] are equal lists; only the first is a chord."""
    p = tmp_path / "memo.jsonl"
    write_lines(p, [f'{{"id": "a", "chords": {chords}}}'])
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus(p)
    bad = json.loads(chords)[1]
    value = next(v for v in bad if type(v) is not int)
    assert str(err.value) == f"memo.jsonl:1: chord 1: pitch class {value!r} outside 0..11"


@pytest.mark.parametrize("chords", ["[[true],[1]]", "[[1.0],[1]]", "[[0,4,7.0],[0,4,7]]"])
def test_invalid_chord_before_an_equal_valid_one_names_its_index(tmp_path, chords):
    p = tmp_path / "memo.jsonl"
    write_lines(p, [f'{{"id": "a", "chords": {chords}}}'])
    with pytest.raises(CorpusFormatError, match=r"^memo\.jsonl:1: chord 0: pitch class"):
        parse_corpus(p)


def test_repeated_chords_share_one_tuple(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, [
        '{"id": "a", "chords": [[0, 4, 7], [7, 4, 0]], "bass": [0, 4]}',
        '{"id": "b", "chords": [[0, 4, 7]]}',
    ])
    a, b = parse_corpus(p).pieces
    assert a.chords[0] == (0, 4, 7) and a.chords[1] == (0, 4, 7)
    assert b.chords[0] is a.chords[0]
    p = tmp_path / "c.txt"
    write_lines(p, ["0,4,7 5,9,0", "0,4,7"])
    a, b = parse_corpus(p, fmt="plain").pieces
    assert b.chords[0] is a.chords[0]


def test_plain_errors(tmp_path):
    p = tmp_path / "bad.txt"
    write_lines(p, ["0,4,7 0,x"])
    with pytest.raises(CorpusFormatError, match="malformed chord token"):
        parse_corpus(p, fmt="plain")
    write_lines(p, ["0,4,12"])
    with pytest.raises(CorpusFormatError, match="outside 0..11"):
        parse_corpus(p, fmt="plain")


def test_duplicate_piece_id(tmp_path):
    p = tmp_path / "dup.jsonl"
    write_lines(
        p,
        [
            '{"id": "a", "chords": [[0]]}',
            '{"id": "a", "chords": [[1]]}',
        ],
    )
    with pytest.raises(CorpusFormatError, match="duplicate piece id"):
        parse_corpus(p)


def test_empty_corpus_rejected(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("\n\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="contains no pieces"):
        parse_corpus(p)
    q = tmp_path / "only_comments.txt"
    write_lines(q, ["# nothing here"])
    with pytest.raises(CorpusFormatError, match="contains no pieces"):
        parse_corpus(q, fmt="plain")


def test_unknown_format_rejected(tmp_path):
    p = tmp_path / "c.jsonl"
    write_lines(p, ['{"id": "a", "chords": [[0]]}'])
    with pytest.raises(ValueError, match="unknown corpus format"):
        parse_corpus(p, fmt="xml")


def test_round_trip_both_formats(tmp_path):
    src = make_corpus(
        [
            [(0, 4, 7), (0, 5, 9), (2, 7, 11)],
            [(0,), (0, 6), (0, 6)],
        ]
    )
    for fmt in ("jsonl", "plain"):
        path = tmp_path / f"rt.{fmt}"
        write_corpus(src, path, fmt=fmt)
        back = parse_corpus(path, fmt=fmt)
        assert tuple(p.chords for p in back.pieces) == tuple(
            p.chords for p in src.pieces
        )
    # jsonl also preserves ids and bass
    piece = Piece(id="inv", chords=((0, 4, 7), (0, 5, 9)), bass=(4, None))
    path = tmp_path / "bass.jsonl"
    write_corpus(CorpusFile(pieces=(piece,)), path, fmt="jsonl")
    back = parse_corpus(path, fmt="jsonl")
    assert back.pieces[0] == piece


def test_all_null_bass_parses_and_writes_as_none(tmp_path):
    path = tmp_path / "nulls.jsonl"
    write_lines(path, ['{"id": "a", "chords": [[0, 4, 7], [5, 9, 0]],'
                       ' "bass": [null, null]}'])
    piece = parse_corpus(path, fmt="jsonl").pieces[0]
    assert piece == Piece(id="a", chords=((0, 4, 7), (0, 5, 9)))
    write_corpus(CorpusFile(pieces=(piece,)), path, fmt="jsonl")
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "id": "a", "chords": [[0, 4, 7], [0, 5, 9]]}


def test_label_map_ingestion(tmp_path):
    lm = tmp_path / "labels.json"
    lm.write_text(
        json.dumps({"I": [0, 4, 7], "IV": [5, 9, 0], "V7": [7, 11, 2, 5]}),
        encoding="utf-8",
    )
    mapping = load_label_map(lm)
    assert mapping["IV"] == (0, 5, 9)
    src = tmp_path / "labelled.txt"
    write_lines(src, ["I IV V7 I"])
    corpus = parse_corpus(src, fmt="plain", label_map=mapping)
    assert corpus.pieces[0].chords == (
        (0, 4, 7),
        (0, 5, 9),
        (2, 5, 7, 11),
        (0, 4, 7),
    )
    write_lines(src, ["I IX"])
    with pytest.raises(CorpusFormatError, match="unknown chord label 'IX'"):
        parse_corpus(src, fmt="plain", label_map=mapping)
    with pytest.raises(ValueError, match="plain format only"):
        parse_corpus(src, fmt="jsonl", label_map=mapping)


def test_repeated_pitch_classes_collapse_in_every_format(tmp_path):
    """A chord that names a pitch class twice is read as its set, in plain
    tokens, jsonl chord lists and label maps alike (unlike parse_pcset,
    which rejects a repeat)."""
    plain = tmp_path / "c.txt"
    write_lines(plain, ["0,0,4 7,7"])
    jsonl = tmp_path / "c.jsonl"
    write_lines(jsonl, ['{"id": "a", "chords": [[0, 0, 4], [7, 7]]}'])
    lm = tmp_path / "labels.json"
    lm.write_text(json.dumps({"I": [4, 0, 0], "V": [7, 7]}), encoding="utf-8")
    labelled = tmp_path / "labelled.txt"
    write_lines(labelled, ["I V"])
    for corpus in (parse_corpus(plain, "plain"), parse_corpus(jsonl, "jsonl"),
                   parse_corpus(labelled, "plain", load_label_map(lm))):
        assert corpus.pieces[0].chords == ((0, 4), (7,))


def test_label_map_errors(tmp_path):
    lm = tmp_path / "labels.json"
    lm.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="non-empty object"):
        load_label_map(lm)
    lm.write_text('{"I": "047"}', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="must map to a list"):
        load_label_map(lm)
    lm.write_text('{"I": [0, 13]}', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="outside 0..11"):
        load_label_map(lm)
    lm.write_text("{bad", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="invalid JSON"):
        load_label_map(lm)


def test_collapse_conserves_counts(alphabet):
    corpus = make_corpus(
        [
            [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)],
            [(1, 5, 8), (1, 6, 10)],  # piece 1 transposes piece 0's opening
            [(0,), (0,), (6,)],
        ]
    )
    cc = collapse(corpus, alphabet)
    assert cc.n_events == 4 + 2 + 3
    assert sum(cc.start.values()) == 3  # one context-free event per piece
    assert sum(cc.trans.values()) == cc.n_events - 3
    # each piece's row sums to its event count, and the rows aggregate to
    # the corpus-level dictionaries
    pieces = cc.pieces
    assert [p.n_events for p in pieces] == [4, 2, 3]
    assert cc.start == sum((Counter(p.start) for p in pieces), Counter())
    assert cc.trans == sum((Counter(p.trans) for p in pieces), Counter())


def test_collapse_shares_transposed_transitions(alphabet):
    # C->F and Db->Gb are the same transition class; C->F and C->G are not
    one = collapse(make_corpus([[(0, 4, 7), (0, 5, 9)]]), alphabet)
    two = collapse(make_corpus([[(1, 5, 8), (1, 6, 10)]]), alphabet)
    other = collapse(make_corpus([[(0, 4, 7), (2, 7, 11)]]), alphabet)
    assert list(one.trans) == list(two.trans)
    assert list(one.trans) != list(other.trans)
    both = collapse(
        make_corpus([[(0, 4, 7), (0, 5, 9)], [(1, 5, 8), (1, 6, 10)]]), alphabet
    )
    assert len(both.trans) == 1 and sum(both.trans.values()) == 2
    # start events share a class across transposition too
    assert list(one.start) == list(two.start)


def test_corpus_aggregate_counts_repeated_pieces(alphabet):
    """A piece drawn k times counts k times, as in a bootstrap replicate."""
    cc = collapse(
        make_corpus([[(0, 4, 7), (0, 5, 9)], [(0,), (6,)], [(2,), (2, 6)]]),
        alphabet,
    )
    resampled = cc.resampled([3, 0, 1])
    pieces = (cc.piece(0),) * 3 + (cc.piece(2),)
    assert resampled.n_events == 3 * 2 + 2
    assert resampled.start == sum((Counter(p.start) for p in pieces), Counter())
    assert resampled.trans == sum((Counter(p.trans) for p in pieces), Counter())
    assert sum(resampled.trans.values()) == 3 + 1
    assert all(type(v) is int for v in resampled.trans.values())
    # piece 1's transition group, drawn 0 times, drops out
    assert (cc.n_classes, resampled.n_classes) == (5, 4)
    nothing = cc.resampled([0, 0, 0])
    assert nothing.n_events == 0 and nothing.start == {} and nothing.trans == {}
    empty = collapse(make_corpus([]), alphabet)
    assert empty.piece_ids == () and empty.start == {} and empty.trans == {}


def test_collapse_ratio_on_a_diatonic_cycle(alphabet):
    """Repetitive tonal material collapses far below its event count."""
    # 12 pieces, each the I-IV-V-I loop in a different key
    diatonic = [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)]
    pieces = [
        [tuple(sorted((p + t) % 12 for p in c)) for c in diatonic]
        for t in range(12)
    ]
    cc = collapse(make_corpus(pieces), alphabet)
    ratio = cc.n_events / cc.n_classes
    # I->IV and V->I are the same class (major triad up a fourth), so the
    # whole corpus reduces to 1 start class + 2 transition classes
    assert cc.n_classes == 3
    assert ratio == 16.0
    assert sorted(cc.trans.values()) == [12, 24]


def test_preprocess_corpus_applies_to_every_piece():
    corpus = make_corpus([[(0,), (0,), (1,)], [(5,), (5,)]])
    out = preprocess_corpus(corpus)
    assert tuple(p.chords for p in out.pieces) == (((0,), (1,)), ((5,),))


# transposition-symmetric chords: a context with several shifts onto its
# representative, where the chosen shift decides the relative continuation
SYMMETRIC_CHORDS = [(0, 6), (0, 4, 8), (0, 3, 6, 9), (0, 2, 4, 6, 8, 10)]

chords_st = st.one_of(
    st.integers(1, 4095).map(lambda m: tuple(p for p in range(12) if m >> p & 1)),
    st.tuples(st.sampled_from(SYMMETRIC_CHORDS), st.integers(0, 11)).map(
        lambda ct: tuple(sorted((p + ct[1]) % 12 for p in ct[0]))
    ),
)


@settings(max_examples=150, deadline=None)
@given(pieces=st.lists(st.lists(chords_st, max_size=12), min_size=1, max_size=6))
def test_collapse_equals_eventwise_reference(alphabet, pieces):
    corpus = make_corpus(pieces)
    cc = collapse(corpus, alphabet)
    assert cc.piece_ids == tuple(p.id for p in corpus.pieces)
    start_total, trans_total = Counter(), Counter()
    for i, piece in enumerate(corpus.pieces):
        got = cc.piece(i)
        start, trans = collapse_piece_reference(piece, alphabet)
        start_total.update(start)
        trans_total.update(trans)
        assert got.piece_ids == (piece.id,)
        assert got.n_events == len(piece.chords)
        # the same counts, keys in sorted order, as Python ints
        assert list(got.start.items()) == sorted(start.items())
        assert list(got.trans.items()) == sorted(trans.items())
        assert all(type(v) is int for key in got.trans for v in key)
        assert all(type(v) is int for v in got.start)
        assert all(type(v) is int for v in (*got.start.values(), *got.trans.values()))
    assert list(cc.start.items()) == sorted(start_total.items())
    assert list(cc.trans.items()) == sorted(trans_total.items())
    assert cc.n_events == sum(len(p.chords) for p in corpus.pieces)


def _same_statistics(a, b):
    """Two _RowStatistics, compared in bytes."""
    assert a.n_chords == b.n_chords
    for x, y in zip((a.counts, a.observed, *a.tables),
                    (b.counts, b.observed, *b.tables), strict=True):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@settings(max_examples=60, deadline=None)
@given(pieces=st.lists(st.lists(chords_st, max_size=10), min_size=2, max_size=6),
       data=st.data())
def test_resampled_and_piece_statistics_equal_explicit_collapse(space, pieces, data):
    """A replicate's and a piece's statistics equal, bit for bit, those of
    collapsing the explicitly repeated pieces or the piece alone."""
    corpus = make_corpus(pieces)
    cc = collapse(corpus, space.alphabet)
    n = len(pieces)
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    drawn[data.draw(st.integers(0, n - 1))] = 0
    one_piece = [0] * n
    one_piece[data.draw(st.integers(0, n - 1))] = n  # one piece takes every draw
    for mult in (drawn, one_piece):
        repeated = CorpusFile(
            tuple(p for p, m in zip(corpus.pieces, mult) for _ in range(m)),
        )
        _same_statistics(_statistics(space, cc.resampled(mult)),
                         _statistics(space, collapse(repeated, space.alphabet)))
    for i, piece in enumerate(corpus.pieces):
        alone = collapse(CorpusFile((piece,)), space.alphabet)
        _same_statistics(_statistics(space, cc.piece(i)), _statistics(space, alone))


@settings(max_examples=60, deadline=None)
@given(pieces=st.lists(st.lists(chords_st, max_size=10), min_size=1, max_size=6),
       mult=st.lists(st.integers(0, 3), min_size=6, max_size=6))
def test_statistics_equal_the_split_start_reference(space, pieces, mult):
    """Statistics read from the start row -1 of each table equal, bit for
    bit, those built with the start context kept apart, for a corpus, a
    replicate of it and each of its pieces."""
    cc = collapse(make_corpus(pieces), space.alphabet)
    corpora = [cc, cc.resampled(mult[:len(pieces)]), *cc.pieces]
    for c in corpora:
        _same_statistics(_statistics(space, c), statistics_reference(space, c))
