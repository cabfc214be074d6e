"""Transition features: harmonicity, standardization, and the cached tables."""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel import features
from chordmodel.cli import RunConfig, _write_features
from chordmodel.features import (
    FEATURE_NAMES,
    FeatureSpace,
    build_harmonicity_table,
    harmonicity_raw,
    pair_population_moments,
    virtual_pitch_spectrum,
)
from chordmodel.spectrum import SpectrumParams, pcset_spectrum, spectral_distance
from chordmodel.voiceleading import VL_MATRIX_SHA256, voice_leading_distance

from conftest import CACHE_DIR
from helpers import (
    absolute_rows,
    harmonicity_oracle,
    make_corpus,
    standardized_tables,
    table_bounds_reference,
    transition_features,
)

pcsets = st.sets(st.integers(0, 11), min_size=1).map(lambda s: tuple(sorted(s)))

# frozen via independent pointwise evaluation of the virtual-pitch profile
# (helpers.harmonicity_oracle, full float precision)
FROZEN_HARMONICITY = {
    (0,): 1.5602570144446073,
    (0, 6): 0.9184535954478985,
    (0, 4, 7): 0.941483566533006,
    tuple(range(12)): 0.479707986445451,
}


def test_virtual_pitch_profile_shape_and_peaks():
    params = SpectrumParams()
    q = virtual_pitch_spectrum((0,), params)
    assert q.shape == (1200,)
    assert np.argmax(q) == 0
    assert abs(q.sum() * params.bin_width - 1.0) < 1e-9
    triad = virtual_pitch_spectrum((0, 4, 7), params)
    assert triad[0] > triad[600]
    assert abs(triad.sum() * params.bin_width - 1.0) < 1e-9


def test_virtual_pitch_profile_literal_variant_differs():
    q_sim = virtual_pitch_spectrum((0, 4, 7), literal_q=False)
    q_lit = virtual_pitch_spectrum((0, 4, 7), literal_q=True)
    assert abs(q_lit.sum() * 0.01 - 1.0) < 1e-9
    # the literal profile peaks where the similarity profile dips
    assert np.argmax(q_sim) != np.argmax(q_lit)


def test_harmonicity_frozen_values():
    for chord, expected in FROZEN_HARMONICITY.items():
        assert abs(harmonicity_raw(chord) - expected) < 1e-9


def test_harmonicity_matches_pointwise_oracle():
    for chord in [(0,), (0, 6), (0, 4, 7)]:
        assert abs(harmonicity_raw(chord) - harmonicity_oracle(chord)) < 1e-9


def test_harmonicity_nonnegative_and_transposition_invariant():
    assert harmonicity_raw((0, 1, 2)) >= 0.0
    assert abs(harmonicity_raw((0, 4, 7)) - harmonicity_raw((2, 6, 9))) < 1e-9
    assert abs(harmonicity_raw((0, 6)) - harmonicity_raw((5, 11))) < 1e-9


@given(pcsets)
@settings(max_examples=15, deadline=None)
def test_harmonicity_nonnegative_property(x):
    assert harmonicity_raw(x) >= 0.0


def test_harmonicity_table_group_statistics(space):
    al = space.alphabet
    table = space.table
    sizes = np.asarray(al.sizes)
    assert np.allclose(
        table.raw[al.id_of((0, 4, 7))], FROZEN_HARMONICITY[(0, 4, 7)], atol=1e-9
    )
    # size-3 group: population z-scores
    grp = table.normalized[sizes == 3]
    assert abs(grp.mean()) < 1e-9
    assert abs(grp.var() - 1.0) < 1e-9
    # single-orbit size groups have zero spread and map to exactly 0
    for m in (1, 11, 12):
        assert np.all(table.normalized[sizes == m] == 0.0)
    # major triad beats the chromatic cluster within the size-3 group
    assert (
        table.normalized[al.id_of((0, 4, 7))]
        > table.normalized[al.id_of((0, 1, 2))]
    )


@pytest.mark.parametrize("params, literal_q", [
    (SpectrumParams(), False),
    (SpectrumParams(), True),
    (SpectrumParams(n_bins=600, n_harmonics=11), False),
])
def test_harmonicity_table_matches_per_chord_reference(alphabet, params, literal_q):
    raw = build_harmonicity_table(alphabet, params, literal_q).raw
    expected = [harmonicity_raw(alphabet[int(i)], params, literal_q)
                for i in alphabet.rep_ids]
    assert np.allclose(raw[alphabet.rep_ids], expected, rtol=0.0, atol=1e-12)


@given(st.integers(0, 350), st.integers(0, 4094))
@settings(max_examples=200, deadline=None)
def test_spectral_matrix_matches_spectral_distance(space, row, chord_id):
    al = space.alphabet
    expected = spectral_distance(pcset_spectrum(al[int(al.rep_ids[row])]),
                                 pcset_spectrum(al[chord_id]))
    assert abs(space.spectral_matrix[row, chord_id] - expected) < 1e-12


def test_transition_stats_closed_form_mean(space):
    stats = space.stats
    expected_size_mean = 12 * 2**11 / 4095  # mean subset size over 4,095 chords
    assert abs(stats.mean[0] - expected_size_mean) < 1e-9
    assert np.all(stats.sd > 0.0)


def test_pair_population_moments_match_explicit_expansion():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(5, 9))
    orbit = np.array([1, 2, 3, 2, 1])
    mean, var = pair_population_moments(values, orbit)
    expanded = np.repeat(values, orbit, axis=0)
    assert abs(mean - expanded.mean()) < 1e-12
    assert abs(var - expanded.var()) < 1e-12


def test_orbit_weighting_on_a_four_pc_universe():
    """All 15 subsets of a 4-pc circle: class-weighted == direct enumeration.

    For a pair feature invariant under joint rotation, the moments over all
    ordered pairs equal the orbit-weighted moments of the per-class matrix,
    because counter-rotating the continuation axis permutes each row.
    """
    n = 4
    subsets = [
        tuple(sorted(c))
        for m in range(1, n + 1)
        for c in itertools.combinations(range(n), m)
    ]

    def rot(x, t):
        return tuple(sorted((p + t) % n for p in x))

    def rep_of(x):
        return min(rot(x, t) for t in range(n))

    reps = sorted({rep_of(x) for x in subsets})
    orbit = np.array(
        [len({rot(r, t) for t in range(n)}) for r in reps], dtype=float
    )
    assert int(orbit.sum()) == 15

    def pair_value(x, y):  # invariant: |x ∩ y| + |y|/2
        return len(set(x) & set(y)) + 0.5 * len(y)

    values = np.array([[pair_value(r, y) for y in subsets] for r in reps])
    mean, var = pair_population_moments(values, orbit)
    direct = np.array([pair_value(x, y) for x in subsets for y in subsets])
    assert abs(mean - direct.mean()) < 1e-12
    assert abs(var - direct.var()) < 1e-12


def test_transition_features_imputation_and_composition(space):
    stats, table = space.stats, space.table
    v = transition_features(None, (0, 4, 7), stats, table, space.alphabet)
    assert v.shape == (len(FEATURE_NAMES),)
    assert v[2] == 0.0
    assert v[3] == 0.0
    # self-transition: raw spectral distance 0 standardizes below the mean
    v_self = transition_features((0, 4, 7), (0, 4, 7), stats, table, space.alphabet)
    raw_spec = v_self[2] * stats.sd[2] + stats.mean[2]
    assert abs(raw_spec) < 1e-12
    # hand-composed reference for {0,4,7} -> {0,5,9}
    v2 = transition_features((0, 4, 7), (0, 5, 9), stats, table, space.alphabet)
    params = SpectrumParams()
    raw = np.array([
        3.0,
        table.normalized[space.alphabet.id_of((0, 5, 9))],
        spectral_distance(
            pcset_spectrum((0, 4, 7), params), pcset_spectrum((0, 5, 9), params)
        ),
        voice_leading_distance((0, 4, 7), (0, 5, 9)),
    ])
    assert np.allclose(v2, (raw - stats.mean) / stats.sd, atol=1e-12)


def test_feature_space_tables(space):
    al = space.alphabet
    assert space.n_features == len(FEATURE_NAMES) == 4
    assert [t.shape for t in standardized_tables(space)] == [
        (len(al),), (len(al),), (al.n_classes + 1, len(al)), (al.n_classes + 1, len(al))
    ]
    # class rows are the standardized raw distances, bit for bit; the start
    # row -1 after them is exactly 0
    for k, raw in ((2, space.spectral_matrix), (3, space.vl_matrix)):
        table = standardized_tables(space)[k]
        want = (raw - space.stats.mean[k]) / space.stats.sd[k]
        assert table[:-1].tobytes() == want.tobytes()
        assert table[-1].tobytes() == bytes(8 * len(al))
    # fast path equals the slow path on random transitions
    rng = np.random.default_rng(2)
    for _ in range(25):
        i, j = (int(v) for v in rng.integers(0, len(al), 2))
        slow = transition_features(al[i], al[j], space.stats, space.table, al)
        fast = absolute_rows(space, i)[j]
        assert np.allclose(fast, slow, atol=1e-9)
    # the gathered rows are the standardized raw values, bit for bit
    for i in (0, 1000, 4094):
        raw = np.stack([space.raw_transition_values(i, j) for j in range(len(al))])
        assert np.array_equal(absolute_rows(space, i), space.stats.standardize(raw))
    # the start row standardizes the context-free features only
    for j in (0, 77, 4000):
        slow = transition_features(None, al[j], space.stats, space.table, al)
        assert np.allclose(absolute_rows(space, None)[j], slow, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_tables_equal_the_whole_tables(space, data):
    """row_tables standardizes the rows it gathers to the bits of the whole
    standardized tables, on sorted row sets with the start row -1 and on
    single rows; the bounds are the whole tables' bounds, and the features
    writer's standardized distances are their text."""
    al = space.alphabet
    whole = standardized_tables(space)
    rows = data.draw(st.sets(st.integers(0, al.n_classes - 1), max_size=40))
    for r in (np.array(sorted(rows | {-1})), np.array([data.draw(
            st.integers(-1, al.n_classes - 1), label="single row")])):
        got = space.row_tables(r)
        assert len(got) == len(whole) == space.n_features
        for t, want in zip(got, whole):
            want = want[None] if want.ndim == 1 else want[r]
            assert t.shape == want.shape and t.tobytes() == want.tobytes()
    assert space.table_bounds == table_bounds_reference(whole)
    ids = data.draw(st.lists(st.integers(0, len(al) - 1), min_size=1, max_size=8),
                    label="chord ids")
    buf = io.StringIO(newline="")
    _write_features(buf, space, make_corpus([[al[i] for i in ids]]), RunConfig())
    lines = buf.getvalue().splitlines()[3:]
    for prev, cur, line in zip([None, *ids[:-1]], ids, lines, strict=True):
        std = absolute_rows(space, prev)[cur]
        assert line.split(",")[-2:] == [repr(float(v)) for v in std[2:]]


def test_feature_space_holds_each_table_once(space):
    """A warm build keeps the raw distance matrices and no standardized copy
    of them (at most 16 MiB of new memory), and its temporaries are
    row-block sized (a tracemalloc peak of at most 24 MiB)."""
    tracemalloc.start()
    try:
        built = FeatureSpace(space.params, space.literal_q, CACHE_DIR)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built.spectral_matrix.tobytes() == space.spectral_matrix.tobytes()
    assert retained <= 16 * 2**20, retained / 2**20
    assert peak <= 24 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "damage",
    ["truncated", "empty", "not_npy", "npz", "wrong_shape", "float64", "flipped_byte"],
)
def test_unreadable_voice_leading_cache_is_rebuilt(space, tmp_path, monkeypatch, damage):
    path = tmp_path / f"voiceleading-{VL_MATRIX_SHA256[:16]}.npy"
    stored = space.vl_matrix
    assert stored.dtype == np.uint8
    np.save(path, {"wrong_shape": stored[:-1],
                   "float64": stored.astype(np.float64)}.get(damage, stored))
    data = path.read_bytes()
    archive = io.BytesIO()
    np.savez(archive, stored)
    path.write_bytes({
        "truncated": data[: len(data) // 2],
        "empty": b"",
        "not_npy": b"\x00garbage" * 100,
        "npz": archive.getvalue(),
        "flipped_byte": data[:-1] + bytes([data[-1] ^ 1]),
    }.get(damage, data))
    builds = []

    def build(alphabet):
        builds.append(alphabet)
        return space.vl_matrix

    monkeypatch.setattr(features, "voice_leading_matrix", build)
    rebuilt = FeatureSpace(cache_dir=tmp_path)
    assert len(builds) == 1
    assert np.array_equal(rebuilt.vl_matrix, space.vl_matrix)
    assert rebuilt.vl_matrix.dtype == np.uint8
    assert np.load(path).dtype == np.uint8
    assert np.array_equal(np.load(path), space.vl_matrix)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left


def test_voice_leading_cache_ignores_a_stale_key(space, tmp_path, monkeypatch):
    """A correct matrix under the name older versions gave the cache file (a
    hash of the alphabet ordering) is neither read nor changed."""
    stale = tmp_path / "voiceleading-c3272b0feb8e701a.npy"
    np.save(stale, space.vl_matrix)
    data = stale.read_bytes()
    builds = []
    monkeypatch.setattr(
        features, "voice_leading_matrix",
        lambda alphabet: builds.append(alphabet) or space.vl_matrix,
    )
    FeatureSpace(cache_dir=tmp_path)
    assert len(builds) == 1
    assert stale.read_bytes() == data
    path = tmp_path / f"voiceleading-{VL_MATRIX_SHA256[:16]}.npy"
    assert sorted(tmp_path.iterdir()) == sorted([stale, path])


def test_feature_space_memo_is_per_cache_dir(space, tmp_path, monkeypatch):
    """A second cache directory gets its own space and its own cache file."""
    monkeypatch.setattr(features, "_SPACES", {})
    monkeypatch.setattr(features, "voice_leading_matrix",
                        lambda alphabet: space.vl_matrix)
    name = f"voiceleading-{VL_MATRIX_SHA256[:16]}.npy"
    first = features.get_feature_space(cache_dir=tmp_path / "a")
    second = features.get_feature_space(cache_dir=tmp_path / "b")
    assert first is not second
    assert (tmp_path / "a" / name).exists() and (tmp_path / "b" / name).exists()
    assert features.get_feature_space(cache_dir=tmp_path / "a" / ".." / "a") is first


def test_voice_leading_build_off_the_pinned_digest_raises(space, tmp_path, monkeypatch):
    wrong = space.vl_matrix.copy()
    wrong[0, 0] += 1
    monkeypatch.setattr(features, "voice_leading_matrix", lambda alphabet: wrong)
    with pytest.raises(RuntimeError, match="VL_MATRIX_SHA256"):
        FeatureSpace(cache_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_concurrent_voice_leading_cache_writers(tmp_path):
    """Two processes that build into one empty cache both get the pinned matrix."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = (
        "import hashlib, sys, numpy as np\n"
        "from chordmodel.features import FeatureSpace\n"
        "vl = FeatureSpace(cache_dir=sys.argv[1]).vl_matrix\n"
        "assert vl.dtype == np.uint8\n"
        "print(hashlib.sha256(vl.tobytes()).hexdigest())\n"
    )
    procs = [
        subprocess.Popen([sys.executable, "-c", child, str(tmp_path)], env=env,
                         stdout=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=600)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outputs == [VL_MATRIX_SHA256] * 2
    (path,) = tmp_path.iterdir()  # one cache file and no temporary file
    assert path.name == f"voiceleading-{VL_MATRIX_SHA256[:16]}.npy"
    stored = np.load(path)
    assert stored.dtype == np.uint8
    assert hashlib.sha256(stored.tobytes()).hexdigest() == VL_MATRIX_SHA256


def test_transposition_invariance_of_feature_rows(space):
    al = space.alphabet
    rng = np.random.default_rng(5)
    for _ in range(40):
        i, j = (int(v) for v in rng.integers(0, len(al), 2))
        t = int(rng.integers(0, 12))
        it = int(al.perm[t, i])
        jt = int(al.perm[t, j])
        # equality is exact up to the context's transposition stabilizer:
        # symmetric contexts may resolve to a different (equivalent) column,
        # so compare at the numeric guarantee rather than bit-for-bit
        assert np.allclose(
            absolute_rows(space, i)[j],
            absolute_rows(space, it)[jt],
            atol=1e-9,
            rtol=0.0,
        )


def test_empty_pcset_rejected():
    with pytest.raises(ValueError):
        harmonicity_raw(())
    with pytest.raises(ValueError):
        virtual_pitch_spectrum(())
