"""Importance measures, bootstrap intervals, and per-piece reports."""

from __future__ import annotations

import numpy as np
import pytest

from chordmodel.corpus import CorpusFile
from chordmodel.importance import (
    MEASURES,
    BootstrapResult,
    _replicate_multiplicities,
    bootstrap,
    feature_importance,
    orientation,
    per_composition_importance,
)
from chordmodel.model import fit

from helpers import (
    collapsed,
    diatonic_corpus,
    duplicate_feature,
    make_corpus,
    sampled_corpus,
)

NAMES = (
    "chord_size",
    "harmonicity",
    "spectral_distance",
    "voice_leading_distance",
)


@pytest.fixture(scope="module")
def vl_corpus(space):
    """Sampled where only the voice-leading feature matters."""
    return collapsed(
        space,
        sampled_corpus(
            space, np.array([0.0, 0.0, 0.0, -2.0]), n_pieces=16, length=15, seed=3
        ),
    )


@pytest.fixture(scope="module")
def vl_report(space, vl_corpus):
    return feature_importance(vl_corpus, space)


def test_orientation_flips_distance_features():
    assert list(orientation(NAMES)) == [1.0, 1.0, -1.0, -1.0]


def test_importance_identities_and_invariants(space, vl_corpus, vl_report):
    report = vl_report
    assert len(report.fits) == 10
    assert report.converged
    # identities against independently run fits
    full = fit(vl_corpus, space)
    assert np.allclose(report.weights, full.weights, atol=1e-12)
    assert report.full_cross_entropy == full.cross_entropy
    # in-sample explained entropy is non-negative (nested models)
    assert np.all(report.explained_entropy >= -1e-9)
    assert np.all(report.unique_explained_entropy >= -1e-9)
    # unique contribution can never exceed what the feature explains jointly
    h_gap = report.null_cross_entropy - report.full_cross_entropy
    assert np.all(report.unique_explained_entropy <= h_gap + 1e-9)
    # oriented weights are an exact sign flip for the distance features
    assert np.array_equal(
        report.oriented_weights, report.weights * np.array([1, 1, -1, -1])
    )


@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_nest_subfits_equal_standalone_fits(space, vl_corpus, ridge):
    """Sharing one statistics object across the nest changes no bit."""
    report = feature_importance(vl_corpus, space, ridge=ridge)
    assert list(report.fits) == (
        ["full", "null"]
        + [f"single:{n}" for n in NAMES]
        + [f"loo:{n}" for n in NAMES]
    )
    for key, sub in report.fits.items():
        alone = fit(vl_corpus, space, sub.feature_mask, ridge)
        assert np.array_equal(sub.weights, alone.weights), key
        assert sub.cross_entropy == alone.cross_entropy, key
        assert sub.iterations == alone.iterations, key
        kind, _, name = key.partition(":")
        on = [n for n, m in zip(NAMES, sub.feature_mask) if m]
        assert on == {"full": list(NAMES), "null": [], "single": [name],
                      "loo": [n for n in NAMES if n != name]}[kind]


def test_dominant_feature_is_identified(space, vl_report):
    report = vl_report
    j = NAMES.index("voice_leading_distance")
    assert np.argmax(report.explained_entropy) == j
    assert np.argmax(report.unique_explained_entropy) == j
    assert report.weights[j] < -1.0  # recovers the generating sign


def test_uniform_corpus_has_no_importance(space):
    corpus = collapsed(
        space,
        sampled_corpus(space, np.zeros(4), n_pieces=30, length=30, seed=9),
    )
    report = feature_importance(corpus, space)
    # all measures sit inside ~3 standard errors of zero; a corpus with
    # real structure scores an order of magnitude higher (see vl_report)
    noise_bound = 3.0 / np.sqrt(corpus.n_events)
    for measure in MEASURES:
        assert np.all(np.abs(report.values(measure)) < noise_bound), measure


def test_duplicated_feature_splits_shared_information(space, vl_corpus):
    """A cloned feature keeps its explained entropy but loses uniqueness."""
    space2 = duplicate_feature(
        space, NAMES.index("voice_leading_distance"), "voice_leading_copy"
    )
    report = feature_importance(vl_corpus, space2)
    j = NAMES.index("voice_leading_distance")
    k = len(NAMES)  # the copy sits at the end
    assert abs(report.explained_entropy[j] - report.explained_entropy[k]) < 1e-9
    assert report.explained_entropy[j] > 0.1
    assert abs(report.unique_explained_entropy[j]) < 1e-6
    assert abs(report.unique_explained_entropy[k]) < 1e-6


def test_report_rows_shape(space, vl_report):
    rows = vl_report.rows()
    assert len(rows) == len(MEASURES) * len(NAMES)
    flipped = [
        r
        for r in rows
        if r["measure"] == "weight" and r["feature"] == "spectral_distance"
    ][0]
    assert flipped["oriented_value"] == -flipped["value"]
    entropy_row = [
        r
        for r in rows
        if r["measure"] == "explained_entropy"
        and r["feature"] == "voice_leading_distance"
    ][0]
    assert entropy_row["oriented_value"] == entropy_row["value"]
    assert "piece_id" not in rows[0]
    assert vl_report.level == "corpus"
    assert vl_report.to_dict()["level"] == "corpus"


def test_bootstrap_is_deterministic_and_thread_independent(space, vl_corpus):
    kwargs = dict(n_replicates=8, seed=42, level=0.9)
    a = bootstrap(vl_corpus, space, **kwargs)
    b = bootstrap(vl_corpus, space, **kwargs)
    c = bootstrap(vl_corpus, space, threads=4, **kwargs)
    for m in MEASURES:
        assert np.array_equal(a.replicates[m], b.replicates[m])
        assert np.array_equal(a.replicates[m], c.replicates[m])
        assert np.array_equal(a.lower[m], c.lower[m])
        assert np.array_equal(a.upper[m], c.upper[m])
    d = bootstrap(vl_corpus, space, n_replicates=8, seed=43, level=0.9)
    assert any(
        not np.array_equal(a.replicates[m], d.replicates[m]) for m in MEASURES
    )


def test_bootstrap_replicate_equals_explicitly_repeated_corpus(space, vl_corpus):
    """Replicate r is the importance nest, warm-started from the point fits,
    on the corpus that lists each piece as often as replicate r draws it."""
    raw = sampled_corpus(
        space, np.array([0.0, 0.0, 0.0, -2.0]), n_pieces=16, length=15, seed=3
    )
    seed = 11
    res = bootstrap(vl_corpus, space, n_replicates=3, seed=seed)
    warm = {key: fitted.weights for key, fitted in res.point.fits.items()}
    for r in range(3):
        mult = _replicate_multiplicities(seed, r, len(raw.pieces))
        assert mult.sum() == 16 and (mult == 0).any() and (mult > 1).any()
        order = np.repeat(np.arange(len(raw.pieces)), mult)
        repeated = CorpusFile(tuple(raw.pieces[i] for i in order))
        explicit = collapsed(space, repeated)
        assert explicit.n_events == sum(
            m * p.n_events for m, p in zip(mult, vl_corpus.pieces)
        )
        report = feature_importance(explicit, space, warm_starts=warm)
        for measure in MEASURES:
            assert np.array_equal(res.replicates[measure][r],
                                  report.values(measure))


def test_bootstrap_single_replicate_degenerate_interval(space, vl_corpus):
    res = bootstrap(vl_corpus, space, n_replicates=1, seed=5, level=0.99)
    for m in MEASURES:
        assert np.array_equal(res.lower[m], res.replicates[m][0])
        assert np.array_equal(res.upper[m], res.replicates[m][0])
    # the point estimate stays the full-corpus value, not the replicate
    assert np.allclose(
        res.point.weights, feature_importance(vl_corpus, space).weights
    )


def test_bootstrap_identical_pieces_zero_width(space):
    piece = [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7), (0, 4, 7, 10)]
    corpus = collapsed(space, make_corpus([piece] * 12))
    res = bootstrap(corpus, space, n_replicates=6, seed=1)
    assert np.array_equal(res.lower["weight"], res.upper["weight"])
    assert np.allclose(res.lower["weight"], res.point.weights, atol=1e-6)


def test_bootstrap_interval_covers_generating_weight(space):
    corpus = collapsed(
        space,
        sampled_corpus(
            space, np.array([0.0, 0.0, 0.0, -1.0]), n_pieces=24, length=30, seed=21
        ),
    )
    res = bootstrap(corpus, space, n_replicates=40, seed=2, level=0.99)
    j = NAMES.index("voice_leading_distance")
    assert res.lower["weight"][j] <= -1.0 <= res.upper["weight"][j]
    assert res.n_nonconverged == 0
    assert not res.flagged


def test_bootstrap_validates_inputs(space, vl_corpus):
    single = collapsed(space, make_corpus([[(0, 4, 7), (0, 5, 9)]]))
    with pytest.raises(ValueError, match="at least 2 pieces"):
        bootstrap(single, space, n_replicates=2)
    with pytest.raises(ValueError, match="n_replicates"):
        bootstrap(vl_corpus, space, n_replicates=0)
    with pytest.raises(ValueError, match="level"):
        bootstrap(vl_corpus, space, n_replicates=2, level=1.0)


def test_flagged_property_threshold(space, vl_report):
    res = BootstrapResult(
        feature_names=NAMES,
        point=vl_report,
        lower={},
        upper={},
        replicates={},
        n_replicates=1000,
        level=0.99,
        seed=0,
        n_nonconverged=10,
    )
    assert not res.flagged  # exactly 1% is not over the threshold
    res.n_nonconverged = 11
    assert res.flagged


def test_per_composition_matches_single_piece_fit(space):
    pieces = [
        [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)],
        [(0, 3, 7), (5, 8, 0), (0, 3, 7)],
        [(0, 6)],  # single event: skipped
    ]
    corpus = collapsed(space, make_corpus(pieces, ids=["a", "b", "tiny"]))
    result = per_composition_importance(corpus, space, ridge=1e-3)
    assert result.skipped == ("tiny",)
    assert [r.piece_id for r in result.reports] == ["a", "b"]
    assert all(r.level == "composition" for r in result.reports)
    assert all(r.to_dict()["level"] == "composition" for r in result.reports)
    # equals a corpus-level run on just that piece at the same ridge
    solo = feature_importance(
        collapsed(space, make_corpus(pieces[:1], ids=["a"])), space, ridge=1e-3
    )
    assert np.allclose(result.reports[0].weights, solo.weights, atol=1e-9)
    rows = result.rows()
    assert len(rows) == 2 * len(MEASURES) * len(NAMES)
    assert {r["piece_id"] for r in rows} == {"a", "b"}


def test_warm_started_replicate_nest_converges_on_a_large_corpus(space):
    """The point nest and the warm-started nest of a bootstrap replicate on
    about 1e5 events converge in every sub-fit."""
    cc = collapsed(space, diatonic_corpus(1, n_pieces=2500))
    result = bootstrap(cc, space, n_replicates=1, seed=0)
    assert result.point.nonconverged_fits == ()
    assert result.n_nonconverged == 0
