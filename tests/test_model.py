"""Energy model: cost, gradient, fitting, and sampling."""

from __future__ import annotations

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordmodel.corpus import collapse, relative_ids
from chordmodel.importance import feature_importance
from chordmodel.model import (
    GRADIENT_TOL,
    EnergyModel,
    _corpus_terms,
    _evaluate,
    _RowStatistics,
    _scores,
    _softmax,
    _statistics,
    conditional_distribution,
    corpus_cost,
    corpus_gradient,
    energy,
    fit,
    full_mask,
    mask_from_names,
    sample_corpus,
    sample_sequence,
)
from chordmodel.pcset import enumerate_alphabet

from helpers import (
    absolute_rows,
    bfgs_reference_fit,
    choice_sample_sequence,
    collapsed,
    diatonic_corpus,
    make_corpus,
    naive_cost_gradient,
    reference_evaluate,
    reference_sample_sequence,
    sampled_corpus,
)

WEIGHTS = np.array([0.5, 1.0, -1.0, -0.5])


@pytest.fixture(scope="module")
def small_corpus(space):
    return collapsed(
        space,
        make_corpus(
            [
                [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)],
                [(0, 3, 7), (5, 8, 0), (0, 3, 7)],
                [(0,), (0, 6), (0, 2, 4, 5, 7, 9, 11)],
            ]
        ),
    )


def test_energy_is_linear_in_weights(space):
    a = EnergyModel(space, weights=np.array([0.3, -0.2, 0.7, 0.1]))
    b = EnergyModel(space, weights=np.array([-1.0, 0.4, 0.0, 2.0]))
    both = EnergyModel(space, weights=a.weights + b.weights)
    for ctx, x in [(None, (0, 4, 7)), ((0, 4, 7), (0, 5, 9)), ((0,), (0, 6))]:
        assert energy(ctx, x, both) == pytest.approx(
            energy(ctx, x, a) + energy(ctx, x, b), abs=1e-12
        )


def test_masked_weights_are_inert(space):
    m = EnergyModel(
        space,
        weights=np.array([0.5, 9.0, -0.25, 9.0]),
        feature_mask=mask_from_names(["chord_size", "spectral_distance"]),
    )
    ref = EnergyModel(space, weights=np.array([0.5, 0.0, -0.25, 0.0]))
    assert energy((0, 4, 7), (0, 5, 9), m) == energy((0, 4, 7), (0, 5, 9), ref)
    assert np.array_equal(m.effective_weights, ref.weights)


def test_conditional_distribution_normalizes(space):
    model = EnergyModel(space, weights=WEIGHTS)
    for ctx in [None, (0, 4, 7), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)]:
        p = conditional_distribution(ctx, model)
        assert p.shape == (4095,)
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_zero_weights_give_uniform_distribution(space):
    p = conditional_distribution((0, 4, 7), EnergyModel(space))
    assert np.allclose(p, 1.0 / 4095, atol=1e-15)


def test_empty_mask_cost_is_exactly_log_alphabet(space, small_corpus):
    result = fit(small_corpus, space, feature_mask=np.zeros(4, bool))
    assert result.cross_entropy == math.log(4095)
    assert result.iterations == 0
    assert result.converged
    assert np.all(result.weights == 0.0)


def test_gradient_matches_finite_differences(space, small_corpus):
    w = np.array([0.3, -0.4, 0.8, -0.6])
    grad = corpus_gradient(small_corpus, EnergyModel(space, weights=w.copy()))
    eps = 1e-6
    for k in range(4):
        wp, wm = w.copy(), w.copy()
        wp[k] += eps
        wm[k] -= eps
        fd = (
            corpus_cost(small_corpus, EnergyModel(space, weights=wp))
            - corpus_cost(small_corpus, EnergyModel(space, weights=wm))
        ) / (2 * eps)
        assert abs(grad[k] - fd) < 1e-5 * max(1.0, abs(fd))


def test_hessian_matches_central_differences(space, small_corpus):
    w = np.array([0.3, -0.4, 0.8, -0.6])
    eps = 1e-5
    for mask, ridge in [
        (full_mask(), 0.0),
        (mask_from_names(["harmonicity", "voice_leading_distance"]), 0.7),
    ]:
        active = np.flatnonzero(mask)
        hess = _corpus_terms(
            small_corpus, EnergyModel(space, weights=w, feature_mask=mask), ridge
        )[3]
        assert hess.shape == (len(active), len(active))
        for a, k in enumerate(active):
            wp, wm = w.copy(), w.copy()
            wp[k] += eps
            wm[k] -= eps
            fd = (
                corpus_gradient(
                    small_corpus, EnergyModel(space, wp, feature_mask=mask), ridge
                )
                - corpus_gradient(
                    small_corpus, EnergyModel(space, wm, feature_mask=mask), ridge
                )
            )[active] / (2 * eps)
            assert np.all(np.abs(hess[a] - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))


def test_collapsed_gradient_matches_event_by_event(space):
    corpus = make_corpus(
        [
            [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7), (0, 4, 7, 10)],
            [(1, 5, 8), (1, 6, 10), (3, 8, 0)],
        ]
    )
    cc = collapsed(space, corpus)
    model = EnergyModel(space, weights=WEIGHTS.copy())
    cost, grad = naive_cost_gradient(corpus, space, WEIGHTS)
    assert abs(corpus_cost(cc, model) - cost) < 1e-9
    assert np.allclose(corpus_gradient(cc, model), grad, atol=1e-9)


def test_ridge_penalty_adds_quadratic_term(space, small_corpus):
    w = np.array([0.2, -0.1, 0.4, 0.3])
    model = EnergyModel(space, weights=w.copy())
    base = corpus_cost(small_corpus, model)
    ridge = 0.7
    assert corpus_cost(small_corpus, model, ridge) == pytest.approx(
        base + 0.5 * ridge * float(w @ w), abs=1e-12
    )
    g0 = corpus_gradient(small_corpus, model)
    g1 = corpus_gradient(small_corpus, model, ridge)
    assert np.allclose(g1 - g0, ridge * w, atol=1e-12)


def test_fit_reaches_stationary_point(space, small_corpus):
    result = fit(small_corpus, space)
    assert result.converged
    assert result.gradient_norm <= 1e-6
    assert result.cross_entropy < math.log(4095)  # beats the uniform model
    assert result.n_events == small_corpus.n_events


def test_fit_recovers_generating_weights(space):
    corpus = sampled_corpus(space, WEIGHTS, n_pieces=60, length=20, seed=11)
    result = fit(collapsed(space, corpus), space)
    assert result.converged
    assert np.all(np.abs(result.weights - WEIGHTS) < 0.15)


@settings(max_examples=20, deadline=None)
@given(
    diatonic=st.booleans(),
    seed=st.integers(0, 10_000),
    size=st.integers(3, 12),
    weights=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    mask_bits=st.integers(1, 15),
    ridge=st.sampled_from([0.0, 0.5]),
)
def test_newton_matches_bfgs_reference(
    space, diatonic, seed, size, weights, mask_bits, ridge
):
    if diatonic:
        corpus = diatonic_corpus(seed, n_pieces=3 * size)
    else:
        corpus = sampled_corpus(space, weights, n_pieces=size, length=15, seed=seed)
    cc = collapsed(space, corpus)
    mask = np.array([mask_bits >> k & 1 for k in range(4)], dtype=bool)
    result = fit(cc, space, feature_mask=mask, ridge=ridge)
    reference = bfgs_reference_fit(cc, space, mask, ridge)
    assert result.converged
    assert np.max(np.abs(result.weights - reference)) <= 1e-8

    # the penalized cost per event is stationary at the optimum (it is the
    # cross entropy when ridge = 0), so it must agree to rounding
    def objective(w):
        return corpus_cost(cc, EnergyModel(space, w, feature_mask=mask), ridge)

    per_event = objective(result.weights) / cc.n_events
    assert abs(per_event - objective(reference) / cc.n_events) <= 1e-12
    if ridge == 0.0:
        assert result.cross_entropy == pytest.approx(per_event, abs=1e-15)


def test_fit_converges_on_a_large_diatonic_corpus(space):
    """About 1e5 events: cost differences near the optimum fall below the
    float resolution of the summed cost while the gradient is still above
    GRADIENT_TOL, so a fit that can only compare costs stalls there."""
    cc = collapsed(space, diatonic_corpus(1, n_pieces=2500))
    assert cc.n_events > 90_000
    result = fit(cc, space)
    assert result.converged
    assert result.gradient_norm <= GRADIENT_TOL == 1e-6


def test_nested_masks_never_increase_cross_entropy(space, small_corpus):
    """Adding a feature can only improve (or match) the optimal fit."""
    names = ("chord_size", "harmonicity", "spectral_distance",
             "voice_leading_distance")
    ce = {}
    for r in range(5):
        for combo in itertools.combinations(names, r):
            ce[frozenset(combo)] = fit(
                small_corpus, space, feature_mask=mask_from_names(combo)
            ).cross_entropy
    for subset, value in ce.items():
        for superset, value2 in ce.items():
            if subset < superset:
                assert value2 <= value + 1e-9
    assert ce[frozenset()] == math.log(4095)


def test_fit_rejects_empty_corpus(space):
    with pytest.raises(ValueError, match="empty corpus"):
        fit(collapse(make_corpus([]), space.alphabet), space)


@pytest.mark.parametrize("ridge", [-1e-3, -100.0, math.inf, math.nan])
def test_fit_rejects_negative_or_nonfinite_ridge(space, small_corpus, ridge):
    """A negative ridge makes the penalized cost non-convex."""
    with pytest.raises(ValueError, match="ridge"):
        fit(small_corpus, space, ridge=ridge)
    with pytest.raises(ValueError, match="ridge"):
        feature_importance(small_corpus, space, ridge=ridge)


def test_warm_start_changes_path_not_optimum(space, small_corpus):
    cold = fit(small_corpus, space)
    warm = fit(small_corpus, space, w0=cold.weights)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert abs(warm.cross_entropy - cold.cross_entropy) < 1e-9


# masks with no, one and every feature active, and some in between
MASKS = [np.array([m >> k & 1 for k in range(4)], dtype=bool)
         for m in (0, 1, 2, 4, 8, 15, 5, 12)]
# transposition-symmetric contexts: tritone, augmented triad, diminished
# seventh, whole-tone scale and the full chromatic set
SYMMETRIC = [(0, 6), (0, 4, 8), (0, 3, 6, 9), (0, 2, 4, 6, 8, 10), tuple(range(12))]


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    mask=st.sampled_from(MASKS),
    ctx=st.one_of(st.none(), st.sampled_from(SYMMETRIC),
                  st.integers(0, 4094).map(lambda i: enumerate_alphabet()[i])),
)
def test_conditional_is_the_fit_kernels_row(space, weights, mask, ctx):
    """conditional_distribution(ctx) is, bit for bit, the softmax row that
    the fit evaluates for ctx's class, read in chord-id order."""
    al = space.alphabet
    model = EnergyModel(space, weights=np.array(weights), feature_mask=mask)
    p = conditional_distribution(ctx, model)
    # a corpus with ctx as a context among others, so the kernel sees several rows
    chords = [(0, 4, 7), (2, 5, 9), (7, 11, 2, 5)] + ([] if ctx is None else [ctx, (1,)])
    cc = collapse(make_corpus([chords, [(3, 7, 10), (0,)]]), al)
    stats = _statistics(space, cc)
    probs = _softmax(_scores(stats.tables, model.effective_weights,
                             np.flatnonzero(mask)))[2]
    if ctx is None:
        table_row, order = -1, np.arange(len(al))
    else:
        ctx_id = al.id_of(ctx)
        table_row = al.rep_row[ctx_id]
        order = relative_ids(ctx_id, np.arange(len(al)), al)
    # the kernel's rows are the corpus's table rows in order, start row -1 first
    row = int(np.searchsorted(np.unique(cc.group_counts[0]), table_row))
    relative = np.empty_like(p)
    relative[order] = p
    assert np.array_equal(relative, probs[row if len(probs) > 1 else 0])
    # and it is the softmax of the naive absolute rows, to rounding
    scores = absolute_rows(space, None if ctx is None else al.id_of(ctx)) \
        @ model.effective_weights
    naive = np.exp(scores - scores.max())
    assert np.allclose(p, naive / naive.sum(), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("ctx", [None, tuple(range(12))])
def test_edge_rows_score_as_absolute_rows(space, ctx):
    """The start context (table row -1) and the chromatic aggregate (the last
    class row, just before it) read their own rows: conditional_distribution
    and energy equal, bit for bit, the kernel's arithmetic on absolute_rows.
    Both contexts read their row in chord-id order, so the sums agree too."""
    al = space.alphabet
    ctx_id = None if ctx is None else al.id_of(ctx)
    if ctx is not None:
        assert al.rep_row[ctx_id] == al.n_classes - 1
    rows = absolute_rows(space, ctx_id)
    for weights, mask in itertools.product(
            ([0.5, 1.0, -1.0, -0.5], [-0.3, 2.0, -1.5, -2.5]), MASKS):
        model = EnergyModel(space, weights=np.array(weights), feature_mask=mask)
        w = model.effective_weights
        scores = sum((w[k] * rows[:, k] for k in np.flatnonzero(mask)),
                     np.zeros(len(al)))
        want = _softmax(scores[None])[2][0]
        assert conditional_distribution(ctx, model).tobytes() == want.tobytes()
        for j in (0, 1000, 4094):
            assert energy(ctx, al[j], model) == -float(scores[j])


def _row_subset_statistics(space, n_rows, seed) -> _RowStatistics:
    """Statistics over n_rows random table rows (the start row -1 among the
    candidates) with random counts and observed sums."""
    rng = np.random.default_rng(seed)
    rows = np.sort(rng.choice(np.arange(-1, space.alphabet.n_classes), n_rows,
                              replace=False))
    return _RowStatistics(rng.integers(1, 1000, n_rows).astype(float),
                          rng.normal(0.0, 100.0, space.n_features),
                          space.row_tables(rows), len(space.alphabet))


@settings(max_examples=60, deadline=None)
@given(
    # one block, the edges of the first and second block, and many blocks
    n_rows=st.sampled_from([1, 15, 16, 17, 33, 300, 352]),
    seed=st.integers(0, 2**32 - 1),
    # every non-empty mask; 1, 2 and 3 hold context-free features only
    mask=st.integers(1, 15).map(
        lambda m: np.array([m >> k & 1 for k in range(4)], dtype=bool)),
    weights=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
    ridge=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
)
def test_evaluate_equals_one_pass_reference(space, n_rows, seed, mask, weights, ridge):
    """_evaluate in row blocks is, bit for bit, one pass over all rows, and
    without the Hessian gives the same cost and gradient bits."""
    stats = _row_subset_statistics(space, n_rows, seed)
    w = np.where(mask, weights, 0.0)
    active = np.flatnonzero(mask)
    data_cost, cost, grad, hess = _evaluate(stats, w, active, ridge)
    want = reference_evaluate(stats, w, active, ridge)
    assert data_cost == want[0] and cost == want[1]
    assert np.array_equal(grad, want[2]) and np.array_equal(hess, want[3])
    no_hess = _evaluate(stats, w, active, ridge, hessian=False)
    assert no_hess[0] == data_cost and no_hess[1] == cost
    assert np.array_equal(no_hess[2], grad) and no_hess[3] is None


def test_evaluate_memory_does_not_grow_with_rows(space):
    """One evaluation at 336 rows allocates a few blocks' worth of
    temporaries, not R x n_chords arrays (one of those is 11 MB)."""
    stats = _row_subset_statistics(space, 336, seed=0)
    active = np.flatnonzero(full_mask())
    tracemalloc.start()
    try:
        _evaluate(stats, WEIGHTS, active, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sampler_draws_as_the_naive_reference(space):
    """The kernel's sampler and absolute rows @ w draw the same chords."""
    for weights in ([0.0] * 4, [0.5, 1.0, -1.0, -0.5], [3.0, -3.0, 3.0, -3.0],
                    [-0.3, 2.0, -1.5, -2.5]):
        model = EnergyModel(space, weights=np.array(weights))
        for seed in range(10):
            assert sample_sequence(model, 60, np.random.default_rng(seed)) == \
                reference_sample_sequence(model, 60, np.random.default_rng(seed))


@settings(max_examples=80, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.sampled_from([-4.0, 4.0]),
                               st.floats(-4.0, 4.0)), min_size=4, max_size=4),
    mask=st.integers(1, 15).map(
        lambda m: np.array([m >> k & 1 for k in range(4)], dtype=bool)),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(1, 80),
)
def test_sampler_draws_as_generator_choice(space, weights, mask, seed, length):
    """The inverse-CDF sampler draws, chord for chord, what Generator.choice
    drew from the same conditionals and the same seed."""
    model = EnergyModel(space, weights=np.array(weights), feature_mask=mask)
    assert sample_sequence(model, length, np.random.default_rng(seed)) == \
        choice_sample_sequence(model, length, np.random.default_rng(seed))


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0.0), st.sampled_from([-4.0, 4.0]),
                               st.floats(-4.0, 4.0)), min_size=4, max_size=4),
    mask=st.integers(1, 15).map(
        lambda m: np.array([m >> k & 1 for k in range(4)], dtype=bool)),
    seed=st.integers(0, 2**32 - 1),
    n_pieces=st.integers(1, 6),
    length=st.integers(1, 40),
)
def test_sample_corpus_draws_as_chained_generator_choice(
        space, weights, mask, seed, n_pieces, length):
    """A corpus sampled with its class rows kept across pieces draws what
    n_pieces chained Generator.choice samplers drew from one generator,
    with masks of context-free features only among those drawn."""
    model = EnergyModel(space, weights=np.array(weights), feature_mask=mask)
    rng = np.random.default_rng(seed)
    expected = tuple(choice_sample_sequence(model, length, rng)
                     for _ in range(n_pieces))
    assert sample_corpus(model, n_pieces, length,
                         np.random.default_rng(seed)) == expected


def test_sample_corpus_keeps_nothing_between_calls(space):
    """Two models over one space sampled alternately each draw their own
    reference chords: no call reads rows another call scored."""
    models = [EnergyModel(space, weights=np.array(w)) for w in
              ([0.5, 1.0, -1.0, -0.5], [-2.0, 0.3, 2.5, -3.0])]
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(3):
        for model in models:
            expected = tuple(choice_sample_sequence(model, 15, ref_rng)
                             for _ in range(2))
            assert sample_corpus(model, 2, 15, rng) == expected
    assert sample_corpus(models[0], 0, 5, rng) == ()
    with pytest.raises(ValueError, match="pieces"):
        sample_corpus(models[0], -1, 5, rng)


def test_sampler_rejects_a_conditional_that_does_not_sum_to_one(space):
    """The guard Generator.choice gave: weights that overflow after the model
    was built make the conditional NaN, which must not be sampled from."""
    model = EnergyModel(space, weights=WEIGHTS)
    model.weights = np.array([1e308, 0.0, 0.0, 0.0])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="sums to"):
        sample_sequence(model, 3, np.random.default_rng(0))


def test_model_rejects_weights_whose_feature_sums_overflow(space):
    """Finite weights whose weighted tables, or a score minus its row
    maximum, overflow raise at construction, before any arithmetic could
    warn; weights just inside the bound sample without a warning."""
    size_bound = space.table_bounds[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for weights in ([1e308, 0, 0, 0], [0, 0, -1e308, 0], [0, 1e308, 0, 1e308],
                        [1.5e308 / size_bound, 0, 0, 0]):
            with pytest.raises(ValueError, match="weights too large"):
                EnergyModel(space, weights=np.array(weights, dtype=float))
        for weights in ([1e200, 1e200, 0.0, 0.0], [0.8e308 / size_bound, 0, 0, 0]):
            model = EnergyModel(space, weights=np.array(weights))
            sample_sequence(model, 3, np.random.default_rng(0))
        # a masked-out weight is pinned to 0 and cannot overflow
        EnergyModel(space, weights=np.array([1e308, 0.0, 0.0, 0.0]),
                    feature_mask=np.array([False, True, True, True]))


def test_sample_sequence_is_deterministic_per_seed(space):
    model = EnergyModel(space, weights=WEIGHTS)
    a = sample_sequence(model, 12, np.random.default_rng(7))
    b = sample_sequence(model, 12, np.random.default_rng(7))
    c = sample_sequence(model, 12, np.random.default_rng(8))
    assert a == b
    assert a != c
    assert len(a) == 12
    assert all(isinstance(x, tuple) and x for x in a)
    with pytest.raises(ValueError):
        sample_sequence(model, 0, np.random.default_rng(0))


def test_sampled_chords_follow_the_model(space):
    """Strong chord-size weight pushes samples toward large chords."""
    big = EnergyModel(space, weights=np.array([3.0, 0.0, 0.0, 0.0]))
    rng = np.random.default_rng(0)
    sizes = [len(x) for x in sample_sequence(big, 40, rng)]
    assert np.mean(sizes) > 9.0


def test_model_validates_weight_vector(space):
    with pytest.raises(ValueError, match="expected 4 weights"):
        EnergyModel(space, weights=np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        EnergyModel(space, weights=np.array([np.nan, 0, 0, 0]))
    with pytest.raises(ValueError, match="unknown feature"):
        mask_from_names(["loudness"])
    assert np.array_equal(full_mask(), np.ones(4, bool))
