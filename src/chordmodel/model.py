"""Energy-based generative model of chord sequences.

A sequence probability factorizes into a chain of conditionals. Each
conditional is a softmax over the 4,095-chord alphabet: the probability of
continuation x after context ctx is exp(-E(ctx, x)) / Z(ctx), where the
energy E is the negated weighted sum of active transition features and Z
sums exp(-E) over the alphabet.

The model is log-linear, so the corpus enters the cost (total negative
log-likelihood, nats) only through sufficient statistics: the number of
events n_r in each context row (the start context and one row per collapsed
transposition class, at most 352 rows however large the corpus is) and the
observed feature sums Phi, together with the per-row feature tables they
are taken against. The start context is row -1 of every sequential feature
table, a row of zeros, so the start and the classes are read alike: the
statistics gather their rows from FeatureSpace.row_tables, the start row
sorting first, and a group's values are one (row, relative id) read of
them. The counts are the nonzero column totals of the corpus's count
matrix. Every sub-model of an importance nest is fitted from the same
statistics object with its own feature mask. Cost, gradient (expected minus
observed feature sums) and Hessian (count-weighted feature covariances)
come from per-row quantities computed in fixed blocks of ROW_BLOCK rows, so
the memory of one evaluation does not grow with the row count; the
count-weighted sums then run once over all rows. Every sum over rows, groups
or chords is a numpy reduction in a fixed order rather than a BLAS product,
so results are bit-identical across reruns and across BLAS thread counts.

Fitting and sampling share one kernel, _scores then _softmax on class-row
tables; sampling reads a context's row in chord-id order through
corpus.relative_ids, so it draws from exactly the conditional a fit evaluates.
The sampler walks chord ids, not pitch-class sets, and draws each chord by
inverse CDF over that chord-id-ordered row with one uniform per chord, the
arithmetic of numpy's Generator.choice, so its draws are choice's draws. It
scores and softmaxes each class row once per call and keeps the
probabilities, so a corpus of many chords pays for at most 352 rows.
EnergyModel rejects weights whose weighted tables could overflow, so no
score is inf or NaN.

The cost is convex in the weights. Fitting finds its minimum (optionally
ridge-penalized) by damped Newton from w = 0, the textbook fit of a
maximum-entropy model; the reported cross entropy is the per-event data
term only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import CollapsedCorpus, relative_ids
from .features import FEATURE_NAMES, N_FEATURES, ROW_BLOCK, FeatureSpace
from .pcset import PcSet, as_pcset

GRADIENT_TOL = 1e-6
MAX_ITERATIONS = 500


def full_mask(n_features: int = N_FEATURES) -> np.ndarray:
    return np.ones(n_features, dtype=bool)


def mask_from_names(names) -> np.ndarray:
    mask = np.zeros(N_FEATURES, dtype=bool)
    for name in names:
        if name not in FEATURE_NAMES:
            raise ValueError(
                f"unknown feature {name!r}; expected one of {FEATURE_NAMES}"
            )
        mask[FEATURE_NAMES.index(name)] = True
    return mask


@dataclass
class EnergyModel:
    """Feature weights plus the caches needed to evaluate them."""

    space: FeatureSpace
    weights: np.ndarray = None
    feature_mask: np.ndarray = None

    def __post_init__(self) -> None:
        n = self.space.n_features
        if self.weights is None:
            self.weights = np.zeros(n)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.feature_mask is None:
            self.feature_mask = full_mask(n)
        self.feature_mask = np.asarray(self.feature_mask, dtype=bool)
        if self.weights.shape != (n,):
            raise ValueError(f"expected {n} weights")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        # bounds every score and partial sum of the weighted tables, and its
        # double bounds a score minus its row maximum; Python floats
        # overflow to inf without a warning
        largest = sum(abs(w) * bound for w, bound in zip(
            self.effective_weights.tolist(), self.space.table_bounds, strict=True))
        if not math.isfinite(2.0 * largest):
            raise ValueError("weights too large: a weighted feature sum overflows")

    @property
    def effective_weights(self) -> np.ndarray:
        """Weights with masked-out features pinned to exactly 0."""
        return np.where(self.feature_mask, self.weights, 0.0)


@dataclass(frozen=True)
class _RowStatistics:
    """Sufficient statistics of a corpus, one row per context.

    Rows are the contexts with events in sorted table-row order: the start
    context (table row -1) first when any piece has a first event, then the
    context classes. counts[r] is the number of events in row r and observed
    the feature sums over all events (Phi). tables[k] holds feature k's
    standardized values per row, shape (n_rows, n_chords), as
    FeatureSpace.row_tables gathers them; a context-free feature has the
    same values in every row and keeps one (1, n_chords) row, which
    broadcasts against the rest.
    """

    counts: np.ndarray
    observed: np.ndarray
    tables: tuple
    n_chords: int


def _statistics(space: FeatureSpace, corpus: CollapsedCorpus) -> _RowStatistics:
    rows, rels, counts = corpus.group_counts
    classes, row_of = np.unique(rows, return_inverse=True)
    row_counts = np.bincount(row_of, weights=counts, minlength=len(classes))
    tables = space.row_tables(classes)

    def values(t, part):
        # a group's value in the gathered rows; a context-free table is one row
        return t[0, rels[part]] if len(t) == 1 else t[row_of[part], rels[part]]

    # the start groups' sums are one reduction over their (n_start, n_features)
    # block, apart from each feature's reduction over the transition groups
    start, trans = slice(corpus.n_start), slice(corpus.n_start, None)
    observed = np.einsum("i,ik->k", counts[start], np.stack(
        [values(t, start) for t in tables], axis=1))
    for k, table in enumerate(tables):
        observed[k] += np.einsum("i,i->", counts[trans], values(table, trans))
    return _RowStatistics(row_counts, observed, tables, len(space.alphabet))


def _scores(tables, w: np.ndarray, active: np.ndarray,
            start: np.ndarray | None = None) -> np.ndarray:
    """Scores (negated energies) per row and chord: w[k] * tables[k] summed
    over the active k in order, starting from start (default a zero row)."""
    if start is None:
        start = np.zeros((1, tables[0].shape[1]))
    return sum((w[k] * tables[k] for k in active), start)


def _softmax(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row maxima (as a column), the row sums z of exp(scores - max), and
    the row probabilities."""
    top = scores.max(axis=1, keepdims=True)
    expd = np.exp(scores - top)
    z = expd.sum(axis=1)
    return top, z, expd / z[:, None]


def _context_scores(model: EnergyModel, ctx: PcSet | None):
    """The kernel's score row for ctx's class (None: the start context),
    shape (1, n_chords), and the index (relative ids, or a slice) that reads
    that row in chord-id order."""
    al = model.space.alphabet
    row, order = -1, slice(None)
    if ctx is not None:
        ctx_id = al.id_of(as_pcset(ctx))
        row, order = al.rep_row[ctx_id], relative_ids(ctx_id, slice(None), al)
    tables = model.space.row_tables([row])
    return _scores(tables, model.effective_weights,
                   np.flatnonzero(model.feature_mask)), order


def energy(ctx: PcSet | None, x: PcSet, model: EnergyModel) -> float:
    """Negated weighted feature sum for one transition."""
    scores, order = _context_scores(model, ctx)
    return -float(scores[0, order][model.space.alphabet.id_of(as_pcset(x))])


def conditional_distribution(ctx: PcSet | None, model: EnergyModel) -> np.ndarray:
    """Softmax of negated energies over the alphabet, in chord-id order."""
    scores, order = _context_scores(model, ctx)
    return _softmax(scores)[2][0, order]


def _row_moments(tables, w: np.ndarray, active: np.ndarray,
                 hessian: bool = True) -> list:
    """Per-row quantities of the rows the tables hold: the row maxima, the
    row sums z, each active feature's mean and, with hessian, each pair's
    second moment (a <= b, row-major), all under the rows' softmax."""
    tables_active = [tables[k] for k in active]
    top, z, probs = _softmax(_scores(tables, w, active))
    means = [np.einsum("ij,ij->i", probs, t) for t in tables_active]
    seconds = [np.einsum("ij,ij->i", probs, ta * tables_active[b])
               for a, ta in enumerate(tables_active)
               for b in range(a, len(active))] if hessian else []
    return [top[:, 0], z, *means, *seconds]


def _evaluate(
    stats: _RowStatistics, w: np.ndarray, active: np.ndarray, ridge: float,
    hessian: bool = True,
) -> tuple[float, float, np.ndarray, np.ndarray | None]:
    """Data cost, penalized cost, gradient and Hessian at weights w.

    Gradient and Hessian cover the active features only. Without hessian
    the second moments are not formed and the Hessian is None; the other
    three values are the same bits either way. When every active
    feature is context-free, all rows share one softmax. The per-row
    quantities are computed ROW_BLOCK rows at a time; a row's values do not
    depend on the block it falls in, so the results are those of one pass
    over all rows while the temporaries stay ROW_BLOCK x n_chords. Sums over
    rows and chords are numpy reductions, not BLAS products, so their order
    and the result do not depend on the BLAS thread count.
    """
    n_rows = max(len(stats.tables[k]) for k in active)
    if n_rows <= ROW_BLOCK:
        per_row = _row_moments(stats.tables, w, active, hessian)
    else:
        blocks = [
            _row_moments(tuple(t if len(t) == 1 else t[lo:lo + ROW_BLOCK]
                               for t in stats.tables), w, active, hessian)
            for lo in range(0, n_rows, ROW_BLOCK)
        ]
        per_row = [np.concatenate(parts) for parts in zip(*blocks)]
    top, z, *moments = per_row
    means, seconds = moments[:len(active)], iter(moments[len(active):])
    counts = stats.counts if n_rows > 1 else stats.counts.sum(keepdims=True)
    w_active = w[active]
    data_cost = float(np.sum(counts * (top + np.log(z)))) - float(
        np.sum(w_active * stats.observed[active])
    )
    grad = np.array([np.sum(counts * m) for m in means]) - stats.observed[active]
    cost = data_cost + 0.5 * ridge * float(np.sum(w_active * w_active))
    grad = grad + ridge * w_active
    if not hessian:
        return data_cost, cost, grad, None
    hess = np.empty((len(active), len(active)))
    for a in range(len(active)):
        for b in range(a, len(active)):
            second = np.sum(counts * next(seconds))
            hess[a, b] = hess[b, a] = second - np.sum(counts * means[a] * means[b])
    hess[np.diag_indices_from(hess)] += ridge
    return data_cost, cost, grad, hess


def _corpus_terms(corpus: CollapsedCorpus, model: EnergyModel, ridge: float,
                  hessian: bool = True):
    mask = model.feature_mask
    stats = _statistics(model.space, corpus)
    return _evaluate(stats, model.effective_weights, np.flatnonzero(mask), ridge,
                     hessian)


def corpus_cost(corpus: CollapsedCorpus, model: EnergyModel,
                ridge: float = 0.0) -> float:
    """Negative log-likelihood of the corpus in nats (plus any ridge term)."""
    return _corpus_terms(corpus, model, ridge, hessian=False)[1]


def corpus_gradient(corpus: CollapsedCorpus, model: EnergyModel,
                    ridge: float = 0.0) -> np.ndarray:
    """Gradient of corpus_cost: expected minus observed feature sums."""
    grad = np.zeros(model.space.n_features)
    grad[model.feature_mask] = _corpus_terms(corpus, model, ridge, hessian=False)[2]
    return grad


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit."""

    weights: np.ndarray
    cross_entropy: float
    converged: bool
    iterations: int
    gradient_norm: float
    n_events: int
    ridge: float
    feature_mask: np.ndarray = field(repr=False, default=None)

    def to_dict(self, feature_names=FEATURE_NAMES) -> dict:
        return {
            "weights": {
                name: float(w) for name, w in zip(feature_names, self.weights)
            },
            "feature_mask": [
                name for name, on in zip(feature_names, self.feature_mask) if on
            ],
            "cross_entropy_nats": self.cross_entropy,
            "converged": self.converged,
            "iterations": self.iterations,
            "gradient_max_norm": self.gradient_norm,
            "n_events": self.n_events,
            "ridge": self.ridge,
        }


def fit(
    corpus: CollapsedCorpus,
    space: FeatureSpace,
    feature_mask: np.ndarray | None = None,
    ridge: float = 0.0,
    w0: np.ndarray | None = None,
) -> FitResult:
    """Minimize corpus cost over the active weights by damped Newton.

    Starts from w = 0 unless w0 is given. ridge must be finite and
    non-negative, which keeps the penalized cost convex. Each step is the
    minimum-norm solution of the Newton system, so a singular Hessian (say,
    two identical features) still gives a descent direction, and is halved
    until the cost decreases enough. The fit converges when no active
    gradient component exceeds GRADIENT_TOL; one more Newton step then
    polishes the weights. The returned cross entropy is the data term per
    event, in nats, excluding any ridge penalty.
    """
    mask = (full_mask(space.n_features) if feature_mask is None
            else np.asarray(feature_mask, bool))
    return _newton(_statistics(space, corpus), mask, ridge, w0)


def _newton(
    stats: _RowStatistics,
    mask: np.ndarray,
    ridge: float,
    w0: np.ndarray | None = None,
) -> FitResult:
    """fit() on statistics already built, so sub-fits of a nest share them."""
    if not 0.0 <= ridge < math.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge!r}")
    n_events = int(stats.counts.sum())  # exact: the counts are integers
    if n_events == 0:
        raise ValueError("cannot fit on an empty corpus")
    n_features = len(stats.tables)

    if not mask.any():
        # no active features: every conditional is uniform over the alphabet
        return FitResult(
            weights=np.zeros(n_features),
            cross_entropy=math.log(stats.n_chords),
            converged=True,
            iterations=0,
            gradient_norm=0.0,
            n_events=n_events,
            ridge=ridge,
            feature_mask=mask,
        )

    active = np.flatnonzero(mask)
    weights = np.zeros(n_features)
    if w0 is not None:
        weights[active] = np.asarray(w0, dtype=float)[active]
    data_cost, cost, grad, hess = _evaluate(stats, weights, active, ridge)
    iterations = 0
    while np.max(np.abs(grad)) > GRADIENT_TOL and iterations < MAX_ITERATIONS:
        step = -np.linalg.lstsq(hess, grad, rcond=None)[0]
        slope = float(grad @ step)
        t = 1.0
        for _ in range(60):
            trial = weights.copy()
            trial[active] += t * step
            terms = _evaluate(stats, trial, active, ridge)
            if terms[1] <= cost + 1e-4 * t * slope:
                break
            # near the optimum of a large corpus the decrease falls below the
            # rounding of the summed cost while the gradient is still
            # resolved: a step that leaves the cost unchanged to rounding is
            # accepted when it shrinks the gradient
            if (abs(terms[1] - cost) <= 64 * np.finfo(float).eps * abs(cost)
                    and np.max(np.abs(terms[2])) < np.max(np.abs(grad))):
                break
            t *= 0.5
        else:
            break  # no step size passed: not a descent direction
        weights = trial
        data_cost, cost, grad, hess = terms
        iterations += 1
    if np.max(np.abs(grad)) <= GRADIENT_TOL:
        # converged; one more full Newton step, kept if it shrinks the
        # gradient, takes the weights to the rounding floor, so they do not
        # depend on where the tolerance happened to cut the iteration
        trial = weights.copy()
        trial[active] -= np.linalg.lstsq(hess, grad, rcond=None)[0]
        # the fit ends here, so the polished point's Hessian is not needed
        terms = _evaluate(stats, trial, active, ridge, hessian=False)
        if np.max(np.abs(terms[2])) < np.max(np.abs(grad)):
            weights = trial
            data_cost, cost, grad, hess = terms
            iterations += 1
    gradient_norm = float(np.max(np.abs(grad)))
    return FitResult(
        weights=weights,
        cross_entropy=data_cost / n_events,
        converged=gradient_norm <= GRADIENT_TOL,
        iterations=iterations,
        gradient_norm=gradient_norm,
        n_events=n_events,
        ridge=ridge,
        feature_mask=mask,
    )


def sample_corpus(
    model: EnergyModel, n_pieces: int, length: int, rng: np.random.Generator
) -> tuple[tuple[PcSet, ...], ...]:
    """Ancestral samples of n_pieces chord sequences of length chords each,
    drawn in order from one rng through the chain factorization.

    Each chord is drawn by inverse CDF from its context's conditional in
    chord-id order, with one rng.random() per chord: the arithmetic of
    Generator.choice(n_chords, p=conditional), so the draws are its draws.
    The chain walks chord ids. A context class row (row -1 is the start) is
    scored and softmaxed on its first visit, exactly as
    conditional_distribution scores it, and its probabilities are kept for
    the rest of the call: at most one row of n_chords float64 per class row
    and the start, 352 x 4,095 (11.5 MB) on the full alphabet. Each draw
    then reads the kept row in its context's chord-id order.
    """
    if n_pieces < 0:
        raise ValueError("number of pieces must be at least 0")
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    space, al = model.space, model.space.alphabet
    w, active = model.effective_weights, np.flatnonzero(model.feature_mask)
    tolerance = math.sqrt(np.finfo(float).eps)
    row_probs: dict[int, np.ndarray] = {}
    pieces = []
    for _ in range(n_pieces):
        ids: list[int] = []
        row, order = -1, slice(None)  # the start context
        for _ in range(length):
            probs = row_probs.get(row)
            if probs is None:
                scores = _scores(space.row_tables([row]), w, active)
                probs = row_probs[row] = _softmax(scores)[2][0]
            cdf = probs[order].cumsum()
            if not abs(cdf[-1] - 1.0) <= tolerance:  # also NaN and inf
                raise ValueError(f"conditional sums to {cdf[-1]!r}, not 1")
            cdf /= cdf[-1]
            chord_id = int(cdf.searchsorted(rng.random(), side="right"))
            ids.append(chord_id)
            row = int(al.rep_row[chord_id])
            order = relative_ids(chord_id, slice(None), al)
        pieces.append(tuple(al[i] for i in ids))
    return tuple(pieces)


def sample_sequence(
    model: EnergyModel, length: int, rng: np.random.Generator
) -> tuple[PcSet, ...]:
    """One chord sequence: sample_corpus of a single piece."""
    return sample_corpus(model, 1, length, rng)[0]
