"""Independent oracles and corpus builders shared across the test suite.

The voice-leading oracles deliberately use different algorithm families
than the production code (star-union enumeration and a covered-subset DP
versus the production rotation-pair staircase), so agreement is evidence,
not tautology. transition_features computes one transition's features from
fresh spectra and a fresh voice-leading solve. The harmonicity oracle
evaluates the virtual-pitch profile one bin at a time with an explicit
cosine, no FFT. The naive model oracle evaluates one softmax per event with
no transposition grouping, and the reference fit reaches the optimum with
scipy's generic optimizers instead of the package's Newton solver.
reference_evaluate is the model's evaluation as one pass over all context
rows, which the row-block version must equal bit for bit.
standardized_tables holds every feature's standardized table whole, as the
feature space once stored it, which FeatureSpace.row_tables must equal row
for row, bit for bit.
choice_sample_sequence is the sampler that drew each chord with
Generator.choice, which the inverse-CDF sampler must equal draw for draw.
"""

from __future__ import annotations

import bisect
import copy
import io
import itertools
import math
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize, root

from chordmodel.cli import FEATURE_CSV_COLUMNS, _csv_header, _csv_value
from chordmodel.corpus import (
    CorpusFile,
    Piece,
    collapse,
    preprocess_corpus,
)
from chordmodel.features import FEATURE_NAMES
from chordmodel.model import (
    EnergyModel,
    _RowStatistics,
    _scores,
    _softmax,
    conditional_distribution,
    corpus_cost,
    corpus_gradient,
    sample_corpus,
)
from chordmodel.pcset import (
    N_PITCH_CLASSES,
    as_pcset,
    enumerate_alphabet,
    format_pcset,
    normal_form,
    pc_distance,
    transpose,
)
from chordmodel.spectrum import (
    SpectrumParams,
    harmonic_tone_spectrum,
    pcset_spectrum,
    spectral_distance,
)
from chordmodel.voiceleading import voice_leading_distance


def make_corpus(pieces_chords, ids=None) -> CorpusFile:
    """CorpusFile from a list of chord-tuple sequences (bass-less)."""
    pieces = tuple(
        Piece(ids[k] if ids else f"piece-{k:04d}",
              tuple(tuple(sorted(c)) for c in chords))
        for k, chords in enumerate(pieces_chords)
    )
    return CorpusFile(pieces=pieces)


def sampled_corpus(space, weights, n_pieces, length, seed) -> CorpusFile:
    """Corpus drawn from the model itself; the standard synthetic oracle."""
    model = EnergyModel(space, weights=np.asarray(weights, dtype=float))
    return make_corpus(sample_corpus(model, n_pieces, length,
                                     np.random.default_rng(seed)))


# Functional-harmony transition weights between the degrees I..vii of a
# major key; common-practice moves dominate, every other move is rare.
DIATONIC_DEGREE_WEIGHTS = np.array([
    [0.0, 3.0, 1.0, 5.0, 6.0, 3.0, 1.0],
    [1.0, 0.0, 0.3, 1.0, 6.0, 0.3, 2.0],
    [0.3, 0.3, 0.0, 3.0, 0.3, 5.0, 0.3],
    [5.0, 2.0, 0.3, 0.0, 6.0, 0.3, 1.0],
    [8.0, 0.3, 0.3, 1.0, 0.0, 3.0, 0.3],
    [0.3, 4.0, 0.3, 4.0, 3.0, 0.0, 0.3],
    [6.0, 0.3, 2.0, 0.3, 0.3, 0.3, 0.0],
])


def diatonic_corpus(seed: int, n_pieces: int) -> CorpusFile:
    """Triad and seventh progressions in random major keys, drawn without the
    model. With thousands of pieces the summed cost is large enough that,
    near the optimum, cost differences fall below its float resolution.

    Same draws as the benchmark's small tonal corpora (perfbench/corpora.py,
    small_pieces(seed) is diatonic_corpus(seed, 20)).
    """
    rng = np.random.default_rng([seed, 1])
    cum = np.cumsum(DIATONIC_DEGREE_WEIGHTS, axis=1)
    cum = (cum / cum[:, -1:]).tolist()
    scale = (0, 2, 4, 5, 7, 9, 11)
    pieces = []
    for _ in range(n_pieces):
        key = int(rng.integers(12))
        length = int(rng.integers(33, 50))
        degree = (0, 0, 0, 5, 3)[int(rng.integers(5))]
        seventh = False
        chords = []
        for k, (u_rep, u_deg, u_sev) in enumerate(rng.random((length, 3)).tolist()):
            if k > 0 and u_rep >= 0.04:
                degree = min(bisect.bisect(cum[degree], u_deg), 6)
                seventh = u_sev < (0.25, 0.35, 0.2, 0.25, 0.5, 0.3, 0.5)[degree]
            steps = (0, 2, 4, 6) if seventh else (0, 2, 4)
            chords.append({(key + scale[(degree + s) % 7]) % 12 for s in steps})
        pieces.append(chords)
    return make_corpus(pieces)


def collapsed(space, corpus: CorpusFile):
    return collapse(preprocess_corpus(corpus), space.alphabet)


def collapse_piece_reference(
    piece: Piece, alphabet
) -> tuple[dict[int, int], dict[tuple[int, int], int]]:
    """One piece's (start, trans) group counts, one event at a time, through
    the alphabet's arrays: start maps a class representative id, trans a
    (context class row, relative continuation id) key, to its count."""
    start: dict[int, int] = {}
    trans: dict[tuple[int, int], int] = {}
    chords = piece.chords
    ids = [alphabet.id_of(c) for c in chords]
    for k, j in enumerate(ids):
        if k == 0:
            rep_id = int(alphabet.rep_ids[alphabet.rep_row[j]])
            start[rep_id] = start.get(rep_id, 0) + 1
        else:
            i = ids[k - 1]
            row = int(alphabet.rep_row[i])
            shift = int(alphabet.shift_of[i])
            rel = int(alphabet.perm[(-shift) % N_PITCH_CLASSES, j])
            key = (row, rel)
            trans[key] = trans.get(key, 0) + 1
    return start, trans


def features_csv_reference(space, corpus: CorpusFile, config) -> bytes:
    """The features CSV one event at a time, from
    FeatureSpace.raw_transition_values and TransitionFeatureStats.standardize."""
    al = space.alphabet

    def rows():
        for piece in corpus.pieces:
            prev_id: int | None = None
            prev_str = ""
            for chord in piece.chords:
                cur_id = al.id_of(chord)
                raw = space.raw_transition_values(prev_id, cur_id)
                std = space.stats.standardize(raw)
                row = {"piece_id": piece.id, "prev": prev_str,
                       "cur": format_pcset(chord)}
                for j, name in enumerate(FEATURE_NAMES):
                    row[f"{name}_raw"] = float(raw[j])
                    row[f"{name}_std"] = float(std[j])
                yield row
                prev_id, prev_str = cur_id, format_pcset(chord)

    buf = io.StringIO(newline="")
    writer = _csv_header(buf, FEATURE_CSV_COLUMNS, config)
    for row in rows():
        writer.writerow([_csv_value(row[c]) for c in FEATURE_CSV_COLUMNS])
    return buf.getvalue().encode("utf-8")


# ---------------------------------------------------------------------------
# alphabet oracle


def alphabet_reference(alphabet) -> dict[str, np.ndarray]:
    """The alphabet's lookup arrays rebuilt one chord at a time from
    transpose and normal_form, classes numbered by first appearance."""
    n = len(alphabet)
    perm = np.array([[alphabet.index[transpose(c, t)] for c in alphabet.chords]
                     for t in range(12)])
    rep_ids, orbit_sizes, row_of = [], [], {}
    rep_row, shift_of = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    for i, c in enumerate(alphabet.chords):
        tclass, shift = normal_form(c)
        rep_id = alphabet.index[tclass.representative]
        if rep_id not in row_of:
            row_of[rep_id] = len(rep_ids)
            rep_ids.append(rep_id)
            orbit_sizes.append(tclass.orbit_size)
        rep_row[i] = row_of[rep_id]
        shift_of[i] = shift
    return {"perm": perm, "rep_row": rep_row, "shift_of": shift_of,
            "rep_ids": np.array(rep_ids), "rep_orbit_sizes": np.array(orbit_sizes)}


# ---------------------------------------------------------------------------
# voice-leading oracles


def cost_matrix(x, y) -> np.ndarray:
    return np.array([[pc_distance(a, b) for b in y] for a in x], dtype=float)


@lru_cache(maxsize=None)
def _star_union_masks(m: int, n: int) -> np.ndarray:
    """All unions of left- and right-stars as (combo, m, n) booleans.

    Minimal edge covers decompose into stars, and every union of stars is
    reachable as {(i, f(i))} union {(g(j), j)} for maps f: rows -> cols and
    g: cols -> rows; enumerating both maps therefore covers every minimal
    cover.
    """
    f_maps = list(itertools.product(range(n), repeat=m))
    g_maps = list(itertools.product(range(m), repeat=n))
    masks = np.zeros((len(f_maps) * len(g_maps), m, n), dtype=bool)
    rows = np.arange(m)
    cols = np.arange(n)
    k = 0
    for f in f_maps:
        for g in g_maps:
            masks[k, rows, list(f)] = True
            masks[k, list(g), cols] = True
            k += 1
    return masks


def edge_cover_star_union(costs: np.ndarray) -> np.ndarray:
    """Exhaustive minimum edge cover for a batch of (P, m, n) cost tensors."""
    costs = np.asarray(costs, dtype=float)
    if costs.ndim == 2:
        costs = costs[None]
    _, m, n = costs.shape
    masks = _star_union_masks(m, n)
    totals = np.einsum("pmn,cmn->pc", costs, masks)
    return totals.min(axis=1)


def edge_cover_subset_dp(costs: np.ndarray) -> float:
    """Minimum edge cover by DP over the subset of covered columns.

    Row i picks a non-empty leaf set (its star); columns still uncovered at
    the end attach to their cheapest row.
    """
    costs = np.asarray(costs, dtype=float)
    m, n = costs.shape
    full = 1 << n
    subset_cost = np.zeros((m, full))
    for t in range(1, full):
        low = t & -t
        j = low.bit_length() - 1
        subset_cost[:, t] = subset_cost[:, t ^ low] + costs[:, j]
    dp = np.full(full, math.inf)
    dp[0] = 0.0
    for i in range(m):
        ndp = np.full(full, math.inf)
        for s in np.flatnonzero(np.isfinite(dp)):
            cand = dp[s] + subset_cost[i, 1:]
            targets = s | np.arange(1, full)
            np.minimum.at(ndp, targets, cand)
        dp = ndp
    colmin = costs.min(axis=0)
    best = math.inf
    for s in range(full):
        if not math.isfinite(dp[s]):
            continue
        extra = sum(colmin[j] for j in range(n) if not s >> j & 1)
        best = min(best, dp[s] + extra)
    return float(best)


def voice_leading_oracle(x, y) -> float:
    """Reference minimal voice-leading distance between two pitch-class sets."""
    return edge_cover_subset_dp(cost_matrix(x, y))


# ---------------------------------------------------------------------------
# harmonicity oracle


def harmonicity_oracle(x, params: SpectrumParams = SpectrumParams()) -> float:
    """Independent route: explicit cosine per bin, then rectangle-rule KL."""
    w = pcset_spectrum(x, params)
    q = np.empty(params.n_bins)
    for k in range(params.n_bins):
        tone = harmonic_tone_spectrum(k * params.bin_width, params)
        q[k] = 1.0 - spectral_distance(tone, w)
    q /= q.sum() * params.bin_width
    mask = q > 0
    return params.bin_width * float(
        np.sum(q[mask] * np.log2(12.0 * q[mask]))
    )


# ---------------------------------------------------------------------------
# transition features from first principles


def transition_features(
    prev,
    cur,
    stats,
    table,
    alphabet=None,
    params: SpectrumParams = SpectrumParams(),
) -> np.ndarray:
    """Standardized features of one transition, computed from first principles.

    Returns an array of shape (4,) in FEATURE_NAMES order. This is the slow
    reference path (fresh spectra, fresh voice-leading solve); FeatureSpace
    provides the cached equivalent for bulk work.
    """
    alphabet = alphabet or enumerate_alphabet()
    cur = as_pcset(cur)
    raw = np.empty(len(FEATURE_NAMES))
    raw[0] = len(cur)
    raw[1] = table.normalized[alphabet.id_of(cur)]
    if prev is None:
        raw[2] = stats.mean[2]
        raw[3] = stats.mean[3]
    else:
        prev = as_pcset(prev)
        raw[2] = spectral_distance(
            pcset_spectrum(prev, params), pcset_spectrum(cur, params)
        )
        raw[3] = voice_leading_distance(prev, cur)
    return stats.standardize(raw)


# ---------------------------------------------------------------------------
# model oracle


@lru_cache(maxsize=4)
def standardized_tables(space) -> tuple:
    """Every feature's standardized table, whole. A context-free feature
    (chord size, harmonicity) is a column of shape (4095,); a sequential one
    (spectral and voice-leading distance) is a matrix of shape
    (n_classes + 1, 4095): (raw - mean) / sd of the class rows, then one row
    of exact zeros for the start context, row -1."""
    al = space.alphabet
    mean, sd = space.stats.mean, space.stats.sd
    tables = [(al.sizes.astype(float) - mean[0]) / sd[0],
              (space.table.normalized - mean[1]) / sd[1]]
    for k, raw in enumerate((space.spectral_matrix, space.vl_matrix), start=2):
        table = np.zeros((al.n_classes + 1, len(al)))
        np.subtract(raw, mean[k], out=table[:-1])
        np.divide(table[:-1], sd[k], out=table[:-1])
        tables.append(table)
    for table in tables:
        table.setflags(write=False)  # every caller shares the cached tables
    return tuple(tables)


def table_bounds_reference(tables) -> tuple[float, ...]:
    """max |table| of each whole table."""
    return tuple(max(float(t.max()), -float(t.min())) for t in tables)


def absolute_rows(space, context_id: int | None) -> np.ndarray:
    """Standardized features of (context -> every chord) in chord-id order,
    shape (4095, 4): the context's row of each table, gathered through the
    permutation that transposes every continuation down by the context's
    shift. None is the start context, table row -1 with no shift."""
    al = space.alphabet
    row, shift = ((-1, 0) if context_id is None
                  else (al.rep_row[context_id], al.shift_of[context_id]))
    perm = al.perm[-shift % N_PITCH_CLASSES]
    return np.stack(
        [t[perm] if t.ndim == 1 else t[row, perm] for t in standardized_tables(space)],
        axis=1,
    )


def statistics_reference(space, corpus) -> _RowStatistics:
    """model._statistics with the start context kept apart from the class
    rows: start groups split off by their codes, a (4095, n_features) table
    of start features, and a start row concatenated onto each sequential
    table's class rows."""
    totals = np.bincount(corpus.indices, corpus.data, len(corpus.codes))
    codes, totals = corpus.codes[totals > 0], totals[totals > 0]
    n_start = np.searchsorted(codes, corpus.CODE_BASE)
    start_ids, start_counts = codes[:n_start], totals[:n_start]
    rows, rels = np.divmod(codes[n_start:], corpus.CODE_BASE)
    rows, counts = rows - 1, totals[n_start:]
    n_chords = len(space.alphabet)
    standardized = standardized_tables(space)
    start_features = np.stack(
        [t if t.ndim == 1 else np.zeros(n_chords) for t in standardized],
        axis=1,
    )

    classes, row_of = np.unique(rows, return_inverse=True)
    row_counts = np.bincount(row_of, weights=counts, minlength=len(classes))
    if len(start_ids):
        row_counts = np.concatenate([[start_counts.sum()], row_counts])
    observed = np.einsum("i,ik->k", start_counts, start_features[start_ids])
    tables = []
    for k, table in enumerate(standardized):
        observed[k] += np.einsum(
            "i,i->", counts, table[rels] if table.ndim == 1 else table[rows, rels])
        if table.ndim == 1:
            tables.append(table[None])
        elif len(start_ids):
            tables.append(np.concatenate([start_features[None, :, k], table[classes]]))
        else:
            tables.append(table[classes])
    return _RowStatistics(row_counts, observed, tuple(tables), n_chords)


def reference_sample_sequence(model, length: int, rng) -> tuple:
    """Ancestral sampling from absolute rows scored by a matrix-vector product,
    one softmax per chord; the same draws from rng as sample_sequence."""
    al = model.space.alphabet
    chords, ctx_id = [], None
    for _ in range(length):
        scores = absolute_rows(model.space, ctx_id) @ model.effective_weights
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        ctx_id = int(rng.choice(len(al), p=probs))
        chords.append(al[ctx_id])
    return tuple(chords)


def choice_sample_sequence(model, length: int, rng) -> tuple:
    """The sampler as it was before it drew by inverse CDF: chord by chord
    through PcSets, conditional_distribution and rng.choice."""
    al = model.space.alphabet
    chords = []
    ctx = None
    for _ in range(length):
        ctx = al[int(rng.choice(len(al), p=conditional_distribution(ctx, model)))]
        chords.append(ctx)
    return tuple(chords)


def reference_evaluate(stats: _RowStatistics, w, active, ridge):
    """model._evaluate as one pass over all rows at once: R x n_chords
    temporaries for the scores, the probabilities and each Hessian product."""
    tables = [stats.tables[k] for k in active]
    top, z, probs = _softmax(_scores(stats.tables, w, active))
    counts = stats.counts if len(probs) > 1 else stats.counts.sum(keepdims=True)
    w_active = w[active]
    data_cost = float(np.sum(counts * (top[:, 0] + np.log(z)))) - float(
        np.sum(w_active * stats.observed[active])
    )
    means = [np.einsum("ij,ij->i", probs, t) for t in tables]
    grad = np.array([np.sum(counts * m) for m in means]) - stats.observed[active]
    hess = np.empty((len(active), len(active)))
    for a, ta in enumerate(tables):
        for b in range(a, len(active)):
            second = np.sum(counts * np.einsum("ij,ij->i", probs, ta * tables[b]))
            hess[a, b] = hess[b, a] = second - np.sum(counts * means[a] * means[b])
    cost = data_cost + 0.5 * ridge * float(np.sum(w_active * w_active))
    grad = grad + ridge * w_active
    hess[np.diag_indices_from(hess)] += ridge
    return data_cost, cost, grad, hess


def naive_cost_gradient(corpus: CorpusFile, space, weights):
    """Event-by-event cost and gradient with no transposition grouping."""
    weights = np.asarray(weights, dtype=float)
    al = space.alphabet
    cost = 0.0
    grad = np.zeros(space.n_features)
    for piece in corpus.pieces:
        prev = None
        for chord in piece.chords:
            cid = al.id_of(chord)
            feats = absolute_rows(space, None if prev is None else al.id_of(prev))
            scores = feats @ weights
            mx = scores.max()
            expd = np.exp(scores - mx)
            z = expd.sum()
            cost += math.log(z) + mx - scores[cid]
            grad += (expd / z) @ feats - feats[cid]
            prev = chord
    return cost, grad


def bfgs_reference_fit(corpus, space, feature_mask, ridge=0.0) -> np.ndarray:
    """Weights minimizing corpus_cost over the active features, by BFGS.

    BFGS stalls once cost differences fall below the float resolution of
    the summed cost, which can leave the weights some 1e-8 short of the
    optimum. Its result is therefore polished by solving gradient = 0 with
    MINPACK's hybrid method, which reads no cost values.
    """
    active = np.flatnonzero(feature_mask)

    def model(x):
        weights = np.zeros(space.n_features)
        weights[active] = x
        return EnergyModel(space, weights=weights, feature_mask=feature_mask)

    def gradient(x):
        return corpus_gradient(corpus, model(x), ridge)[active]

    coarse = minimize(
        lambda x: corpus_cost(corpus, model(x), ridge),
        np.zeros(len(active)),
        jac=gradient,
        method="BFGS",
    )
    polished = root(gradient, coarse.x, method="hybr", options={"xtol": 1e-14})
    return model(polished.x).effective_weights


# ---------------------------------------------------------------------------
# duplicated-feature harness


def duplicate_feature(space, index: int, name: str):
    """A FeatureSpace clone with feature `index` copied as an extra feature:
    its row tables and bounds are read from standardized_tables."""
    tables = standardized_tables(space)
    tables += (tables[index],)
    dup = copy.copy(space)
    dup.row_tables = lambda rows: tuple(t[None] if t.ndim == 1 else t[rows]
                                        for t in tables)
    dup.feature_names = tuple(space.feature_names) + (name,)
    dup.table_bounds = table_bounds_reference(tables)
    return dup
