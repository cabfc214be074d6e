"""End-to-end acceptance checks for the whole package.

Each test prints exactly one PASS/FAIL line (with the measured values and
runtime where relevant) before asserting, so a full run reads as a
checklist.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np
import pytest

from chordmodel.corpus import collapse, parse_corpus, preprocess_corpus
from chordmodel.features import harmonicity_raw
from chordmodel.importance import bootstrap, feature_importance
from chordmodel.model import (
    EnergyModel,
    corpus_cost,
    corpus_gradient,
    fit,
    mask_from_names,
)
from chordmodel.spectrum import SpectrumParams, pcset_spectrum, spectral_distance
from chordmodel.voiceleading import voice_leading_distance

from helpers import (
    collapsed,
    cost_matrix,
    edge_cover_star_union,
    edge_cover_subset_dp,
    harmonicity_oracle,
    make_corpus,
    naive_cost_gradient,
    sampled_corpus,
)

FEATURES = (
    "chord_size",
    "harmonicity",
    "spectral_distance",
    "voice_leading_distance",
)

TONAL_PIECES = [
    [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)],
    [(0, 3, 7), (5, 8, 0), (7, 10, 2), (0, 3, 7)],
    [(0,), (0, 6), (0, 2, 4, 5, 7, 9, 11), (0, 4, 7)],
    [(9, 0, 4), (2, 5, 9), (4, 8, 11), (9, 0, 4)],
]


def report(label: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{suffix}")
    return ok


def random_chord(rng) -> tuple[int, ...]:
    size = int(rng.integers(1, 13))
    return tuple(sorted(rng.choice(12, size=size, replace=False).tolist()))


def test_spectral_distance_identity_symmetry_and_range():
    t0 = time.perf_counter()
    params = SpectrumParams()
    rng = np.random.default_rng(101)
    worst_self = 0.0
    for _ in range(50):
        x = random_chord(rng)
        w = pcset_spectrum(x, params)
        worst_self = max(worst_self, abs(spectral_distance(w, w)))
    worst_asym = 0.0
    in_range = True
    for _ in range(1000):
        a = pcset_spectrum(random_chord(rng), params)
        b = pcset_spectrum(random_chord(rng), params)
        d_ab = spectral_distance(a, b)
        d_ba = spectral_distance(b, a)
        worst_asym = max(worst_asym, abs(d_ab - d_ba))
        in_range = in_range and 0.0 <= d_ab <= 1.0
    runtime = time.perf_counter() - t0
    ok = worst_self <= 1e-9 and worst_asym <= 1e-9 and in_range and runtime < 10
    assert report(
        "spectral distance: zero on self, symmetric, within [0, 1]",
        ok,
        f"max self {worst_self:.2e}, max asymmetry {worst_asym:.2e}, "
        f"{runtime:.1f}s",
    )


def test_raw_features_invariant_under_joint_transposition(space):
    t0 = time.perf_counter()
    al = space.alphabet
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(500):
        i, j = (int(v) for v in rng.integers(0, len(al), 2))
        base = space.raw_transition_values(i, j)
        for t in range(12):
            shifted = space.raw_transition_values(
                int(al.perm[t, i]), int(al.perm[t, j])
            )
            worst = max(worst, float(np.max(np.abs(shifted - base))))
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-9 and runtime < 60
    assert report(
        "all four raw features invariant under joint transposition",
        ok,
        f"max deviation {worst:.2e} over 500 transitions x 12 shifts, "
        f"{runtime:.1f}s",
    )


def test_voice_leading_equals_brute_force():
    t0 = time.perf_counter()
    small = [
        tuple(sorted(c))
        for m in (1, 2, 3)
        for c in itertools.combinations(range(12), m)
    ]
    by_shape: dict[tuple[int, int], list] = {}
    for x in small:
        for y in small:
            by_shape.setdefault((len(x), len(y)), []).append((x, y))
    mismatches = 0
    n_pairs = 0
    for pairs in by_shape.values():
        costs = np.stack([cost_matrix(x, y) for x, y in pairs])
        oracle = edge_cover_star_union(costs)
        for (x, y), v in zip(pairs, oracle):
            n_pairs += 1
            if voice_leading_distance(x, y) != v:
                mismatches += 1
    rng = np.random.default_rng(303)
    for _ in range(200):
        x = tuple(
            sorted(rng.choice(12, size=int(rng.integers(1, 6)), replace=False))
        )
        y = tuple(
            sorted(rng.choice(12, size=int(rng.integers(1, 6)), replace=False))
        )
        n_pairs += 1
        if voice_leading_distance(x, y) != edge_cover_subset_dp(cost_matrix(x, y)):
            mismatches += 1
    runtime = time.perf_counter() - t0
    ok = mismatches == 0 and runtime < 120
    assert report(
        "voice-leading distance matches exhaustive edge-cover search",
        ok,
        f"{mismatches} mismatches over {n_pairs} pairs, {runtime:.1f}s",
    )


def test_tritone_scored_more_harmonic_than_major_triad():
    """The tritone/triad ordering follows the harmonic template.

    With 12 harmonics, partials 3, 6 and 12 all land on the fifth and their
    coherent sum favours the major triad {0,4,7}; with 11 harmonics the
    tritone {0,6} comes out above it (README, "Harmonicity properties").
    For both templates the fast measure must match the pointwise oracle
    value for value and give the oracle's ordering, and that ordering must
    be the documented one.
    """
    expected_tritone_higher = {12: False, 11: True}
    bad: list[str] = []
    values: list[str] = []
    for n_harmonics, tritone_higher in expected_tritone_higher.items():
        params = SpectrumParams(n_harmonics=n_harmonics)
        fast = {c: harmonicity_raw(c, params) for c in ((0, 6), (0, 4, 7))}
        oracle = {c: harmonicity_oracle(c, params) for c in fast}
        for chord in fast:
            if abs(fast[chord] - oracle[chord]) > 1e-9:
                bad.append(
                    f"{n_harmonics} harmonics {chord}: {fast[chord]:.9f} vs "
                    f"oracle {oracle[chord]:.9f}"
                )
        fast_order = fast[(0, 6)] > fast[(0, 4, 7)]
        if fast_order != (oracle[(0, 6)] > oracle[(0, 4, 7)]):
            bad.append(f"{n_harmonics} harmonics: ordering differs from oracle")
        if fast_order != tritone_higher:
            bad.append(f"{n_harmonics} harmonics: ordering differs from README")
        values.append(
            f"{n_harmonics} harmonics h({{0,6}}) = {fast[(0, 6)]:.6f} vs "
            f"h({{0,4,7}}) = {fast[(0, 4, 7)]:.6f}"
        )
    ok = not bad
    assert report(
        "tritone/triad harmonicity ordering matches the oracle and the README",
        ok,
        "; ".join(bad + values),
    )


def test_harmonicity_standardized_within_size_groups(space):
    """Size groups are z-scored: mean 0, variance 1 wherever that is defined.

    A size whose chords form a single transposition orbit has one raw value,
    so no z-score exists for it and the group maps to exactly 0. The single-
    orbit sizes are read off the alphabet and must be exactly 1, 11 and 12.
    """
    al = space.alphabet
    table = space.table
    sizes = np.asarray(al.sizes)
    rep_sizes = sizes[al.rep_ids]
    single_orbit = {
        m for m in range(1, 13) if int(np.sum(rep_sizes == m)) == 1
    }
    bad: list[str] = []
    if single_orbit != {1, 11, 12}:
        bad.append(f"single-orbit sizes {sorted(single_orbit)}")
    for m in range(1, 13):
        grp = table.normalized[sizes == m]
        if m in single_orbit:
            if not np.all(grp == 0.0):
                bad.append(f"size {m} not exactly 0")
            continue
        if abs(float(grp.mean())) > 1e-9:
            bad.append(f"size {m} mean {grp.mean():.2e}")
        if abs(float(grp.var()) - 1.0) > 1e-9:
            bad.append(f"size {m} var {grp.var():.6f}")
    ok = not bad
    assert report(
        "harmonicity z-scored per size group (mean 0, variance 1)",
        ok,
        "; ".join(bad) if bad else
        "sizes 2-10 standardized; single-orbit sizes 1, 11, 12 at 0",
    )


def test_null_model_cross_entropy_is_log_alphabet(space):
    corpus = collapsed(space, make_corpus(TONAL_PIECES))
    result = fit(corpus, space, feature_mask=np.zeros(4, dtype=bool))
    expected = math.log(4095)
    ok = abs(result.cross_entropy - expected) <= 1e-9
    assert report(
        "empty feature mask yields the uniform-model entropy ln(4095)",
        ok,
        f"{result.cross_entropy:.12f} vs {expected:.12f}",
    )


def test_analytic_gradient_matches_central_differences(space):
    t0 = time.perf_counter()
    corpus = collapsed(
        space, sampled_corpus(space, np.zeros(4), n_pieces=20, length=12, seed=7)
    )
    rng = np.random.default_rng(404)
    eps = 1e-6
    worst = 0.0
    for _ in range(10):
        w = rng.normal(scale=0.7, size=4)
        grad = corpus_gradient(corpus, EnergyModel(space, weights=w.copy()))
        for k in range(4):
            wp, wm = w.copy(), w.copy()
            wp[k] += eps
            wm[k] -= eps
            fd = (
                corpus_cost(corpus, EnergyModel(space, weights=wp))
                - corpus_cost(corpus, EnergyModel(space, weights=wm))
            ) / (2 * eps)
            rel = abs(grad[k] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    runtime = time.perf_counter() - t0
    ok = worst < 1e-5 and runtime < 300
    assert report(
        "analytic gradient matches central finite differences",
        ok,
        f"max relative error {worst:.2e} over 10 weight vectors, "
        f"{runtime:.1f}s",
    )


def test_collapsed_evaluation_equals_eventwise(space):
    loop = [(0, 4, 7), (0, 5, 9), (2, 7, 11), (0, 4, 7)]
    corpora = {
        "tonal": make_corpus(TONAL_PIECES),
        "sampled": sampled_corpus(
            space, np.array([0.5, 1.0, -1.0, -0.5]), n_pieces=10, length=15,
            seed=5,
        ),
        # the same progression in all 12 keys: heavy transposition reuse
        "repetitive": make_corpus(
            [
                [tuple(sorted((p + t) % 12 for p in c)) for c in loop * 4]
                for t in range(12)
            ]
        ),
    }
    w = np.array([0.4, -0.8, 0.6, -0.3])
    worst_cost = 0.0
    worst_grad = 0.0
    ratios = {}
    for name, corpus in corpora.items():
        cc = collapsed(space, corpus)
        model = EnergyModel(space, weights=w.copy())
        cost_naive, grad_naive = naive_cost_gradient(
            preprocess_corpus(corpus), space, w
        )
        worst_cost = max(worst_cost, abs(corpus_cost(cc, model) - cost_naive))
        worst_grad = max(
            worst_grad,
            float(np.max(np.abs(corpus_gradient(cc, model) - grad_naive))),
        )
        ratios[name] = cc.n_events / cc.n_classes
    ok = worst_cost <= 1e-9 and worst_grad <= 1e-9
    ratio_text = ", ".join(f"{k} ratio {v:.2f}x" for k, v in ratios.items())
    assert report(
        "transposition-collapsed cost/gradient equals event-by-event",
        ok,
        f"max cost diff {worst_cost:.2e}, max grad diff {worst_grad:.2e}; "
        f"collapse {ratio_text}",
    )


def test_generating_weights_recovered_from_samples(space):
    t0 = time.perf_counter()
    w_true = np.array([0.5, 1.0, -1.0, -0.5])
    corpus = collapsed(
        space, sampled_corpus(space, w_true, n_pieces=200, length=20, seed=12)
    )
    result = fit(corpus, space)
    err = np.abs(result.weights - w_true)
    signs_ok = bool(np.all(np.sign(result.weights) == np.sign(w_true)))
    runtime = time.perf_counter() - t0
    ok = result.converged and signs_ok and bool(np.all(err <= 0.1)) and (
        runtime < 1800
    )
    assert report(
        "refit recovers the generating weights within 0.1 per component",
        ok,
        "fitted " + np.array2string(result.weights, precision=3)
        + f", max error {err.max():.3f}, {runtime:.1f}s",
    )


def test_explained_entropy_nonnegative_and_masks_monotone(space):
    corpora = {
        "tonal": collapsed(space, make_corpus(TONAL_PIECES)),
        "uniform": collapsed(
            space, sampled_corpus(space, np.zeros(4), n_pieces=12, length=12,
                                  seed=1)
        ),
        "structured": collapsed(
            space,
            sampled_corpus(
                space, np.array([0.5, 1.0, -1.0, -0.5]), n_pieces=12,
                length=12, seed=2,
            ),
        ),
    }
    min_explained = math.inf
    violations = 0
    for corpus in corpora.values():
        rep = feature_importance(corpus, space)
        min_explained = min(min_explained, float(rep.explained_entropy.min()))
        ce = {}
        for r in range(5):
            for combo in itertools.combinations(FEATURES, r):
                ce[frozenset(combo)] = fit(
                    corpus, space, feature_mask=mask_from_names(combo)
                ).cross_entropy
        for s, hs in ce.items():
            for t_, ht in ce.items():
                if s < t_ and ht > hs + 1e-9:
                    violations += 1
    ok = min_explained >= -1e-9 and violations == 0
    assert report(
        "explained entropy non-negative; larger masks never fit worse",
        ok,
        f"min explained {min_explained:.2e}, {violations} monotonicity "
        f"violations over 3 corpora x 15 masks",
    )


def test_bootstrap_reproducible_and_degenerate_cases(space):
    varied = collapsed(
        space,
        sampled_corpus(
            space, np.array([0.0, 0.0, 0.0, -1.5]), n_pieces=10, length=10,
            seed=17,
        ),
    )
    kwargs = dict(n_replicates=6, seed=23, level=0.95)
    a = bootstrap(varied, space, **kwargs)
    b = bootstrap(varied, space, **kwargs)
    c = bootstrap(varied, space, threads=3, **kwargs)
    bit_exact = all(
        np.array_equal(a.replicates["weight"], other.replicates["weight"])
        and np.array_equal(a.lower["weight"], other.lower["weight"])
        and np.array_equal(a.upper["weight"], other.upper["weight"])
        for other in (b, c)
    )
    one = bootstrap(varied, space, n_replicates=1, seed=23)
    single_degenerate = np.array_equal(
        one.lower["weight"], one.upper["weight"]
    ) and np.array_equal(one.lower["weight"], one.replicates["weight"][0])
    clones = collapsed(space, make_corpus([TONAL_PIECES[0]] * 10))
    cl = bootstrap(clones, space, n_replicates=5, seed=3)
    zero_width = np.array_equal(cl.lower["weight"], cl.upper["weight"])
    ok = bit_exact and single_degenerate and zero_width
    assert report(
        "bootstrap: seed-reproducible, thread-independent, degenerate cases",
        ok,
        f"bit-exact {bit_exact}, single-replicate degenerate "
        f"{single_degenerate}, identical-pieces zero-width {zero_width}",
    )


def test_user_corpus_weight_signs(space):
    """Optional check against real data supplied via CHORDMODEL_USER_CORPUS.

    Expected pattern on jazz / popular-music derived corpora: positive
    harmonicity weight, negative spectral-distance and voice-leading
    weights. The pattern is reported, not asserted, because the chord
    vocabulary mapping is the user's own claim about their data.
    """
    path = os.environ.get("CHORDMODEL_USER_CORPUS")
    if not path:
        print(
            "SKIP: user-corpus weight-sign check "
            "(set CHORDMODEL_USER_CORPUS=/path/to/corpus to enable; "
            "CHORDMODEL_USER_FORMAT=jsonl|plain overrides detection)"
        )
        pytest.skip("no user corpus supplied")
    fmt = os.environ.get("CHORDMODEL_USER_FORMAT") or (
        "jsonl" if path.endswith((".jsonl", ".ndjson")) else "plain"
    )
    corpus = preprocess_corpus(parse_corpus(path, fmt))
    result = fit(collapse(corpus, space.alphabet), space)
    signs = {
        name: "+" if w > 0 else "-"
        for name, w in zip(FEATURES, result.weights)
    }
    expected = {"harmonicity": "+", "spectral_distance": "-",
                "voice_leading_distance": "-"}
    matches = {k: signs[k] == v for k, v in expected.items()}
    report(
        "user corpus weight signs (reported, not gating)",
        True,
        ", ".join(f"{k} {signs[k]}{'' if m else ' (unexpected)'}"
                  for k, m in matches.items()),
    )
    assert result.converged
