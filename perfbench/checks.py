"""Checks of chordmodel CLI artifacts against the oracles and required
properties. Each check returns a list of failure messages (empty = pass).

Tolerances are fixed here, in advance of any run:

- cross entropy: 1e-9 relative (the oracle and the program differ only in
  summation order and round-off, about 1e-13);
- gradient at the reported weights: 1e-6 nats per event per weight, far
  below what a weight error of 1e-3 gives (about 1e-4) and far above the
  program's stopping point (below 1e-9 per event);
- feature values: 1e-9 absolute;
- refit: 5 standard errors per weight, from the Fisher information of the
  sample at the generating weights.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import oracles

FEATURES = ("chord_size", "harmonicity", "spectral_distance",
            "voice_leading_distance")
CE_RTOL = 1e-9
GRAD_TOL_PER_EVENT = 1e-6
FEATURE_ATOL = 1e-9
REFIT_Z = 5.0


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _weights(d) -> np.ndarray:
    return np.array([float(d[name]) for name in FEATURES])


def check_model_point(oracle, pieces, weights, active, cross_entropy,
                      label) -> list[str]:
    """Reported cross entropy and stationarity against the event-wise oracle."""
    mask = np.array([name in active for name in FEATURES])
    cost, grad, n = oracle.cost_gradient(pieces, weights, mask)
    errors = []
    ce = cost / n
    if not abs(ce - cross_entropy) <= CE_RTOL * abs(ce):
        errors.append(f"{label}: cross entropy {cross_entropy!r} != oracle {ce!r}")
    worst = float(np.max(np.abs(grad[mask]), initial=0.0)) / n
    if not worst <= GRAD_TOL_PER_EVENT:
        errors.append(f"{label}: oracle gradient {worst:.3g}/event at reported weights")
    return errors


def check_fit(fit, oracle, pieces, label="fit") -> list[str]:
    r = fit["result"]
    n_events = sum(len(p) for p in pieces)
    errors = []
    if r["n_events"] != n_events:
        errors.append(f"{label}: n_events {r['n_events']} != {n_events}")
        return errors
    return errors + check_model_point(
        oracle, pieces, _weights(r["weights"]), set(r["feature_mask"]),
        r["cross_entropy_nats"], label)


def check_point_block(point, oracle, pieces, label) -> list[str]:
    """Null = ln 4095, full model no worse than any sub-model, full CE and
    stationarity against the oracle."""
    errors = []
    h_null, h_full = point["null_cross_entropy"], point["full_cross_entropy"]
    if not abs(h_null - math.log(4095)) <= 1e-12 * math.log(4095):
        errors.append(f"{label}: null cross entropy {h_null!r} != ln 4095")
    feats = point["features"]
    tol = 1e-9
    if not h_full <= h_null + tol:
        errors.append(f"{label}: full model worse than null")
    for name in FEATURES:
        f = feats[name]
        if not h_full <= h_null - f["explained_entropy"] + tol:
            errors.append(f"{label}: full model worse than single:{name}")
        if not f["unique_explained_entropy"] >= -tol:
            errors.append(f"{label}: full model worse than loo:{name}")
    weights = np.array([feats[name]["weight"] for name in FEATURES])
    return errors + check_model_point(oracle, pieces, weights, set(FEATURES),
                                      h_full, f"{label} full model")


def check_importance(imp, oracle, pieces, fit=None, label="importance") -> list[str]:
    point = imp["corpus_level"]["point"]
    errors = check_point_block(point, oracle, pieces, label)
    if fit is not None:
        w_fit = _weights(fit["result"]["weights"])
        w_imp = np.array([point["features"][n]["weight"] for n in FEATURES])
        if not np.allclose(w_imp, w_fit, rtol=0.0, atol=1e-8):
            errors.append(f"{label}: full weights {w_imp} != fit {w_fit}")
    return errors


def _same_numbers(a, b, rtol=1e-12) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_numbers(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_numbers(x, y, rtol) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def check_bootstrap(boot, replicates, oracle, pieces, imp=None,
                    label="bootstrap") -> list[str]:
    cl = boot["corpus_level"]
    errors = []
    if cl["n_replicates"] != replicates:
        errors.append(f"{label}: {cl['n_replicates']} replicates, asked {replicates}")
    if not 0 <= cl["n_nonconverged"] <= replicates:
        errors.append(f"{label}: n_nonconverged {cl['n_nonconverged']} out of range")
    for row in cl["rows"]:
        lo, hi = row["lower"], row["upper"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            errors.append(f"{label}: {row['feature']}/{row['measure']} "
                          f"interval [{lo}, {hi}]")
    if imp is not None:
        if not _same_numbers(cl["point"], imp["corpus_level"]["point"]):
            errors.append(f"{label}: point block differs from plain importance")
    else:
        errors += check_point_block(cl["point"], oracle, pieces, label)
    return errors


def read_features_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_features(path, oracle, pieces, rng, n_sample=300,
                   label="features") -> list[str]:
    """Row sequence, exact-zero start rows, and a random sample of rows
    against the direct oracles (spectra and voice leading per pair)."""
    rows = read_features_csv(path)
    expected = [(p[k - 1] if k else None, c) for p in pieces for k, c in enumerate(p)]
    if len(rows) != len(expected):
        return [f"{label}: {len(rows)} rows, expected {len(expected)}"]
    errors = []
    fmt = lambda c: ",".join(map(str, c))  # noqa: E731
    for k, (row, (prev, cur)) in enumerate(zip(rows, expected)):
        if row["cur"] != fmt(cur) or row["prev"] != ("" if prev is None else fmt(prev)):
            errors.append(f"{label}: row {k} is {row['prev']}->{row['cur']}")
            return errors
        if prev is None and (float(row["spectral_distance_std"]) != 0.0
                             or float(row["voice_leading_distance_std"]) != 0.0):
            errors.append(f"{label}: start row {k} has non-zero sequential _std")
    mean, sd = oracle.t["mean"], oracle.t["sd"]
    spectra = {}

    def spectrum(c):
        if c not in spectra:
            spectra[c] = oracles.chord_spectrum(c)
        return spectra[c]

    for k in sorted(rng.choice(len(rows), size=min(n_sample, len(rows)), replace=False)):
        row = rows[k]
        prev, cur = expected[k]
        raw = [float(len(cur)), float(oracle.t["harm"][oracles.mask_of(cur) - 1]),
               float(mean[2]), float(mean[3])]
        if prev is not None:
            raw[2] = oracles.spectral_distance(spectrum(prev), spectrum(cur))
            raw[3] = oracles.vl_assignment(prev, cur)
            if len(prev) <= 3 and len(cur) <= 3:
                brute = oracles.vl_brute(prev, cur)
                if brute != raw[3]:
                    errors.append(f"{label}: oracles disagree on {prev}->{cur}")
        for j, name in enumerate(FEATURES):
            got_raw = float(row[f"{name}_raw"])
            got_std = float(row[f"{name}_std"])
            if not abs(got_raw - raw[j]) <= FEATURE_ATOL:
                errors.append(f"{label}: row {k} {name}_raw {got_raw!r} != {raw[j]!r}")
            want_std = (raw[j] - mean[j]) / sd[j]
            if not abs(got_std - want_std) <= FEATURE_ATOL:
                errors.append(f"{label}: row {k} {name}_std {got_std!r} != {want_std!r}")
    return errors[:20]


def read_plain(path):
    with open(path, encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip() and not line.startswith("#")]


def check_sample(path, n_pieces, length, label="sample") -> list[str]:
    """Every chord a sorted, duplicate-free, non-empty subset of 0..11."""
    lines = read_plain(path)
    if len(lines) != n_pieces:
        return [f"{label}: {len(lines)} pieces, expected {n_pieces}"]
    for k, tokens in enumerate(lines):
        if len(tokens) != length:
            return [f"{label}: piece {k} has {len(tokens)} chords, expected {length}"]
        for tok in tokens:
            try:
                pcs = [int(v) for v in tok.split(",")]
            except ValueError:
                return [f"{label}: piece {k} has malformed chord {tok!r}"]
            if not pcs or pcs != sorted(set(pcs)) or pcs[0] < 0 or pcs[-1] > 11:
                return [f"{label}: piece {k} has invalid chord {tok!r}"]
    return []


def check_refit(fit, oracle, pieces, weights, label="refit") -> list[str]:
    """Refit within REFIT_Z standard errors of the generating weights; the
    standard errors come from the sample's Fisher information at those
    weights."""
    tol = REFIT_Z * np.sqrt(np.diag(np.linalg.inv(oracle.fisher(pieces, weights))))
    got = _weights(fit["result"]["weights"])
    if np.any(np.abs(got - weights) > tol):
        return [f"{label}: weights {got} vs generating {weights}, tolerance {tol}"]
    return []


def check_same_bytes(a, b, label) -> list[str]:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() != fb.read():
            return [f"{label}: {a} and {b} differ"]
    return []
