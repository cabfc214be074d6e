"""Feature-importance measures and nonparametric bootstrap intervals.

Three measures per feature:

- weight: the feature's coefficient in the full model (signed, in
  standardized feature units). An oriented variant flips the sign for the
  two distance features so that, for every measure, larger means "more
  consonant / smoother preferred".
- explained entropy: null-model cross entropy minus the cross entropy of
  the model using that feature alone (nats per chord). Non-negative
  in-sample because the null model is nested in every single-feature model.
- unique explained entropy: cross entropy of the model with that feature
  removed minus full-model cross entropy (nats per chord). Near zero when
  another feature carries the same information.

Corpus-level uncertainty comes from a nonparametric bootstrap that
resamples whole pieces with replacement. A replicate scales each piece's
row of the corpus's count matrix by its draw count (resampled); every
sub-model is refitted on it, warm-started from the full-corpus fits.
Intervals are percentile intervals of the replicate distribution, and the
point estimate is always the full-corpus value. Composition-level reports
fit one model per piece (one matrix row) with a small ridge penalty to tame
short-piece maximum-likelihood degeneracies.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .corpus import CollapsedCorpus
from .features import FeatureSpace
from .model import FitResult, _newton, _statistics


MEASURES = ("weight", "explained_entropy", "unique_explained_entropy")

# Figure-of-merit orientation: smaller spectral / voice-leading distance is
# the preferred direction, so their weights are sign-flipped when oriented.
SIGN_REVERSED_FEATURES = frozenset({"spectral_distance", "voice_leading_distance"})

CORPUS_RIDGE_DEFAULT = 0.0
COMPOSITION_RIDGE_DEFAULT = 1e-3
DEFAULT_REPLICATES = 1000
DEFAULT_LEVEL = 0.99
NONCONVERGED_FLAG_FRACTION = 0.01


def orientation(feature_names) -> np.ndarray:
    """+1 / -1 per feature; -1 for the sign-reversed distance features."""
    return np.array(
        [-1.0 if name in SIGN_REVERSED_FEATURES else 1.0 for name in feature_names]
    )


def _sub_fit_masks(feature_names, measures) -> dict[str, np.ndarray]:
    """Feature mask of every sub-fit the measures need, keyed in run order."""
    n = len(feature_names)
    eye = np.eye(n, dtype=bool)
    masks: dict[str, np.ndarray] = {}
    if "weight" in measures or "unique_explained_entropy" in measures:
        masks["full"] = np.ones(n, dtype=bool)
    if "explained_entropy" in measures:
        masks["null"] = np.zeros(n, dtype=bool)
        for j, name in enumerate(feature_names):
            masks[f"single:{name}"] = eye[j]
    if "unique_explained_entropy" in measures:
        for j, name in enumerate(feature_names):
            masks[f"loo:{name}"] = ~eye[j]
    return masks


def required_fits(feature_names, measures=MEASURES) -> list[str]:
    """Sub-fit keys needed to produce the requested measures, in run order.

    Keys: "full", "null", "single:<feature>", "loo:<feature>".
    """
    return list(_sub_fit_masks(feature_names, measures))


@dataclass
class ImportanceReport:
    """Per-feature importance measures from one nest of model fits.

    Measures that were not requested are NaN. ``fits`` keeps every sub-fit
    (keyed as in required_fits) so convergence problems stay attributable.
    """

    feature_names: tuple[str, ...]
    weights: np.ndarray
    explained_entropy: np.ndarray
    unique_explained_entropy: np.ndarray
    null_cross_entropy: float
    full_cross_entropy: float
    level: str  # "corpus" | "composition"
    piece_id: str | None
    fits: dict[str, FitResult] = field(repr=False)

    @property
    def oriented_weights(self) -> np.ndarray:
        return self.weights * orientation(self.feature_names)

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.fits.values())

    @property
    def nonconverged_fits(self) -> tuple[str, ...]:
        return tuple(k for k, r in sorted(self.fits.items()) if not r.converged)

    def values(self, measure: str) -> np.ndarray:
        if measure == "weight":
            return self.weights
        if measure == "explained_entropy":
            return self.explained_entropy
        if measure == "unique_explained_entropy":
            return self.unique_explained_entropy
        raise ValueError(f"unknown measure: {measure!r}")

    def rows(self) -> list[dict]:
        """Long-format rows: one per (feature, measure), with oriented value,
        as interval_rows without bounds."""
        out = []
        for full in interval_rows(self):
            row = {
                "feature": full["feature"],
                "measure": full["measure"],
                "value": full["estimate"],
                "oriented_value": full["oriented_estimate"],
            }
            if self.piece_id is not None:
                row["piece_id"] = self.piece_id
            out.append(row)
        return out

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "piece_id": self.piece_id,
            "features": {
                name: {
                    "weight": float(self.weights[j]),
                    "oriented_weight": float(self.oriented_weights[j]),
                    "explained_entropy": float(self.explained_entropy[j]),
                    "unique_explained_entropy": float(
                        self.unique_explained_entropy[j]
                    ),
                }
                for j, name in enumerate(self.feature_names)
            },
            "null_cross_entropy": self.null_cross_entropy,
            "full_cross_entropy": self.full_cross_entropy,
            "converged": self.converged,
            "nonconverged_fits": list(self.nonconverged_fits),
        }


def feature_importance(
    corpus: CollapsedCorpus,
    space: FeatureSpace,
    *,
    ridge: float = CORPUS_RIDGE_DEFAULT,
    measures=MEASURES,
    warm_starts: dict[str, np.ndarray] | None = None,
    level: str = "corpus",
    piece_id: str | None = None,
) -> ImportanceReport:
    """Fit the nested model family and read off the three measures.

    Sub-fits: the full model, the null model, one single-feature model per
    feature and one leave-one-out model per feature. Then per feature j:
    weight_j comes from the full model, explained_j = H_null - H_single_j,
    unique_j = H_loo_j - H_full (entropies in nats per chord).

    measures restricts which sub-fits run; warm_starts (key -> weight
    vector) seeds the optimizer, e.g. with full-corpus estimates when
    refitting bootstrap replicates. The corpus statistics are built once
    and shared by every sub-fit, so each sub-fit equals a standalone fit()
    with its mask.
    """
    if corpus.n_events == 0:
        raise ValueError("importance needs a corpus with at least one event")
    names = tuple(space.feature_names)
    n = space.n_features
    warm_starts = warm_starts or {}

    stats = _statistics(space, corpus)
    fits: dict[str, FitResult] = {
        key: _newton(stats, mask, ridge, warm_starts.get(key))
        for key, mask in _sub_fit_masks(names, measures).items()
    }

    weights = np.full(n, np.nan)
    explained = np.full(n, np.nan)
    unique = np.full(n, np.nan)
    h_null = fits["null"].cross_entropy if "null" in fits else math.nan
    h_full = fits["full"].cross_entropy if "full" in fits else math.nan
    if "full" in fits:
        weights = fits["full"].weights.copy()
    for j, name in enumerate(names):
        if f"single:{name}" in fits:
            explained[j] = h_null - fits[f"single:{name}"].cross_entropy
        if f"loo:{name}" in fits:
            unique[j] = fits[f"loo:{name}"].cross_entropy - h_full

    return ImportanceReport(
        feature_names=names,
        weights=weights,
        explained_entropy=explained,
        unique_explained_entropy=unique,
        null_cross_entropy=h_null,
        full_cross_entropy=h_full,
        level=level,
        piece_id=piece_id,
        fits=fits,
    )


def interval_rows(
    point: ImportanceReport,
    lower: dict[str, np.ndarray] | None = None,
    upper: dict[str, np.ndarray] | None = None,
    measures=MEASURES,
) -> list[dict]:
    """Long-format rows, one per (measure, feature): estimate, lower, upper
    and their oriented values.

    lower and upper map a measure to per-feature bounds; without them every
    bound is None. Orienting a distance feature's weight negates it and
    swaps its bounds; every other value is oriented as it is.
    """
    orient = orientation(point.feature_names)
    out = []
    for measure in measures:
        for j, name in enumerate(point.feature_names):
            est = float(point.values(measure)[j])
            lo, hi = (None, None) if lower is None else (
                float(lower[measure][j]), float(upper[measure][j]))
            oriented = (est, lo, hi)
            if measure == "weight" and orient[j] < 0:
                oriented = tuple(None if v is None else -v for v in (est, hi, lo))
            out.append({
                "feature": name,
                "measure": measure,
                "estimate": est,
                "lower": lo,
                "upper": hi,
                "oriented_estimate": oriented[0],
                "oriented_lower": oriented[1],
                "oriented_upper": oriented[2],
            })
    return out


@dataclass
class BootstrapResult:
    """Percentile intervals for every (feature, measure) pair.

    point holds the full-corpus estimate (never the replicate mean);
    replicates holds the raw (B, n_features) value matrix per measure so
    downstream code can re-derive any quantile.
    """

    feature_names: tuple[str, ...]
    measures: tuple[str, ...]
    point: ImportanceReport
    lower: dict[str, np.ndarray]
    upper: dict[str, np.ndarray]
    replicates: dict[str, np.ndarray] = field(repr=False)
    n_replicates: int
    level: float
    seed: int
    n_nonconverged: int

    @property
    def flagged(self) -> bool:
        """True when more than 1% of replicate fits failed to converge."""
        return self.n_nonconverged > NONCONVERGED_FLAG_FRACTION * self.n_replicates

    def rows(self) -> list[dict]:
        """Long-format rows with percentile bounds, as interval_rows."""
        return interval_rows(self.point, self.lower, self.upper, self.measures)

    def to_dict(self) -> dict:
        return {
            "level": float(self.level),
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "n_nonconverged": self.n_nonconverged,
            "flagged": self.flagged,
            "rows": self.rows(),
            "point": self.point.to_dict(),
        }


def _replicate_multiplicities(seed: int, index: int, n_pieces: int) -> np.ndarray:
    """Piece resample counts for one replicate.

    The stream depends only on (seed, replicate index), so replicates can
    run in any order or in parallel and still agree with a serial run.
    """
    rng = np.random.default_rng([seed, index])
    draws = rng.integers(0, n_pieces, size=n_pieces)
    return np.bincount(draws, minlength=n_pieces)


def bootstrap(
    pieces: CollapsedCorpus,
    space: FeatureSpace,
    *,
    n_replicates: int = DEFAULT_REPLICATES,
    seed: int = 0,
    level: float = DEFAULT_LEVEL,
    ridge: float = CORPUS_RIDGE_DEFAULT,
    measures=MEASURES,
    threads: int = 1,
) -> BootstrapResult:
    """Piece-level nonparametric bootstrap of the importance measures.

    Resamples the pieces of a collapsed corpus with replacement n_replicates
    times, reruns feature_importance per replicate (warm-started from the
    full-corpus fits), and returns percentile intervals at the given level.
    With threads > 1 the point nest and the replicates run on a pool of that
    many threads; with one, in the calling thread. The results are the same.
    """
    if len(pieces.piece_ids) < 2:
        raise ValueError("bootstrap needs at least 2 pieces to resample")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be strictly between 0 and 1")
    measures = tuple(measures)
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure: {m!r}")

    def run_replicate(r: int) -> ImportanceReport:
        mult = _replicate_multiplicities(seed, r, len(pieces.piece_ids))
        return feature_importance(
            corpus=pieces.resampled(mult),
            space=space,
            ridge=ridge,
            measures=measures,
            warm_starts=warm,
        )

    if threads == 1:
        point = feature_importance(pieces, space, ridge=ridge, measures=measures)
        warm = {key: res.weights for key, res in point.fits.items()}
        reports = [run_replicate(r) for r in range(n_replicates)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            point = pool.submit(
                feature_importance, pieces, space, ridge=ridge, measures=measures
            ).result()
            warm = {key: res.weights for key, res in point.fits.items()}
            reports = list(pool.map(run_replicate, range(n_replicates)))

    replicates = {
        m: np.array([rep.values(m) for rep in reports]) for m in measures
    }
    alpha = (1.0 - level) / 2.0
    lower = {m: np.quantile(v, alpha, axis=0) for m, v in replicates.items()}
    upper = {m: np.quantile(v, 1.0 - alpha, axis=0) for m, v in replicates.items()}
    n_nonconverged = sum(not rep.converged for rep in reports)

    return BootstrapResult(
        feature_names=tuple(space.feature_names),
        measures=measures,
        point=point,
        lower=lower,
        upper=upper,
        replicates=replicates,
        n_replicates=n_replicates,
        level=level,
        seed=seed,
        n_nonconverged=n_nonconverged,
    )


@dataclass
class PerCompositionResult:
    """One ImportanceReport per eligible piece, plus the skipped ids."""

    reports: list[ImportanceReport]
    skipped: tuple[str, ...]

    def rows(self) -> list[dict]:
        return [row for report in self.reports for row in report.rows()]

    def to_dict(self) -> dict:
        return {
            "skipped": list(self.skipped),
            "reports": [r.to_dict() for r in self.reports],
        }


def per_composition_importance(
    pieces: CollapsedCorpus,
    space: FeatureSpace,
    *,
    ridge: float = COMPOSITION_RIDGE_DEFAULT,
    measures=MEASURES,
) -> PerCompositionResult:
    """Fit the importance family separately on every piece of a corpus.

    Pieces with fewer than 2 events (after merging immediate repeats)
    cannot inform the sequential features and are skipped; their ids are
    returned so callers can report them.
    """
    reports: list[ImportanceReport] = []
    skipped: list[str] = []
    for piece_id, piece in zip(pieces.piece_ids, pieces.pieces):
        if piece.n_events < 2:
            skipped.append(piece_id)
            continue
        reports.append(
            feature_importance(
                corpus=piece,
                space=space,
                ridge=ridge,
                measures=measures,
                level="composition",
                piece_id=piece_id,
            )
        )
    return PerCompositionResult(reports=reports, skipped=tuple(skipped))
