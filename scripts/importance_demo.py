"""Feature-importance walkthrough on a corpus with two composer regimes.

Half of the synthetic corpus is sampled from a model that cares only about
smooth voice leading; the other half from one that cares only about
harmonicity. The demo shows the three importance measures at corpus level
(with bootstrap intervals), then per composition, where the two regimes
separate cleanly — the point of the per-composition analysis.

Usage:
    python3 scripts/importance_demo.py
    python3 scripts/importance_demo.py --pieces-per-regime 8 --length 12 \
        --bootstrap 50 --cache-dir .cache
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from chordmodel.corpus import CorpusFile, Piece, collapse, preprocess_corpus
from chordmodel.features import FEATURE_NAMES, get_feature_space
from chordmodel.importance import (
    bootstrap,
    per_composition_importance,
)
from chordmodel.model import EnergyModel, sample_corpus

REGIMES = {
    "smooth": np.array([0.0, 0.0, 0.0, -2.0]),   # voice leading dominates
    "harmonic": np.array([0.0, 2.0, 0.0, 0.0]),  # harmonicity dominates
}


def build_corpus(space, pieces_per_regime, length, seed) -> CorpusFile:
    pieces = []
    for k, (name, weights) in enumerate(REGIMES.items()):
        model = EnergyModel(space, weights=weights)
        chords = sample_corpus(model, pieces_per_regime, length,
                               np.random.default_rng([seed, k]))
        pieces.extend(Piece(f"{name}-{i:03d}", c) for i, c in enumerate(chords))
    return CorpusFile(pieces=tuple(pieces))


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pieces-per-regime", type=int, default=12)
    parser.add_argument("--length", type=int, default=15)
    parser.add_argument("--bootstrap", type=int, default=200)
    parser.add_argument("--level", type=float, default=0.99)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    print("building feature tables ...", flush=True)
    space = get_feature_space(cache_dir=args.cache_dir)
    corpus = build_corpus(space, args.pieces_per_regime, args.length, args.seed)
    cc = collapse(preprocess_corpus(corpus), space.alphabet)
    print(f"corpus: {len(cc.pieces)} pieces, {cc.n_events} events, "
          f"{cc.n_classes} collapsed classes\n")

    t0 = time.perf_counter()
    bs = bootstrap(cc, space, n_replicates=args.bootstrap, seed=args.seed,
                   level=args.level, threads=args.threads)
    print(f"corpus-level importance with {args.bootstrap} bootstrap "
          f"replicates ({time.perf_counter() - t0:.1f}s, "
          f"{bs.n_nonconverged} non-converged"
          + (", FLAGGED" if bs.flagged else "") + ")")
    print(f"{'feature':<24}{'measure':<28}{'estimate':>10}"
          f"{'lower':>10}{'upper':>10}")
    for row in bs.rows():
        print(f"{row['feature']:<24}{row['measure']:<28}"
              f"{row['oriented_estimate']:>10.4f}"
              f"{row['oriented_lower']:>10.4f}{row['oriented_upper']:>10.4f}")
    print("(weights shown oriented: positive = prefers consonance/smoothness)\n")

    pc = per_composition_importance(cc, space)
    by_regime: dict[str, list[np.ndarray]] = {}
    for report in pc.reports:
        regime = report.piece_id.rsplit("-", 1)[0]
        by_regime.setdefault(regime, []).append(report.unique_explained_entropy)
    print("per-composition mean unique explained entropy (nats/chord):")
    print(f"{'regime':<12}" + "".join(f"{n:>26}" for n in FEATURE_NAMES))
    for regime, rows in by_regime.items():
        means = np.mean(rows, axis=0)
        print(f"{regime:<12}" + "".join(f"{v:>26.4f}" for v in means))
    if pc.skipped:
        print(f"skipped pieces: {', '.join(pc.skipped)}")
    print("\nthe dominant feature per regime should match how that regime "
          "was sampled:")
    for regime, rows in by_regime.items():
        j = int(np.argmax(np.mean(rows, axis=0)))
        print(f"  {regime}: {FEATURE_NAMES[j]}")


if __name__ == "__main__":
    main()
