"""Parameter-recovery experiment: sample corpora at known weights, refit.

For each replication, a synthetic corpus is drawn from the energy model at
the given generating weights, the model is refit from scratch, and the
per-feature estimation error is reported. The samples are fitted unmerged,
without preprocess_corpus: the model can draw a chord twice in a row, and
merging those repeats would fit data the model did not generate. The
experiment checks that maximum likelihood recovers the generating weights
at realistic corpus sizes and quantifies the estimation noise to expect per
feature.

Usage:
    python3 scripts/parameter_recovery.py
    python3 scripts/parameter_recovery.py --pieces 50 --length 12 \
        --replications 3 --weights 0,0,0,-1.5 --cache-dir .cache
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from chordmodel.corpus import CorpusFile, Piece, collapse
from chordmodel.features import FEATURE_NAMES, get_feature_space
from chordmodel.model import EnergyModel, fit, sample_corpus


def synthetic_corpus(space, weights, n_pieces, length, seed) -> CorpusFile:
    model = EnergyModel(space, weights=weights)
    chords = sample_corpus(model, n_pieces, length, np.random.default_rng(seed))
    return CorpusFile(pieces=tuple(Piece(f"synthetic-{i:04d}", c)
                                   for i, c in enumerate(chords)))


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--weights", default="0.5,1.0,-1.0,-0.5",
                        help="generating weights, comma-separated "
                             "(chord size, harmonicity, spectral distance, "
                             "voice-leading distance)")
    parser.add_argument("--pieces", type=int, default=200)
    parser.add_argument("--length", type=int, default=20)
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", default=None,
                        help="persist feature tables here")
    args = parser.parse_args()

    w_true = np.array([float(v) for v in args.weights.split(",")])
    if len(w_true) != len(FEATURE_NAMES):
        parser.error(f"need {len(FEATURE_NAMES)} weights")

    print("building feature tables ...", flush=True)
    t0 = time.perf_counter()
    space = get_feature_space(cache_dir=args.cache_dir)
    print(f"  done in {time.perf_counter() - t0:.1f}s")
    print(f"generating weights: {w_true}")
    print(f"{args.replications} replications of {args.pieces} pieces x "
          f"{args.length} chords\n")

    header = ["rep", "events", "iters", "H (nats)"] + [
        f"err({name})" for name in FEATURE_NAMES
    ]
    widths = [4, 7, 6, 10] + [max(12, len(h)) for h in header[4:]]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))

    errors = []
    for r in range(args.replications):
        t0 = time.perf_counter()
        corpus = synthetic_corpus(
            space, w_true, args.pieces, args.length, seed=[args.seed, r]
        )
        # no preprocess_corpus: the model's support includes the immediate
        # repeat, and merging repeats biases the voice-leading weight upward
        # (by +0.043 +- 0.010 over 12 corpora of 300 x 20 chords)
        cc = collapse(corpus, space.alphabet)
        result = fit(cc, space)
        err = result.weights - w_true
        errors.append(err)
        cells = [
            str(r).rjust(widths[0]),
            str(cc.n_events).rjust(widths[1]),
            str(result.iterations).rjust(widths[2]),
            f"{result.cross_entropy:.4f}".rjust(widths[3]),
        ] + [
            f"{e:+.4f}".rjust(w) for e, w in zip(err, widths[4:])
        ]
        flag = "" if result.converged else "  (not converged)"
        print("  ".join(cells) + f"  {time.perf_counter() - t0:.1f}s{flag}")

    errors = np.array(errors)
    print("\nper-feature |error|: mean "
          + np.array2string(np.abs(errors).mean(axis=0), precision=4)
          + ", max "
          + np.array2string(np.abs(errors).max(axis=0), precision=4))
    signs_ok = np.all(
        np.sign(errors + w_true) == np.sign(w_true), axis=0
    )
    print("sign recovered in every replication: "
          + ", ".join(f"{n}={bool(s)}" for n, s in zip(FEATURE_NAMES, signs_ok)))


if __name__ == "__main__":
    main()
