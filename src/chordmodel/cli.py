"""Batch command line: feature dumps, model fits, importance, sampling.

Four subcommands:

- features: per-event raw and standardized feature table (CSV).
- fit: maximum-likelihood weights and cross entropy for one corpus (JSON).
- importance: weight / explained entropy / unique explained entropy per
  feature, with optional piece-resampling bootstrap intervals and an
  optional per-composition table (CSV + JSON).
- sample: generate a synthetic corpus from given weights.

Every artifact embeds the run configuration and its hash, so a result can
be reproduced from the artifact plus the input corpus alone. All
randomness flows from --seed; outputs are byte-identical across reruns and
independent of --threads.

Exit codes: 0 success, 1 internal error, 2 input error.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import click
import numpy as np

from .atomic import replacing
from .corpus import (
    CorpusFile,
    CorpusFormatError,
    Piece,
    collapse,
    load_label_map,
    parse_corpus,
    preprocess_corpus,
    transition_classes,
    write_corpus,
)
from .features import FEATURE_NAMES, FeatureSpace, get_feature_space
from .importance import (
    COMPOSITION_RIDGE_DEFAULT,
    CORPUS_RIDGE_DEFAULT,
    DEFAULT_LEVEL,
    bootstrap,
    feature_importance,
    interval_rows,
    per_composition_importance,
)
from .model import EnergyModel, fit, full_mask, mask_from_names, sample_corpus
from .pcset import format_pcset
from .spectrum import SpectrumParams

FEATURE_CSV_COLUMNS = (
    "piece_id",
    "prev",
    "cur",
    *(f"{name}_raw" for name in FEATURE_NAMES),
    *(f"{name}_std" for name in FEATURE_NAMES),
)
IMPORTANCE_CSV_COLUMNS = (
    "feature",
    "measure",
    "estimate",
    "lower",
    "upper",
    "oriented_estimate",
    "oriented_lower",
    "oriented_upper",
)
PIECE_CSV_COLUMNS = ("piece_id", "feature", "measure", "value", "oriented_value")
# The most transition groups whose features text one dump keeps; an entry
# measured about 275 B, so the memo stays under about 4.5 MB.
FEATURES_MEMO_LIMIT = 2**14


@dataclass(frozen=True)
class RunConfig:
    """Result-determining knobs of one run, echoed into every artifact."""

    rho: float = SpectrumParams.rho
    sigma: float = SpectrumParams.sigma
    harmonics: int = SpectrumParams.n_harmonics
    bins: int = SpectrumParams.n_bins
    q_literal: bool = False
    features: tuple[str, ...] = FEATURE_NAMES
    ridge: float = CORPUS_RIDGE_DEFAULT
    bootstrap: int = 0
    seed: int = 0
    level: float = DEFAULT_LEVEL
    corpus_format: str = "plain"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["features"] = list(self.features)
        return d

    def hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _spectrum_options(f):
    f = click.option("--rho", type=float, default=SpectrumParams.rho,
                     show_default=True, callback=_finite,
                     help="Harmonic level roll-off exponent.")(f)
    f = click.option("--sigma", type=float, default=SpectrumParams.sigma,
                     show_default=True, callback=_finite,
                     help="Gaussian smoothing SD in semitones.")(f)
    f = click.option("--harmonics", type=int, default=SpectrumParams.n_harmonics,
                     show_default=True, help="Number of harmonics per tone.")(f)
    f = click.option("--bins", type=int, default=SpectrumParams.n_bins,
                     show_default=True,
                     help="Pitch-class grid resolution (multiple of 12).")(f)
    f = click.option("--q-literal", is_flag=True,
                     help="Use spectral distance rather than similarity as "
                          "the virtual-pitch match profile.")(f)
    f = click.option("--cache-dir", type=click.Path(file_okay=False),
                     default=None, help="Persist feature tables here.")(f)
    return f


def _corpus_options(f):
    f = click.option("--format", "corpus_format",
                     type=click.Choice(["auto", "jsonl", "plain"]),
                     default="auto", show_default=True,
                     help="Corpus file format; auto picks jsonl for "
                          ".jsonl/.ndjson, plain otherwise.")(f)
    f = click.option("--label-map", type=click.Path(exists=False), default=None,
                     help="JSON chord-label -> pitch-class-list map for "
                          "plain-format corpora.")(f)
    return f


def _resolve_format(path: str, corpus_format: str) -> str:
    if corpus_format != "auto":
        return corpus_format
    return "jsonl" if Path(path).suffix in (".jsonl", ".ndjson") else "plain"


def _build_space(rho, sigma, harmonics, bins, q_literal, cache_dir) -> FeatureSpace:
    try:
        params = SpectrumParams(
            rho=rho, sigma=sigma, n_harmonics=harmonics, n_bins=bins
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        return get_feature_space(params, literal_q=q_literal, cache_dir=cache_dir)
    except OSError as exc:
        raise click.UsageError(f"cannot use cache directory {cache_dir}: {exc}")


def _read_corpus(path: str, fmt: str, label_map_path: str | None) -> CorpusFile:
    label_map = None
    try:
        if label_map_path is not None:
            if fmt != "plain":
                raise click.UsageError("--label-map needs the plain format")
            label_map = load_label_map(label_map_path)
        raw = parse_corpus(path, fmt, label_map)
    except (CorpusFormatError, OSError) as exc:
        raise click.UsageError(str(exc))
    return preprocess_corpus(raw)


def _parse_feature_mask(spec: str | None) -> tuple[np.ndarray, tuple[str, ...]]:
    if spec is None:
        return full_mask(), FEATURE_NAMES
    if spec.strip() == "none":
        return np.zeros(len(FEATURE_NAMES), dtype=bool), ()
    names = tuple(token.strip() for token in spec.split(",") if token.strip())
    try:
        mask = mask_from_names(names)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    return mask, tuple(n for n in FEATURE_NAMES if n in names)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_json(path: Path | None, payload: dict) -> None:
    if path is None:
        click.echo(_json_text(payload), nl=False)
    else:
        with replacing(path) as (tmp,):
            tmp.write_text(_json_text(payload), encoding="utf-8")


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _csv_header(fh, columns, config: RunConfig):
    """Write the two config header lines and the column row; return the writer."""
    fh.write(f"# config_hash: {config.hash()}\n")
    fh.write(f"# config: {json.dumps(config.to_dict(), sort_keys=True)}\n")
    writer = csv.writer(fh)
    writer.writerow(columns)
    return writer


def _write_csv_file(path: Path, columns, rows, config: RunConfig) -> None:
    """Write the two config header lines and the rows to a CSV file."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv_header(fh, columns, config)
        for row in rows:
            writer.writerow([_csv_value(row.get(c)) for c in columns])


def _csv_field(text: str) -> str:
    """text as csv.writer writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]  # drop the empty field's comma and the "\r\n"


def _write_features(fh, space: FeatureSpace, corpus: CorpusFile,
                    config: RunConfig) -> None:
    """Write the features CSV, one piece at a time.

    The bytes are those of tests/helpers.features_csv_reference, which
    formats every event on its own; here the values are read from the
    space's tables a piece at a time, and a distance is standardized with
    FeatureSpace.row_tables's two operations, minus the mean, then divided
    by the SD. Text that depends on the continuation alone is formatted once
    per chord. The distance text is formatted once per transition group
    (class row, relative id) for the first FEATURES_MEMO_LIMIT groups met,
    and past that limit at every event of a new group, the voice-leading
    part still once per distance.
    """
    _csv_header(fh, FEATURE_CSV_COLUMNS, config)
    al = space.alphabet
    n_chords = len(al)
    size_z, harmonicity_z = space.columns
    # chord id -> (quoted name, "name,size,harmonicity" raw, "size,harmonicity"
    # standardized)
    chord_text: dict[int, tuple[str, str, str]] = {}
    # row * n_chords + relative id, the group's flat index into the class
    # rows -> ("spectral,vl" raw, "spectral,vl" std)
    group_text: dict[int, tuple[str, str]] = {}
    vl_text: dict[int, tuple[str, str]] = {}  # raw distance -> (raw, std)
    mean, sd = space.stats.mean.tolist(), space.stats.sd.tolist()
    # start events impute the population mean, which standardizes to 0
    start_raw = f"{mean[2]!r},{mean[3]!r}"

    def chord(j: int) -> tuple[str, str, str]:
        name = _csv_field(format_pcset(al[j]))
        size, harmonicity = float(al.sizes[j]), float(space.table.normalized[j])
        chord_text[j] = (
            name,
            f"{name},{size!r},{harmonicity!r}",
            f"{float(size_z[j])!r},{float(harmonicity_z[j])!r}",
        )
        return chord_text[j]

    def group(key: int) -> tuple[str, str]:
        vl = space.vl_matrix.item(key)
        if vl not in vl_text:
            vl_text[vl] = (repr(float(vl)), repr((vl - mean[3]) / sd[3]))
        vl_raw, vl_std = vl_text[vl]
        spectral = space.spectral_matrix.item(key)
        text = (f"{spectral!r},{vl_raw}",
                f"{(spectral - mean[2]) / sd[2]!r},{vl_std}")
        if len(group_text) < FEATURES_MEMO_LIMIT:
            group_text[key] = text
        return text

    for piece in corpus.pieces:
        ids = al.ids_of(piece.chords)
        piece_id = _csv_field(piece.id)
        first = int(ids[0])
        name, head, tail = chord_text.get(first) or chord(first)
        lines = [f"{piece_id},,{head},{start_raw},{tail},0.0,0.0\r\n"]
        rows, rels = transition_classes(ids, al)
        for cur, key in zip(ids[1:].tolist(), (rows * n_chords + rels).tolist()):
            raw, std = group_text.get(key) or group(key)
            prev_name = name
            name, head, tail = chord_text.get(cur) or chord(cur)
            lines.append(f"{piece_id},{prev_name},{head},{raw},{tail},{std}\r\n")
        fh.write("".join(lines))


def _finite(ctx, param, value: float) -> float:
    """Click callback: reject nan and inf, which range types let through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not finite.")
    return value


def _existing_parent(ctx, param, value: str | None) -> str | None:
    """Click callback: reject an output path or prefix that does not end in
    a file name, or whose directory is missing or not a directory, before
    the command computes anything it could not write."""
    if value is None:
        return value
    if os.path.basename(value) in ("", ".", ".."):
        raise click.BadParameter(f"{value!r} does not end in a file name.")
    parent = Path(value).parent
    if not parent.is_dir():
        raise click.BadParameter(f"{parent} is not a directory." if parent.exists()
                                 else f"directory {parent} does not exist.")
    return value


@click.group()
@click.version_option(package_name="chordmodel")
def main() -> None:
    """Consonance features and energy-based models of chord sequences."""


@main.command("features")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              callback=_existing_parent, help="CSV destination (default: stdout).")
@_corpus_options
@_spectrum_options
def cmd_features(corpus_path, output, corpus_format, label_map,
                 rho, sigma, harmonics, bins, q_literal, cache_dir) -> None:
    """Dump raw and standardized features for every event of a corpus."""
    fmt = _resolve_format(corpus_path, corpus_format)
    config = RunConfig(rho=rho, sigma=sigma, harmonics=harmonics, bins=bins,
                       q_literal=q_literal, corpus_format=fmt)
    corpus = _read_corpus(corpus_path, fmt, label_map)
    space = _build_space(rho, sigma, harmonics, bins, q_literal, cache_dir)
    if output is None:
        _write_features(click.get_text_stream("stdout"), space, corpus, config)
    else:
        with (replacing(output) as (tmp,),
              open(tmp, "w", newline="", encoding="utf-8") as fh):
            _write_features(fh, space, corpus, config)
        n_events = sum(len(piece.chords) for piece in corpus.pieces)
        click.echo(f"wrote {n_events} event rows to {output}")


@main.command("fit")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              callback=_existing_parent, help="JSON destination (default: stdout).")
@click.option("--features", "features_spec", default=None,
              help="Comma-separated active features, or 'none' for the "
                   "uniform null model (default: all four).")
@click.option("--ridge", type=click.FloatRange(min=0.0),
              default=CORPUS_RIDGE_DEFAULT, show_default=True, callback=_finite,
              help="L2 penalty strength on the weights.")
@_corpus_options
@_spectrum_options
def cmd_fit(corpus_path, output, features_spec, ridge, corpus_format, label_map,
            rho, sigma, harmonics, bins, q_literal, cache_dir) -> None:
    """Fit maximum-likelihood feature weights on a corpus."""
    fmt = _resolve_format(corpus_path, corpus_format)
    mask, active_names = _parse_feature_mask(features_spec)
    config = RunConfig(rho=rho, sigma=sigma, harmonics=harmonics, bins=bins,
                       q_literal=q_literal, features=active_names,
                       ridge=ridge, corpus_format=fmt)
    corpus = _read_corpus(corpus_path, fmt, label_map)
    space = _build_space(rho, sigma, harmonics, bins, q_literal, cache_dir)
    result = fit(collapse(corpus, space.alphabet), space,
                 feature_mask=mask, ridge=ridge)

    payload = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "corpus": Path(corpus_path).name,
        "result": result.to_dict(),
    }
    _write_json(None if output is None else Path(output), payload)
    if output is not None:
        click.echo(
            f"cross entropy: {result.cross_entropy:.9f} nats/chord"
            f" (converged={result.converged}, iterations={result.iterations})"
        )


@main.command("importance")
@click.argument("corpus_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", "output_prefix", default=None,
              callback=_existing_parent,
              help="Output prefix; writes PREFIX.json and PREFIX.csv, plus "
                   "PREFIX.pieces.csv with --per-piece (default: JSON to "
                   "stdout).")
@click.option("--bootstrap", "bootstrap_b", type=click.IntRange(min=0),
              default=0, show_default=True,
              help="Bootstrap replicate count; 0 disables intervals.")
@click.option("--level", type=click.FloatRange(0.0, 1.0, min_open=True,
                                               max_open=True),
              default=DEFAULT_LEVEL, show_default=True, callback=_finite,
              help="Bootstrap confidence level.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="Root seed for bootstrap resampling.")
@click.option("--ridge", type=click.FloatRange(min=0.0),
              default=CORPUS_RIDGE_DEFAULT, show_default=True, callback=_finite,
              help="L2 penalty for corpus-level fits.")
@click.option("--per-piece", is_flag=True,
              help="Also fit every composition separately.")
@click.option("--piece-ridge", type=click.FloatRange(min=0.0),
              default=COMPOSITION_RIDGE_DEFAULT, show_default=True, callback=_finite,
              help="L2 penalty for per-composition fits.")
@click.option("--threads", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Worker threads for bootstrap replicates.")
@_corpus_options
@_spectrum_options
def cmd_importance(corpus_path, output_prefix, bootstrap_b, level, seed, ridge,
                   per_piece, piece_ridge, threads, corpus_format, label_map,
                   rho, sigma, harmonics, bins, q_literal, cache_dir) -> None:
    """Per-feature weight, explained entropy, and unique explained entropy."""
    fmt = _resolve_format(corpus_path, corpus_format)
    config = RunConfig(rho=rho, sigma=sigma, harmonics=harmonics, bins=bins,
                       q_literal=q_literal, ridge=ridge, bootstrap=bootstrap_b,
                       seed=seed, level=level, corpus_format=fmt)
    corpus = _read_corpus(corpus_path, fmt, label_map)
    space = _build_space(rho, sigma, harmonics, bins, q_literal, cache_dir)
    collapsed = collapse(corpus, space.alphabet)

    if bootstrap_b > 0:
        if len(collapsed.piece_ids) < 2:
            raise click.UsageError(
                "bootstrap needs at least 2 pieces to resample"
            )
        bs = bootstrap(collapsed, space, n_replicates=bootstrap_b, seed=seed,
                       level=level, ridge=ridge, threads=threads)
        rows = bs.rows()
        corpus_level = bs.to_dict()
    else:
        report = feature_importance(collapsed, space, ridge=ridge)
        rows = interval_rows(report)
        corpus_level = {"rows": rows, "point": report.to_dict()}

    payload = {
        "config": config.to_dict(),
        "config_hash": config.hash(),
        "corpus": Path(corpus_path).name,
        "corpus_level": corpus_level,
    }
    pc = None
    if per_piece:
        pc = per_composition_importance(collapsed, space, ridge=piece_ridge)
        payload["per_piece"] = {**pc.to_dict(), "ridge": piece_ridge}

    if output_prefix is None:
        _write_json(None, payload)
        return
    written = [Path(f"{output_prefix}.json"), Path(f"{output_prefix}.csv")]
    if pc is not None:
        written.append(Path(f"{output_prefix}.pieces.csv"))
    # the old files stay until every new one is written
    with replacing(*written) as tmps:
        tmps[0].write_text(_json_text(payload), encoding="utf-8")
        _write_csv_file(tmps[1], IMPORTANCE_CSV_COLUMNS, rows, config)
        if pc is not None:
            _write_csv_file(tmps[2], PIECE_CSV_COLUMNS, pc.rows(), config)
    if pc is not None and pc.skipped:
        click.echo(
            f"skipped {len(pc.skipped)} piece(s) with fewer than 2 "
            f"events: {', '.join(pc.skipped)}"
        )
    for row in rows:
        if row["measure"] != "weight":
            continue
        interval = ""
        if row["lower"] is not None:
            interval = f"  [{row['lower']:+.4f}, {row['upper']:+.4f}]"
        click.echo(f"{row['feature']:24s} weight {row['estimate']:+.4f}{interval}")
    click.echo("wrote " + ", ".join(map(str, written)))


def _weights_from_file(path: str) -> np.ndarray:
    def bad(message: str) -> click.UsageError:
        return click.UsageError(f"weights file {path}: {message}")

    try:
        # integers read as floats: one too large for a float is inf, not an error
        obj = json.loads(Path(path).read_text(encoding="utf-8-sig"), parse_int=float)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read weights from {path}: {exc}")
    except RecursionError:
        raise click.UsageError(f"cannot read weights from {path}: JSON nested too deeply")
    if isinstance(obj, dict) and isinstance(obj.get("result"), dict):
        obj = obj["result"]
    if isinstance(obj, dict) and "weights" in obj:
        obj = obj["weights"]
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - set(FEATURE_NAMES))
        if unknown:
            raise bad(f"unknown feature names in weights: {unknown}")
        values = [obj.get(name, 0.0) for name in FEATURE_NAMES]
    elif isinstance(obj, list):
        values = obj
    else:
        raise bad("expected a JSON list or a name -> value object")
    if len(values) != len(FEATURE_NAMES):
        raise bad(f"expected {len(FEATURE_NAMES)} weights")
    # every JSON number parses as a float, and true as a bool
    if any(type(v) is not float for v in values):
        raise bad("weights must be numbers")
    weights = np.array(values)
    if not np.all(np.isfinite(weights)):
        raise bad("weights must be finite")
    return weights


@main.command("sample")
@click.argument("weights_path", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True,
              callback=_existing_parent, help="Corpus destination.")
@click.option("-n", "--pieces", "n_pieces", type=click.IntRange(min=1),
              default=1, show_default=True, help="Number of pieces to sample.")
@click.option("--length", type=click.IntRange(min=1), default=10,
              show_default=True, help="Chords per piece.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="Sampling seed.")
@click.option("--format", "corpus_format",
              type=click.Choice(["plain", "jsonl"]), default="plain",
              show_default=True, help="Output corpus format.")
@_spectrum_options
def cmd_sample(weights_path, output, n_pieces, length, seed, corpus_format,
               rho, sigma, harmonics, bins, q_literal, cache_dir) -> None:
    """Sample a synthetic corpus from a weights JSON file."""
    weights = _weights_from_file(weights_path)
    space = _build_space(rho, sigma, harmonics, bins, q_literal, cache_dir)
    try:
        model = EnergyModel(space, weights=weights)
    except ValueError as exc:
        raise click.UsageError(f"weights file {weights_path}: {exc}")
    chords = sample_corpus(model, n_pieces, length, np.random.default_rng(seed))
    pieces = tuple(Piece(f"sample-{i:04d}", c) for i, c in enumerate(chords))
    write_corpus(CorpusFile(pieces=pieces), output, corpus_format)
    click.echo(f"wrote {n_pieces} piece(s) of {length} chords to {output}")


if __name__ == "__main__":
    main()
