"""Command-line interface: schemas, determinism, and error handling."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chordmodel import cli
from chordmodel.cli import RunConfig, main
from chordmodel.corpus import (
    collapse,
    load_label_map,
    parse_corpus,
    preprocess_corpus,
    write_corpus,
)
from chordmodel.features import FEATURE_NAMES, get_feature_space
from chordmodel.importance import CORPUS_RIDGE_DEFAULT, DEFAULT_LEVEL
from chordmodel.model import EnergyModel, sample_sequence
from chordmodel.spectrum import SpectrumParams

from conftest import CACHE_DIR
from helpers import diatonic_corpus, features_csv_reference

PLAIN_CORPUS = "\n".join(
    [
        "0,4,7 5,9,0 7,11,2 0,4,7",
        "0,3,7 5,8,0 0,3,7",
        "0 0,6 0,2,4,5,7,9,11",
    ]
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(PLAIN_CORPUS + "\n", encoding="utf-8")
    return path


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def cached(*args):
    return list(args) + ["--cache-dir", str(CACHE_DIR)]


def read_csv_with_header(text):
    lines = text.splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1].startswith("# config: ")
    config = json.loads(lines[1].removeprefix("# config: "))
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[2:]))))
    return config, lines[0].split(": ")[1], rows


def test_features_stdout_schema(runner, corpus_file):
    result = run(runner, *cached("features", corpus_file))
    assert result.exit_code == 0
    config, config_hash, rows = read_csv_with_header(result.output)
    assert len(config_hash) == 16
    assert config["corpus_format"] == "plain"
    assert len(rows) == 10  # 4 + 3 + 3 events
    first = rows[0]
    assert first["piece_id"] == "piece-0001"
    assert first["prev"] == "" and first["cur"] == "0,4,7"
    assert float(first["chord_size_raw"]) == 3.0
    second = rows[1]
    assert second["prev"] == "0,4,7" and second["cur"] == "0,5,9"
    assert float(second["voice_leading_distance_raw"]) == 3.0
    # start events carry imputed (mean) raw values for sequential features,
    # which standardize to exactly zero
    assert float(first["spectral_distance_std"]) == 0.0
    assert float(first["voice_leading_distance_std"]) == 0.0


def test_features_file_output_matches_stdout(runner, corpus_file, tmp_path):
    out = tmp_path / "features.csv"
    result = run(runner, *cached("features", corpus_file, "-o", out))
    assert result.exit_code == 0
    assert "wrote 10 event rows" in result.output
    stdout = run(runner, *cached("features", corpus_file))
    assert out.read_text(encoding="utf-8") == stdout.output


def test_failed_features_write_leaves_previous_file(runner, corpus_file,
                                                   tmp_path, monkeypatch):
    """features -o streams into a temporary file: a writer that raises after
    the first piece's rows leaves the old output whole and no .tmp file."""
    out = tmp_path / "features.csv"
    run(runner, *cached("features", corpus_file, "-o", out))
    before = out.read_bytes()
    real = cli.transition_classes
    calls = []

    def fail_on_second_piece(ids, alphabet):
        calls.append(len(ids))
        if len(calls) == 2:
            raise OSError("disk full")
        return real(ids, alphabet)

    monkeypatch.setattr(cli, "transition_classes", fail_on_second_piece)
    with pytest.raises(OSError, match="disk full"):
        run(runner, *cached("features", corpus_file, "-o", out, "--rho", "0.5"))
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "features.csv"]


def test_failed_importance_write_replaces_no_file(runner, corpus_file,
                                                  tmp_path, monkeypatch):
    """importance -o P replaces its three files only after all are written:
    a failure in the last one leaves every old file as it was."""
    prefix = tmp_path / "imp"
    run(runner, *cached("importance", corpus_file, "--per-piece", "-o", prefix))
    names = ["imp.csv", "imp.json", "imp.pieces.csv"]
    before = {name: (tmp_path / name).read_bytes() for name in names}
    real = cli._write_csv_file

    def fail_in_pieces_csv(path, columns, rows, config):
        if columns == cli.PIECE_CSV_COLUMNS:
            real(path, columns, rows[:2], config)
            raise OSError("disk full")
        real(path, columns, rows, config)

    monkeypatch.setattr(cli, "_write_csv_file", fail_in_pieces_csv)
    with pytest.raises(OSError, match="disk full"):
        run(runner, *cached("importance", corpus_file, "--per-piece", "-o", prefix,
                            "--ridge", "0.5"))
    assert {name: (tmp_path / name).read_bytes() for name in names} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", *names]


def test_killed_features_run_leaves_previous_file(corpus_file, tmp_path):
    """A child killed (SIGKILL) after writing the first piece's rows of
    features -o leaves the previous file under the final name, and its
    temporary file until the next features -o."""
    out = tmp_path / "features.csv"
    out.write_bytes(b"previous\n")
    code = (
        "import os, signal, sys\n"
        "from chordmodel import cli\n"
        "real = cli.transition_classes\n"
        "calls = []\n"
        "def kill_on_second_piece(ids, alphabet):\n"
        "    calls.append(len(ids))\n"
        "    if len(calls) == 2:\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return real(ids, alphabet)\n"
        "cli.transition_classes = kill_on_second_piece\n"
        "cli.main(sys.argv[1:])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *cached("features", str(corpus_file),
                                             "-o", str(out))],
        env=env, capture_output=True, timeout=600,
    )
    assert proc.returncode == -signal.SIGKILL
    assert out.read_bytes() == b"previous\n"
    # the killed run wrote into its temporary file; the next write removes it
    assert len(list(tmp_path.glob("features.csv.*.tmp"))) == 1
    assert run(CliRunner(), *cached("features", corpus_file, "-o", out)).exit_code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.txt", "features.csv"]


def test_features_bytes_independent_of_blas_threads(tmp_path):
    """features, fit, importance (bootstrap and per-piece) and sample write
    the same bytes under one and two BLAS threads."""
    # random chords make every transition a fresh spectral-matrix entry
    masks = np.random.default_rng(0).integers(1, 4096, size=(12, 30))
    corpus = tmp_path / "random.txt"
    corpus.write_text("".join(
        " ".join(",".join(str(p) for p in range(12) if m >> p & 1) for m in piece)
        + "\n" for piece in masks.tolist()
    ), encoding="utf-8")
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(dict(zip(FEATURE_NAMES, [0.5, 1.0, -1.0, -0.5]))),
                       encoding="utf-8")
    commands = {
        "features.csv": ("features", corpus),
        "fit.json": ("fit", corpus),
        "imp": ("importance", corpus, "--bootstrap", 3, "--per-piece"),
        "sample.txt": ("sample", weights, "-n", 3, "--length", 40),
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in ("1", "2"):
        out_dir = tmp_path / f"blas-{threads}"
        out_dir.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for out, args in commands.items():
            subprocess.run(
                [sys.executable, "-m", "chordmodel.cli", *cached(
                    *map(str, args), "-o", str(out_dir / out))],
                env=env, check=True, capture_output=True, timeout=600,
            )
        outputs[threads] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    # importance writes imp.json, imp.csv and imp.pieces.csv
    assert len(outputs["1"]) == 6
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], name


def assert_features_match_reference(corpus, fmt, fields, label_map=None):
    """features stdout and -o bytes equal the per-event reference writer.

    fields holds RunConfig values among q_literal, bins and harmonics.
    """
    config = RunConfig(**fields, corpus_format=fmt)
    options = ["--q-literal"] if config.q_literal else []
    for name in ("bins", "harmonics"):
        if name in fields:
            options += [f"--{name}", fields[name]]
    if label_map is not None:
        options += ["--label-map", label_map]
    runner = CliRunner()
    stdout = run(runner, *cached("features", corpus, *options))
    assert stdout.exit_code == 0, stdout.output
    out = Path(corpus).with_suffix(".csv")
    to_file = run(runner, *cached("features", corpus, *options, "-o", out))
    assert to_file.exit_code == 0, to_file.output

    space = get_feature_space(
        SpectrumParams(n_harmonics=config.harmonics, n_bins=config.bins),
        literal_q=config.q_literal, cache_dir=CACHE_DIR,
    )
    labels = None if label_map is None else load_label_map(label_map)
    parsed = preprocess_corpus(parse_corpus(corpus, fmt, labels))
    want = features_csv_reference(space, parsed, config)
    assert stdout.stdout_bytes == want
    assert out.read_bytes() == want


FEATURE_SETTINGS = {"default": {}, "q-literal": {"q_literal": True},
                    "bins-600-h11": {"bins": 600, "harmonics": 11}}

# ids that csv.writer must quote (comma, quote, newline) or pass through
# (space, non-ASCII)
piece_ids_st = st.text(
    st.sampled_from(list('ab ,"\n\r\'\u00e9\u2603;')) | st.characters(
        exclude_categories=("Cs", "Cc")),
    min_size=1, max_size=6,
)


@st.composite
def jsonl_pieces(draw):
    """Pieces with 1- and 12-note chords, one-chord pieces and bass changes
    over a repeated set, which preprocessing keeps as repeated chords."""
    chord = st.one_of(
        st.sampled_from([(0,), (0, 4, 7), tuple(range(12))]),
        st.integers(1, 4095).map(lambda m: tuple(p for p in range(12) if m >> p & 1)),
    )
    ids = draw(st.lists(piece_ids_st, min_size=1, max_size=5, unique=True))
    pieces = []
    for piece_id in ids:
        events = []
        for _ in range(draw(st.integers(1, 8))):
            if events and draw(st.booleans()):
                pcs = events[-1][0]  # same set, maybe a new bass
            else:
                pcs = draw(chord)
            events.append((pcs, draw(st.none() | st.sampled_from(pcs))))
        pieces.append({"id": piece_id, "chords": [list(c) for c, _ in events],
                       "bass": [b for _, b in events]})
    return pieces


@pytest.mark.parametrize("name", FEATURE_SETTINGS)
@settings(max_examples=50, deadline=None)
@given(pieces=jsonl_pieces())
def test_features_bytes_equal_eventwise_reference(name, pieces):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "c.jsonl"
        corpus.write_text("".join(json.dumps(p) + "\n" for p in pieces),
                          encoding="utf-8")
        assert_features_match_reference(corpus, "jsonl", FEATURE_SETTINGS[name])


@pytest.mark.parametrize("memo_limit", [cli.FEATURES_MEMO_LIMIT, 3])
def test_features_bytes_equal_eventwise_reference_on_repeated_groups(
        memo_limit, monkeypatch, tmp_path, space):
    """A diatonic corpus repeats a few transition groups over many events:
    the text kept once per group, and with a memo of 3 groups the text of
    the groups formatted per event past it, equal the reference."""
    corpus = tmp_path / "tonal.jsonl"
    write_corpus(diatonic_corpus(seed=3, n_pieces=60), corpus)
    collapsed = collapse(preprocess_corpus(parse_corpus(corpus, "jsonl")),
                         space.alphabet)
    assert 3 < collapsed.n_classes and 10 * collapsed.n_classes < collapsed.n_events
    monkeypatch.setattr(cli, "FEATURES_MEMO_LIMIT", memo_limit)
    assert_features_match_reference(corpus, "jsonl", {})


LABELS = {"I": [0, 4, 7], "V7": [7, 11, 2, 5], "aug": [0, 4, 8], "n": [5],
          "all": list(range(12))}


@settings(max_examples=25, deadline=None)
@given(pieces=st.lists(st.lists(st.sampled_from(sorted(LABELS)), min_size=1,
                                max_size=8), min_size=1, max_size=5))
def test_features_bytes_equal_eventwise_reference_with_label_map(pieces):
    with tempfile.TemporaryDirectory() as tmp:
        labels = Path(tmp) / "labels.json"
        labels.write_text(json.dumps(LABELS), encoding="utf-8")
        corpus = Path(tmp) / "c.txt"
        corpus.write_text("".join(" ".join(p) + "\n" for p in pieces),
                          encoding="utf-8")
        assert_features_match_reference(corpus, "plain", {}, label_map=labels)


def test_empty_corpus_is_a_usage_error(runner, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n", encoding="utf-8")
    result = runner.invoke(main, cached("features", str(empty)))
    assert result.exit_code == 2
    assert "contains no pieces" in result.output


def test_fit_stdout_and_determinism(runner, corpus_file):
    a = run(runner, *cached("fit", corpus_file))
    b = run(runner, *cached("fit", corpus_file))
    assert a.exit_code == 0
    assert a.output == b.output  # byte-identical across reruns
    payload = json.loads(a.output)
    assert len(payload["config_hash"]) == 16
    assert set(payload["result"]["weights"]) == set(FEATURE_NAMES)
    assert payload["result"]["converged"] is True
    assert payload["result"]["n_events"] == 10
    assert payload["corpus"] == "corpus.txt"


def test_fit_without_options_echoes_the_default_config(runner, corpus_file):
    """The option defaults and RunConfig's are one set of values, and the
    spectrum ones are SpectrumParams's. --cache-dir enters no config."""
    payload = json.loads(run(runner, *cached("fit", corpus_file)).output)
    assert payload["config"] == RunConfig(corpus_format="plain").to_dict()
    config, params = RunConfig(), SpectrumParams()
    assert (config.rho, config.sigma, config.harmonics, config.bins) == (
        params.rho, params.sigma, params.n_harmonics, params.n_bins)
    assert (config.ridge, config.level) == (CORPUS_RIDGE_DEFAULT, DEFAULT_LEVEL)


def test_fit_null_model_hits_uniform_entropy(runner, corpus_file):
    result = run(runner, *cached("fit", corpus_file, "--features", "none"))
    payload = json.loads(result.output)
    assert payload["result"]["cross_entropy_nats"] == math.log(4095)
    assert payload["result"]["feature_mask"] == []
    assert payload["config"]["features"] == []


def test_fit_feature_subset(runner, corpus_file, tmp_path):
    out = tmp_path / "fit.json"
    result = run(
        runner,
        *cached("fit", corpus_file, "--features", "harmonicity", "-o", out),
    )
    assert result.exit_code == 0
    assert "cross entropy:" in result.output
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["result"]["feature_mask"] == ["harmonicity"]
    inactive = [n for n in FEATURE_NAMES if n != "harmonicity"]
    assert all(payload["result"]["weights"][n] == 0.0 for n in inactive)
    assert payload["result"]["weights"]["harmonicity"] != 0.0


def test_fit_unknown_feature_is_usage_error(runner, corpus_file):
    result = runner.invoke(main, cached("fit", str(corpus_file), "--features", "loudness"))
    assert result.exit_code == 2
    assert "unknown feature" in result.output


def test_bad_spectrum_params_are_usage_errors(runner, corpus_file):
    result = runner.invoke(main, cached("fit", str(corpus_file), "--bins", "-5"))
    assert result.exit_code == 2
    result = runner.invoke(main, cached("fit", str(corpus_file), "--sigma", "0"))
    assert result.exit_code == 2


@pytest.mark.parametrize("command, option, value", [
    ("importance", "--seed", "-1"),
    ("importance", "--threads", "-3"),
    ("importance", "--threads", "0"),
    ("importance", "--bootstrap", "-1"),
    ("importance", "--level", "0"),
    ("importance", "--level", "1"),
    ("importance", "--level", "nan"),
    ("importance", "--ridge", "-1"),
    ("importance", "--ridge", "inf"),
    ("importance", "--piece-ridge", "-1"),
    ("importance", "--piece-ridge", "nan"),
    ("fit", "--ridge", "-100"),
    ("fit", "--ridge", "nan"),
    ("fit", "--rho", "nan"),
    ("fit", "--sigma", "nan"),
    ("fit", "--sigma", "inf"),
    ("sample", "--seed", "-2"),
    ("sample", "--pieces", "0"),
    ("sample", "--length", "0"),
])
def test_out_of_range_option_is_usage_error(runner, corpus_file, tmp_path,
                                            command, option, value):
    if command == "sample":
        weights = tmp_path / "w.json"
        weights.write_text(json.dumps([0.0] * 4), encoding="utf-8")
        args = ["sample", str(weights), "-o", str(tmp_path / "out.txt")]
    else:
        args = [command, str(corpus_file)]
        if command == "importance":
            args += ["--bootstrap", "2"]
    result = runner.invoke(main, cached(*args, option, value))
    assert result.exit_code == 2, result.output
    assert "Invalid value" in result.output and option in result.output


def test_importance_table_shape(runner, corpus_file, tmp_path):
    prefix = tmp_path / "imp"
    result = run(runner, *cached("importance", corpus_file, "-o", prefix))
    assert result.exit_code == 0
    _, csv_hash, rows = read_csv_with_header(
        (tmp_path / "imp.csv").read_text(encoding="utf-8")
    )
    assert len(rows) == 3 * 4  # measures x features
    assert {r["measure"] for r in rows} == {
        "weight",
        "explained_entropy",
        "unique_explained_entropy",
    }
    assert {r["feature"] for r in rows} == set(FEATURE_NAMES)
    # without bootstrap the interval columns stay empty
    assert all(r["lower"] == "" and r["upper"] == "" for r in rows)
    payload = json.loads((tmp_path / "imp.json").read_text(encoding="utf-8"))
    assert payload["config_hash"] == csv_hash  # JSON and CSV agree
    assert payload["corpus_level"]["point"]["converged"] is True
    # the JSON rows are the CSV rows: null bounds, and the oriented weights of
    # the two distance features negated
    json_rows = payload["corpus_level"]["rows"]
    assert len(json_rows) == len(rows)
    negated = 0
    for got, row in zip(json_rows, rows):
        assert row == {k: "" if v is None else str(v) for k, v in got.items()}
        assert [got[k] for k in ("lower", "upper", "oriented_lower",
                                 "oriented_upper")] == [None] * 4
        if got["measure"] == "weight" and got["feature"] in (
                "spectral_distance", "voice_leading_distance"):
            assert got["oriented_estimate"] == -got["estimate"] != 0.0
            negated += 1
        else:
            assert got["oriented_estimate"] == got["estimate"]
    assert negated == 2


def test_importance_bootstrap_intervals_and_thread_independence(
    runner, corpus_file, tmp_path
):
    args = ["importance", corpus_file, "--bootstrap", 5, "--seed", 7,
            "--level", "0.9"]
    a = run(runner, *cached(*args, "-o", tmp_path / "a"))
    b = run(runner, *cached(*args, "--threads", 3, "-o", tmp_path / "b"))
    assert a.exit_code == 0 and b.exit_code == 0
    ja = (tmp_path / "a.json").read_text(encoding="utf-8")
    jb = (tmp_path / "b.json").read_text(encoding="utf-8")
    assert ja == jb
    ca = (tmp_path / "a.csv").read_text(encoding="utf-8")
    cb = (tmp_path / "b.csv").read_text(encoding="utf-8")
    assert ca == cb
    _, _, rows = read_csv_with_header(ca)
    assert all(r["lower"] != "" and r["upper"] != "" for r in rows)
    flipped = {"spectral_distance", "voice_leading_distance"}
    for r in rows:
        # the point estimate is the full-corpus value, not a replicate
        # statistic, so only the interval ordering is guaranteed
        assert float(r["lower"]) <= float(r["upper"])
        assert float(r["oriented_lower"]) <= float(r["oriented_upper"])
        if r["measure"] == "weight" and r["feature"] in flipped:
            assert float(r["oriented_lower"]) == -float(r["upper"])
            assert float(r["oriented_upper"]) == -float(r["lower"])
            assert float(r["oriented_estimate"]) == -float(r["estimate"])
        else:
            assert float(r["oriented_estimate"]) == float(r["estimate"])
    payload = json.loads(ja)
    bs = payload["corpus_level"]
    assert bs["n_replicates"] == 5 and bs["seed"] == 7
    assert bs["n_nonconverged"] == 0 and bs["flagged"] is False


def test_importance_per_piece_table(runner, corpus_file, tmp_path):
    prefix = tmp_path / "pp"
    result = run(
        runner, *cached("importance", corpus_file, "--per-piece", "-o", prefix)
    )
    assert result.exit_code == 0
    _, _, rows = read_csv_with_header(
        (tmp_path / "pp.pieces.csv").read_text(encoding="utf-8")
    )
    assert len(rows) == 3 * 3 * 4  # pieces x measures x features
    assert {r["piece_id"] for r in rows} == {
        "piece-0001",
        "piece-0002",
        "piece-0003",
    }
    payload = json.loads((tmp_path / "pp.json").read_text(encoding="utf-8"))
    assert payload["per_piece"]["skipped"] == []
    assert payload["per_piece"]["ridge"] == 1e-3
    assert len(payload["per_piece"]["reports"]) == 3


def test_importance_skips_single_event_pieces(runner, tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("0,4,7 5,9,0\n0,4,7\n", encoding="utf-8")
    result = run(
        runner,
        *cached("importance", path, "--per-piece", "-o", tmp_path / "t"),
    )
    assert result.exit_code == 0
    assert "skipped 1 piece(s)" in result.output
    assert "piece-0002" in result.output


def test_single_piece_bootstrap_is_usage_error(runner, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("0,4,7 5,9,0 7,11,2\n", encoding="utf-8")
    result = runner.invoke(
        main, cached("importance", str(path), "--bootstrap", "3")
    )
    assert result.exit_code == 2
    assert "at least 2 pieces" in result.output


def test_label_map_flow(runner, tmp_path):
    labels = tmp_path / "labels.json"
    labels.write_text(
        json.dumps({"I": [0, 4, 7], "IV": [5, 9, 0], "V": [7, 11, 2]}),
        encoding="utf-8",
    )
    corpus = tmp_path / "labelled.txt"
    corpus.write_text("I IV V I\nIV V I I\n", encoding="utf-8")
    ok = run(
        runner, *cached("features", corpus, "--label-map", labels)
    )
    assert ok.exit_code == 0
    _, _, rows = read_csv_with_header(ok.output)
    assert rows[0]["cur"] == "0,4,7"
    corpus.write_text("I IX\n", encoding="utf-8")
    bad = runner.invoke(
        main, cached("features", str(corpus), "--label-map", str(labels))
    )
    assert bad.exit_code == 2
    assert "unknown chord label 'IX'" in bad.output


def test_sample_round_trip_and_determinism(runner, tmp_path):
    weights = tmp_path / "w.json"
    weights.write_text(
        json.dumps({name: 0.0 for name in FEATURE_NAMES}), encoding="utf-8"
    )
    out_a, out_b, out_c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
    for out, seed in ((out_a, 3), (out_b, 3), (out_c, 4)):
        result = run(
            runner,
            *cached("sample", weights, "-o", out, "-n", 4, "--length", 6,
                    "--seed", seed),
        )
        assert result.exit_code == 0
    assert out_a.read_text() == out_b.read_text()
    assert out_a.read_text() != out_c.read_text()
    lines = out_a.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 4
    assert all(len(line.split()) == 6 for line in lines)
    # sampled output is itself a valid corpus
    refit = run(runner, *cached("fit", out_a, "--features", "none"))
    assert json.loads(refit.output)["result"]["n_events"] <= 24


def test_sample_accepts_fit_output_as_weights(runner, corpus_file, tmp_path):
    fit_json = tmp_path / "fit.json"
    run(runner, *cached("fit", corpus_file, "-o", fit_json))
    out = tmp_path / "sampled.jsonl"
    result = run(
        runner,
        *cached("sample", fit_json, "-o", out, "-n", 2, "--length", 5,
                "--format", "jsonl"),
    )
    assert result.exit_code == 0
    pieces = [json.loads(line) for line in out.read_text().splitlines()]
    assert [p["id"] for p in pieces] == ["sample-0000", "sample-0001"]
    assert all(len(p["chords"]) == 5 for p in pieces)


def test_sample_null_model_chord_sizes_match_alphabet(runner, tmp_path):
    """Zero weights sample uniformly: sizes follow C(12,m)/4095."""
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps([0.0, 0.0, 0.0, 0.0]), encoding="utf-8")
    out = tmp_path / "u.txt"
    result = run(
        runner,
        *cached("sample", weights, "-o", out, "-n", 40, "--length", 50,
                "--seed", 0),
    )
    assert result.exit_code == 0
    sizes = [
        len(tok.split(","))
        for line in out.read_text(encoding="utf-8").strip().splitlines()
        for tok in line.split()
    ]
    observed = np.bincount(sizes, minlength=13)[1:]
    expected = np.array(
        [math.comb(12, m) for m in range(1, 13)], dtype=float
    ) / 4095 * len(sizes)
    # pool the sparse tails so the chi-square approximation holds
    obs = np.concatenate([[observed[:3].sum()], observed[3:9],
                          [observed[9:].sum()]])
    exp = np.concatenate([[expected[:3].sum()], expected[3:9],
                          [expected[9:].sum()]])
    stat = scipy.stats.chisquare(obs, exp)
    assert stat.pvalue > 0.001


def test_sample_rejects_bad_weights(runner, tmp_path):
    bad = tmp_path / "bad.json"
    out = tmp_path / "out.txt"
    for content, fragment in [
        ("[1, 2]", "expected 4 weights"),
        ('{"loudness": 1.0}', "unknown feature names"),
        ('[1, 2, 3, "x"]', "weights must be numbers"),
        ("[true, 0, 0, 0]", "weights must be numbers"),
        ('{"chord_size": "0.5"}', "weights must be numbers"),
        ('{"weights": {"harmonicity": false}}', "weights must be numbers"),
        ("[1, 2, 3, NaN]", "weights must be finite"),
        # finite, but w * table overflows to inf
        ("[1e308, 0, 0, 0]", "weights too large"),
        ("[0, 0, -1e308, 0]", "weights too large"),
        (f"[1, 2, 3, {'9' * 400}]", "weights must be finite"),
        ("{nope", "cannot read weights"),
    ]:
        bad.write_text(content, encoding="utf-8")
        result = runner.invoke(
            main, cached("sample", str(bad), "-o", str(out))
        )
        assert result.exit_code == 2, content
        assert fragment in result.output


def test_sample_accepts_large_finite_weight_sums(runner, space, tmp_path):
    """Weights whose weighted feature sums stay finite sample as the library
    does, here the near-deterministic draws of huge context-free weights."""
    weights = tmp_path / "w.json"
    weights.write_text("[1e200, 1e200, 0, 0]", encoding="utf-8")
    out = tmp_path / "out.txt"
    result = run(runner, *cached("sample", weights, "-o", out, "--length", "5",
                                 "--seed", "3"))
    assert result.exit_code == 0, result.output
    model = EnergyModel(space, weights=np.array([1e200, 1e200, 0.0, 0.0]))
    chords = sample_sequence(model, 5, np.random.default_rng(3))
    assert out.read_text(encoding="utf-8") == " ".join(
        ",".join(map(str, c)) for c in chords) + "\n"


GOLDEN_WEIGHTS = {"weights": {"chord_size": -0.3, "harmonicity": 0.5,
                              "spectral_distance": -0.5,
                              "voice_leading_distance": -1.0}}
# `sample -n 3 --length 8 --seed 5` from GOLDEN_WEIGHTS, written by the
# sampler that drew each chord with Generator.choice
GOLDEN_PLAIN = """\
0,3,4,8,9,10,11 3,4,5,7,9,10,11 2,4,6,9,10,11 2,4,6,9,11 0,2,7,9 0,2,5,7,9 2,5,7,10,11 0,1,6,8
0,4,9 0,1,3,4,5,7,8,9,10,11 0,1,2,3,4,7,9,10 3,4,6,9,11 4,5,7,9,11 0,1,2,4,5,6,7,9,11 0,1,2,3,5,6,7,10,11 1,2,3,4,6,7,10,11
1,2,5,6,11 0,1,2,5,7,10 0,1,2,5,7,8,10 1,2,5,8 0,1,2,5,6,9 1,2,5,6,9 2,5,6,7,9,10,11 2,4,9,11
"""
GOLDEN_JSONL = """\
{"id":"sample-0000","chords":[[0,3,4,8,9,10,11],[3,4,5,7,9,10,11],[2,4,6,9,10,11],[2,4,6,9,11],[0,2,7,9],[0,2,5,7,9],[2,5,7,10,11],[0,1,6,8]]}
{"id":"sample-0001","chords":[[0,4,9],[0,1,3,4,5,7,8,9,10,11],[0,1,2,3,4,7,9,10],[3,4,6,9,11],[4,5,7,9,11],[0,1,2,4,5,6,7,9,11],[0,1,2,3,5,6,7,10,11],[1,2,3,4,6,7,10,11]]}
{"id":"sample-0002","chords":[[1,2,5,6,11],[0,1,2,5,7,10],[0,1,2,5,7,8,10],[1,2,5,8],[0,1,2,5,6,9],[1,2,5,6,9],[2,5,6,7,9,10,11],[2,4,9,11]]}
"""


@pytest.mark.parametrize("fmt, golden", [("plain", GOLDEN_PLAIN),
                                         ("jsonl", GOLDEN_JSONL)],
                         ids=["plain", "jsonl"])
def test_sample_bytes_are_pinned(runner, tmp_path, fmt, golden):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps(GOLDEN_WEIGHTS), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    result = run(runner, *cached("sample", weights, "-o", out, "-n", 3,
                                 "--length", 8, "--seed", 5, "--format", fmt))
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == golden.encode("ascii")


@pytest.mark.parametrize("token", ["-0", "+4", "\u0663"])
def test_non_ascii_digit_token_is_a_usage_error(runner, tmp_path, token):
    corpus = tmp_path / "c.txt"
    corpus.write_text(f"0,4,7 5,9,0\n0,4,7 {token},4,7\n", encoding="utf-8")
    result = run(runner, "fit", corpus)
    assert result.exit_code == 2
    assert f"c.txt:2: malformed chord token {token + ',4,7'!r}" in result.output


@pytest.mark.parametrize("bad, args", [
    ("c.txt", ["fit", "c.txt"]),
    ("c.jsonl", ["features", "c.jsonl"]),
    ("c.jsonl", ["importance", "c.jsonl"]),
    ("labels.json", ["features", "c.txt", "--label-map", "labels.json"]),
    ("w.json", ["sample", "w.json", "-o", "out.txt"]),
])
def test_non_utf8_input_is_a_usage_error(runner, tmp_path, monkeypatch, bad, args):
    files = {
        "c.txt": b"0,4,7 5,9,0\n",
        "c.jsonl": b'{"id": "a", "chords": [[0, 4, 7], [5, 9, 0]]}\n',
        "labels.json": b'{"I": [0, 4, 7], "IV": [5, 9, 0]}',
        "w.json": b"[0.5, 0, 0, 0]",
    }
    files[bad] = files[bad][:10] + b"\xff" + files[bad][10:]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    result = run(runner, *cached(*args))
    assert result.exit_code == 2
    assert bad in result.output
    assert "utf-8" in result.output.lower()


@pytest.mark.parametrize("bad, args", [
    ("c.jsonl", ["fit", "c.jsonl"]),
    ("labels.json", ["fit", "c.txt", "--label-map", "labels.json"]),
])
def test_oversized_json_integer_is_a_usage_error(runner, tmp_path, monkeypatch,
                                                 bad, args):
    # beyond Python's default 4,300-digit limit for int conversion
    huge = "7" * 5000
    files = {
        "c.txt": "I IV\n",
        "c.jsonl": f'{{"id": "a", "chords": [[0, {huge}]]}}\n',
        "labels.json": f'{{"I": [0, 4, 7], "IV": [5, 9, {huge}]}}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = run(runner, *cached(*args))
    assert result.exit_code == 2
    assert bad in result.output


@pytest.mark.parametrize("bad, args", [
    ("c.jsonl", ["fit", "c.jsonl"]),
    ("labels.json", ["fit", "c.txt", "--label-map", "labels.json"]),
    ("w.json", ["sample", "w.json", "-o", "out.txt"]),
])
def test_deeply_nested_json_is_a_usage_error(runner, tmp_path, monkeypatch,
                                             bad, args):
    # far deeper than Python's recursion limit, where json.loads gives up
    deep = "[" * 100_000 + "]" * 100_000
    files = {
        "c.txt": "I IV\n",
        "c.jsonl": f'{{"id": "a", "chords": {deep}}}\n',
        "labels.json": f'{{"I": [0, 4, 7], "IV": {deep}}}',
        "w.json": deep,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = run(runner, *cached(*args))
    assert result.exit_code == 2
    assert bad in result.output


@pytest.mark.parametrize("args", [
    ["fit", "c.txt", "-o", "nodir/f.json"],
    ["features", "c.txt", "-o", "nodir/f.csv"],
    ["importance", "c.txt", "--bootstrap", "2", "-o", "nodir/p"],
    ["sample", "w.json", "-o", "nodir/s.txt"],
])
def test_missing_output_directory_is_a_usage_error(runner, tmp_path, monkeypatch,
                                                   args):
    (tmp_path / "c.txt").write_text(PLAIN_CORPUS + "\n", encoding="utf-8")
    (tmp_path / "w.json").write_text("[0.5, 0, 0, 0]", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def no_work(*args):
        pytest.fail("the command started work before checking its output path")

    monkeypatch.setattr(cli, "_build_space", no_work)
    result = run(runner, *args)
    assert result.exit_code == 2
    assert "nodir" in result.output
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("args", [
    ["features", "c.jsonl"],
    ["features", "c.jsonl", "-o", "f.csv"],
    ["importance", "c.jsonl", "--per-piece", "-o", "p"],
])
def test_lone_surrogate_piece_id_is_a_usage_error(runner, tmp_path, monkeypatch,
                                                  args):
    """"\\ud800" is valid JSON but no UTF-8 text: every artifact that writes
    piece ids would fail to encode it, so the reader rejects it."""
    (tmp_path / "c.jsonl").write_text(
        '{"id": "a", "chords": [[0, 4, 7], [5, 9, 0]]}\n'
        '{"id": "\\ud800", "chords": [[0, 4, 7], [5, 9, 0]]}\n', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = run(runner, *cached(*args))
    assert result.exit_code == 2
    assert "c.jsonl:2: piece id '\\ud800'" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl"]


# Input-layer fuzzing: random bytes, and well-formed JSON of the wrong shape,
# depth or size, for each of the four readers. Text may hold lone
# surrogates, which JSON can escape but UTF-8 cannot encode.
fuzz_char = st.characters() | st.integers(0xD800, 0xDFFF).map(chr)
fuzz_text = st.text(fuzz_char, max_size=4)
fuzz_leaves = (st.none() | st.booleans() | st.integers(-2, 13)
               | st.integers(-2**70, 2**70) | st.floats() | fuzz_text)
fuzz_json = st.recursive(
    fuzz_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(fuzz_text, inner, max_size=4),
    max_leaves=12,
)
# chords, pieces and weights are often valid, so that whole files get past
# the reader and into the commands' own checks and writers
fuzz_valid_chord = st.lists(st.integers(0, 11), min_size=1, max_size=4)
fuzz_chord = fuzz_valid_chord | fuzz_valid_chord | st.lists(
    st.integers(-1, 12), max_size=4) | fuzz_json
# texts that json.loads must not recurse into, or not convert, unguarded
fuzz_extreme = st.sampled_from([
    "[" * 100_000 + "]" * 100_000, "[" * 900 + "]" * 900, "7" * 5000,
    "1e400", "-1e400", "NaN", "",
])


def fuzz_json_text(value) -> str:
    return json.dumps(value, ensure_ascii=True)


@st.composite
def fuzz_bytes(draw, shaped, max_lines=1):
    """One file: random bytes, an extreme JSON text, or up to max_lines
    lines of the reader's own shape, some of them arbitrary JSON."""
    kind = draw(st.sampled_from(["bytes", "extreme", "shaped", "mixed"]))
    if kind == "bytes":
        return draw(st.binary(max_size=120))
    if kind == "extreme":
        return draw(fuzz_extreme).encode()
    line = shaped if kind == "shaped" else shaped | fuzz_json
    lines = draw(st.lists(line.map(fuzz_json_text), min_size=1,
                         max_size=max_lines))
    return "\n".join(lines).encode()


fuzz_plain_token = st.sampled_from(
    ["0,4,7", "5,9,0", "11", "12", "-0", "+4", "\u0663", "0,,4", "#", "a"])
fuzz_plain = st.lists(st.lists(fuzz_plain_token, max_size=5), min_size=1,
                      max_size=4).map(
    lambda lines: "\n".join(" ".join(t) for t in lines).encode())
fuzz_id = st.text(fuzz_char, min_size=1, max_size=4)
fuzz_piece = st.fixed_dictionaries(
    {"id": fuzz_id, "chords": st.lists(fuzz_valid_chord, min_size=1, max_size=4)}
) | st.fixed_dictionaries(
    {"id": fuzz_id | fuzz_json, "chords": st.lists(fuzz_chord, min_size=1, max_size=4)},
    optional={"bass": st.lists(st.none() | st.integers(-1, 12), max_size=4)
              | fuzz_json})
fuzz_label_map = st.dictionaries(fuzz_text, fuzz_chord, max_size=4)
fuzz_number = st.floats(-5, 5) | st.integers(-5, 5) | st.floats() \
    | st.integers(-2**70, 2**70) | fuzz_leaves
fuzz_weights = st.lists(fuzz_number, min_size=3, max_size=5) | st.dictionaries(
    st.sampled_from(FEATURE_NAMES) | fuzz_text, fuzz_number, max_size=4)
fuzz_weights = fuzz_weights | fuzz_weights.map(lambda w: {"weights": w}) \
    | fuzz_weights.map(lambda w: {"result": {"weights": w}})

FUZZ_READERS = {
    # reader: (fuzzed file, its contents, command)
    "plain": ("c.txt", st.one_of(st.binary(max_size=120), fuzz_plain),
              ["features", "c.txt", "-o", "out.csv"]),
    "jsonl": ("c.jsonl", fuzz_bytes(fuzz_piece, max_lines=4),
              ["features", "c.jsonl"]),
    "label map": ("labels.json", fuzz_bytes(fuzz_label_map),
                  ["features", "c.txt", "--label-map", "labels.json"]),
    "weights": ("w.json", fuzz_bytes(fuzz_weights),
                ["sample", "w.json", "-o", "s.txt", "--length", "3"]),
}


@pytest.mark.parametrize("reader", FUZZ_READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fuzzed_input_exits_0_or_2_naming_the_file(reader, data):
    """Whatever bytes a reader gets, a command exits 0 or 2, and an exit 2
    names the file at fault; never a traceback (exit 1)."""
    name, contents, args = FUZZ_READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / name).write_bytes(data.draw(contents, label=name))
        if reader == "label map":
            # a corpus of the map's own labels where it has any
            try:
                labels = json.loads((tmp / name).read_bytes())
            except (ValueError, RecursionError):
                labels = None
            words = [w for w in labels if w.split() == [w] and w.isprintable()] \
                if isinstance(labels, dict) else []
            (tmp / "c.txt").write_text(" ".join(words or ["I"]) + "\n",
                                       encoding="utf-8")
        # the arguments with a dot are the file names
        result = CliRunner().invoke(main, cached(*[
            str(tmp / a) if "." in a else a for a in args]))
    event(f"exit {result.exit_code}")
    assert result.exit_code in (0, 2), (result.output, result.exception)
    if result.exit_code == 2:
        assert name in result.output or (
            reader == "label map" and "c.txt" in result.output), result.output


# output-path fuzzing: command -> (arguments before -o, suffixes of the
# files an output value names)
OUTPUT_COMMANDS = {
    "fit": (["fit", "c.txt"], ("",)),
    "features": (["features", "c.txt"], ("",)),
    "importance": (["importance", "c.txt"], (".json", ".csv")),
    "sample": (["sample", "w.json", "--length", "3"], ("",)),
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(OUTPUT_COMMANDS)),
       case=st.sampled_from(["directory", "file parent", "trailing separator",
                             "newline"]),
       name=st.text(st.sampled_from("ab1 -_\u00e9"), max_size=4).map("o".__add__),
       parent_exists=st.booleans())
def test_fuzzed_output_path_exits_0_or_2_naming_it(command, case, name,
                                                   parent_exists):
    """An output path that is a directory or lies inside a file, or a path
    or prefix that ends in a path separator, exits 2 naming the entry at
    fault and writes nothing. A name with a newline, or a prefix beside a
    directory of the same name, exits 0 and writes exactly the files the
    value names. No case leaves a temporary file."""
    args, suffixes = OUTPUT_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.txt").write_text(PLAIN_CORPUS + "\n", encoding="utf-8")
        (tmp / "w.json").write_text("[0.5, 0, 0, 0]", encoding="utf-8")
        if case == "directory":
            (tmp / name).mkdir()
            output = str(tmp / name)
        elif case == "file parent":
            (tmp / name).write_text("not a directory\n", encoding="utf-8")
            output = str(tmp / name / "out")
        elif case == "trailing separator":
            if parent_exists:
                (tmp / name).mkdir()
            output = str(tmp / name) + os.sep
        else:
            output = str(tmp / f"{name}\n{name}")
        before = {p for p in tmp.rglob("*") if p.is_file()}
        result = CliRunner().invoke(main, cached(
            *[str(tmp / a) if "." in a else a for a in args], "-o", output))
        written = {p for p in tmp.rglob("*") if p.is_file()} - before
    # a prefix beside a directory of its name is fine; a file path is not
    writes = case == "newline" or (case == "directory" and command == "importance")
    assert result.exit_code == (0 if writes else 2), (result.output, result.exception)
    if writes:
        assert written == {Path(output + suffix) for suffix in suffixes}
    else:
        assert name in result.output, result.output
        assert not written
    if case == "file parent":
        assert "is not a directory" in result.output


def test_unusable_cache_dir_is_a_usage_error(runner, corpus_file, tmp_path):
    (tmp_path / "afile").write_text("not a directory\n", encoding="utf-8")
    cache = tmp_path / "afile" / "sub"
    result = run(runner, "fit", corpus_file, "--cache-dir", cache)
    assert result.exit_code == 2
    assert str(cache) in result.output


@pytest.mark.parametrize("marked, args, output", [
    ("c.txt", ["fit", "c.txt"], None),
    ("c.jsonl", ["fit", "c.jsonl"], None),
    ("labels.json", ["features", "l.txt", "--label-map", "labels.json"], None),
    ("w.json", ["sample", "w.json", "-o", "out.txt"], "out.txt"),
])
def test_byte_order_mark_is_ignored(runner, tmp_path, monkeypatch, marked, args,
                                    output):
    files = {
        "c.txt": b"0,4,7 5,9,0\n",
        "c.jsonl": b'{"id": "a", "chords": [[0, 4, 7], [5, 9, 0]]}\n',
        "l.txt": b"I IV\n",
        "labels.json": b'{"I": [0, 4, 7], "IV": [5, 9, 0]}',
        "w.json": b"[0.5, 0, 0, 0]",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    results = []
    for data in (files[marked], b"\xef\xbb\xbf" + files[marked]):
        (tmp_path / marked).write_bytes(data)
        result = run(runner, *cached(*args))
        assert result.exit_code == 0, result.output
        results.append((result.output,
                        output and (tmp_path / output).read_bytes()))
    assert results[0] == results[1]


def test_config_hash_is_stable_and_sensitive(runner, corpus_file):
    base = json.loads(run(runner, *cached("fit", corpus_file)).output)
    again = json.loads(run(runner, *cached("fit", corpus_file)).output)
    assert base["config_hash"] == again["config_hash"]
    varied = json.loads(
        run(runner, *cached("fit", corpus_file, "--ridge", "0.5")).output
    )
    assert varied["config_hash"] != base["config_hash"]
    assert varied["config"]["ridge"] == 0.5
