"""Consonance features and energy-based generative models of chord sequences.

The public surface mirrors the processing pipeline: pitch-class sets and
their transposition classes (pcset), smoothed pitch-class spectra
(spectrum), transition features and cached feature tables (features),
corpus ingestion and transposition collapse (corpus), the energy-based
sequence model and its maximum-likelihood fit (model), and feature
importance with bootstrap intervals (importance). The cli module exposes
the same pipeline as a batch command line.
"""

from .corpus import (
    CollapsedCorpus,
    CorpusFile,
    CorpusFormatError,
    Piece,
    collapse,
    load_label_map,
    parse_corpus,
    preprocess,
    preprocess_corpus,
    write_corpus,
)
from .features import (
    FEATURE_NAMES,
    FeatureSpace,
    HarmonicityTable,
    TransitionFeatureStats,
    build_harmonicity_table,
    build_transition_stats,
    get_feature_space,
    harmonicity_raw,
    virtual_pitch_spectrum,
)
from .importance import (
    BootstrapResult,
    ImportanceReport,
    PerCompositionResult,
    bootstrap,
    feature_importance,
    per_composition_importance,
)
from .model import (
    EnergyModel,
    FitResult,
    conditional_distribution,
    corpus_cost,
    corpus_gradient,
    energy,
    fit,
    sample_corpus,
    sample_sequence,
)
from .pcset import (
    ALPHABET_SIZE,
    N_PITCH_CLASSES,
    ChordAlphabet,
    as_pcset,
    enumerate_alphabet,
    normal_form,
    parse_pcset,
    format_pcset,
)
from .spectrum import (
    SpectrumParams,
    harmonic_tone_spectrum,
    pcset_spectrum,
    spectral_distance,
    tone_similarity_profile,
)
from .voiceleading import voice_leading_distance

__version__ = "0.1.0"

__all__ = [
    "ALPHABET_SIZE",
    "BootstrapResult",
    "ChordAlphabet",
    "CollapsedCorpus",
    "CorpusFile",
    "CorpusFormatError",
    "EnergyModel",
    "FEATURE_NAMES",
    "FeatureSpace",
    "FitResult",
    "HarmonicityTable",
    "ImportanceReport",
    "N_PITCH_CLASSES",
    "PerCompositionResult",
    "Piece",
    "SpectrumParams",
    "TransitionFeatureStats",
    "as_pcset",
    "bootstrap",
    "build_harmonicity_table",
    "build_transition_stats",
    "collapse",
    "conditional_distribution",
    "corpus_cost",
    "corpus_gradient",
    "energy",
    "enumerate_alphabet",
    "feature_importance",
    "fit",
    "format_pcset",
    "get_feature_space",
    "harmonic_tone_spectrum",
    "harmonicity_raw",
    "load_label_map",
    "normal_form",
    "parse_corpus",
    "parse_pcset",
    "pcset_spectrum",
    "per_composition_importance",
    "preprocess",
    "preprocess_corpus",
    "sample_corpus",
    "sample_sequence",
    "spectral_distance",
    "tone_similarity_profile",
    "virtual_pitch_spectrum",
    "voice_leading_distance",
    "write_corpus",
]
