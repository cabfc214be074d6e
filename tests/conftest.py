"""Shared fixtures: one FeatureSpace per session, backed by a disk cache.

Without a cache the voice-leading matrix takes about 3 s to build; the cache
directory under tests/ cuts that to a 0.1 s load and is safe to delete at any
time. Tests of the builder itself call voice_leading_matrix directly.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from chordmodel.features import get_feature_space
from chordmodel.pcset import enumerate_alphabet

CACHE_DIR = Path(__file__).parent / ".cache"


@pytest.fixture(scope="session")
def space():
    return get_feature_space(cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def alphabet():
    return enumerate_alphabet()
