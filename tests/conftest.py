"""Shared fixtures: one FeatureSpace per session, backed by a disk cache.

The feature tables cost about 40 s to build from scratch; the cache directory
under tests/ keeps later runs fast and is safe to delete at any time.
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
