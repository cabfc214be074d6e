"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(*paths: str | Path) -> Iterator[list[Path]]:
    """Yield a temporary path beside each of paths, to be written in the block.

    Each temporary file is <name>.<pid>.tmp in its target's directory. When
    the block completes, each is moved onto its target with os.replace, in
    order; if the block raises, none is, and the temporary files are
    removed. So a run killed or failing mid-write leaves every target as it
    was, and a concurrent reader never sees a partial file.
    """
    targets = [Path(p) for p in paths]
    tmps = [t.with_name(f"{t.name}.{os.getpid()}.tmp") for t in targets]
    try:
        yield tmps
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
