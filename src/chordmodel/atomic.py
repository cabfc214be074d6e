"""Output files that appear whole or not at all."""

from __future__ import annotations

import glob
import os
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        pass  # another user's process, or a number too large to be a pid
    return True


def _remove_stale(target: Path) -> None:
    """Remove <name>.<pid>.tmp files beside target whose pid is not a
    running process. This process's own pid and names whose pid part is not
    a decimal number are left alone."""
    prefix = f"{target.name}."
    for tmp in target.parent.glob(f"{glob.escape(prefix)}*.tmp"):
        pid = tmp.name[len(prefix):-len(".tmp")]
        if pid.isascii() and pid.isdigit() and int(pid) != os.getpid() \
                and not _running(int(pid)):
            tmp.unlink(missing_ok=True)


@contextmanager
def replacing(*paths: str | Path) -> Iterator[list[Path]]:
    """Yield a temporary path beside each of paths, to be written in the block.

    Each temporary file is <name>.<pid>.tmp in its target's directory. When
    the block completes, each is moved onto its target with os.replace, in
    order; if the block raises, none is, and the temporary files are
    removed. So a run killed or failing mid-write leaves every target as it
    was, and a concurrent reader never sees a partial file. A killed run's
    temporary file stays until the next write to the same target, which
    removes every <name>.<pid>.tmp whose process is gone.
    """
    targets = [Path(p) for p in paths]
    for target in targets:
        _remove_stale(target)
    tmps = [t.with_name(f"{t.name}.{os.getpid()}.tmp") for t in targets]
    try:
        yield tmps
        for tmp, target in zip(tmps, targets):
            os.replace(tmp, target)
    finally:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
