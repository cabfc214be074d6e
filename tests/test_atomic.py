"""Atomic output files: stale temporary files of dead writers are removed."""

from __future__ import annotations

import os
import subprocess
import sys

from chordmodel.atomic import replacing


def _write(target, text: str) -> None:
    with replacing(target) as (tmp,):
        tmp.write_text(text, encoding="utf-8")


def test_temporary_file_of_a_running_process_is_kept(tmp_path):
    target = tmp_path / "out[1].txt"  # glob metacharacters in the name
    live = tmp_path / f"{target.name}.{os.getppid()}.tmp"
    live.write_text("being written", encoding="utf-8")
    odd = [tmp_path / f"{target.name}.{name}.tmp" for name in ("abc", "12x", "", "9" * 30)]
    for path in odd:
        path.write_text("not ours", encoding="utf-8")
    _write(target, "done")
    assert target.read_text(encoding="utf-8") == "done"
    assert sorted(tmp_path.iterdir()) == sorted([target, live, *odd])


def test_temporary_file_of_a_dead_process_is_removed(tmp_path):
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no running process
    target = tmp_path / "out.txt"
    stale = tmp_path / f"out.txt.{child.pid}.tmp"
    stale.write_text("half a file", encoding="utf-8")
    other = tmp_path / f"other.txt.{child.pid}.tmp"  # another target's: kept
    other.write_text("half a file", encoding="utf-8")
    _write(target, "done")
    assert target.read_text(encoding="utf-8") == "done"
    assert sorted(tmp_path.iterdir()) == sorted([other, target])
