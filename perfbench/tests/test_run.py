"""run.py refuses to produce a result without the program's sources."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "coords-ingest", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no locbench sources" in done.stderr
