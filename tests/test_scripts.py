"""The end-to-end scripts exit 2 with one `error:` line on a usage error, as the CLI
does: exit 1 is the scripts' own verdict (nonzero classes, or a replay that does not
force every unknown to zero)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wittcoh

ROOT = Path(__file__).parent.parent
SRC = str(Path(wittcoh.__file__).parent.parent)


@pytest.mark.parametrize("script, args, message", [
    ("rigidity_scan.py", ["6", "8"], "error: window [-8,8] too small for margin 8"),
    ("rigidity_scan.py", ["6", "1"], "error: margin must be at least 2, got 1"),
    ("rigidity_scan.py", ["x"], "error: invalid literal for int() with base 10: 'x'"),
    ("replay_proof.py", ["3"], "error: table window must satisfy K >= 6, got 3"),
])
def test_a_usage_error_exits_two_with_one_line(script, args, message):
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", message + "\n")
