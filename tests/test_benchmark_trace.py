"""The benchmark's traced run must find every name it wraps."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Importing perfbench/run.py sets MWRELAY_THREADS for the whole process, so
# the check runs in a child interpreter.
CHILD = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import run
targets, _ = run.trace_targets()
missing = [name for name, (owner, attr) in targets.items() if attr not in owner.__dict__]
print(len(targets), missing)
"""


def test_trace_targets_resolve():
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
    count, missing = out.stdout.strip().split(" ", 1)
    assert int(count) > 0
    assert missing == "[]"
