"""The benchmark's tracer must find every method it names.

`perfbench/tracing.py` wraps, by name, the methods listed in its `METHODS`
for each class of that name the package defines.  A class named there that
no longer exists is skipped, but a class that exists must keep every listed
method: renaming or deleting one breaks every traced benchmark run.
Installing the tracer patches the package in place, so it runs in a fresh
interpreter.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import graphvariety.cli\n"
    "import tracing\n"
    "tracing.Tracer().install()\n"
)


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
