"""The benchmark's tracer must find every function and method it names.

`perfbench/tracing.py` wraps the `Matrix` and `BilinearSpace` methods listed
in its `METHODS` by name, so renaming or deleting one of them breaks every
traced benchmark run.  Installing the tracer patches the package in place,
so it runs in a fresh interpreter.
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
