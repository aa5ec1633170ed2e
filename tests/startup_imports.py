"""Importing the CLI and building its parser must add none of FORBIDDEN to
`sys.modules`.

    python -S tests/startup_imports.py src

Every CLI process pays for what the package imports before any work:
`dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`.  Run it
with -S, so that `site` and its `.pth` files load nothing first.  Exits 1
naming the modules that were added.
"""

import sys

FORBIDDEN = ("dataclasses", "inspect", "typing", "pathlib")

before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from graphvariety import cli  # noqa: E402

cli.build_parser()
added = [m for m in FORBIDDEN if m in sys.modules and m not in before]
if added:
    sys.exit(f"importing graphvariety.cli added {', '.join(added)}")
