"""Where the program under test lives, relative to this benchmark."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")


def use_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit with an
    error (and no result) when the checkout holds no program."""
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.stderr.write(f"perfbench: no program at {PACKAGE}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
