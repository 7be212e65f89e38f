"""Where the measured program lives: the src/ directory of this checkout."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_engine():
    """Import eiscoeff from this checkout's src/, or exit with code 2."""
    if not (SRC / "eiscoeff" / "__init__.py").is_file():
        sys.stderr.write(f"no eiscoeff package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import eiscoeff

    where = Path(eiscoeff.__file__).resolve().parent
    if where != (SRC / "eiscoeff").resolve():
        sys.stderr.write(f"eiscoeff imported from {where}, not from {SRC}\n")
        sys.exit(2)
    return eiscoeff


def engine_env() -> dict:
    """Environment for subprocesses that must import this checkout's eiscoeff."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
