"""Puts the simulator's ``src/`` tree on the import path for the tests."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
