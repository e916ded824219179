"""Lets the benchmark's tests import reprank from this checkout's src/.

Run them with `python -m pytest bench` from the repository root.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
