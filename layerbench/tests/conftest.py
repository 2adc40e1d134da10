"""Make the benchmark's modules and the program importable in its tests."""

import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
for _path in (_BENCH.parent / "src", _BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
