"""The repo benchmark: workloads, outside-in tracer and runner.

``python3 perf/run.py`` is the entry point; ``perf/README.md`` says what
is measured and why.  The program under test lives in ``src/`` and is
not installed, so importing this package puts ``src/`` on ``sys.path``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
