"""Put ``tests/oracles`` on ``sys.path`` once for the whole suite.

The seed implementations the differential tests compare against
(``seed_engine``, ``seed_flowsim``, ``seed_maxmin``, ``seed_admission``,
``seed_shaper``) and the curve-form reference ``curve_aggregate`` live
there as plain modules, outside the shipped package.
"""

import sys
from pathlib import Path

_ORACLES = str(Path(__file__).resolve().parent / "oracles")
if _ORACLES not in sys.path:
    sys.path.insert(0, _ORACLES)
