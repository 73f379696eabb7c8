"""Put the checkout root and its ``src`` on the path for the benchmark's
own tests (run with ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench.common import ensure_source_on_path  # noqa: E402

ensure_source_on_path()
