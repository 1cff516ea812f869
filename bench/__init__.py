"""Request-path benchmark for ``repro serve`` (see bench/README.md).

``python -m bench run`` drives a real server subprocess over HTTP and
prints the end-to-end metrics; ``--trace 1`` prints the per-layer ones.
"""

import os
import sys

#: the checkout root: the benchmark measures the ``src/`` next to it, never
#: an installed copy, and fails to import when that tree is absent
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch (the CSV graph of a run, traces); git-ignored, made on demand
OUT_DIR = os.path.join(ROOT, "bench", "out")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
