"""Own pytest dir, outside the tier-1 ``testpaths``.

Run from the repo root: ``python -m pytest bench/tests -q`` (< 10 s);
nothing here launches a server.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
