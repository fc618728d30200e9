"""Set-up probe: import what a gdscert user's process imports, then say so.

``run.py`` starts this script several times and times each from process
start to the ``ready`` line.  Usage: ``python3 setup_probe.py <src dir>``.
"""

import sys

sys.path.insert(0, sys.argv[1])

import gdscert  # noqa: E402  (numpy, scipy.linalg)
import gdscert.cli  # noqa: E402,F401  (click)

print("ready", gdscert.__file__, flush=True)
