import os
import subprocess
import sys
from pathlib import Path

import gdscert


def test_every_exported_name_resolves():
    missing = [name for name in gdscert.__all__ if not hasattr(gdscert, name)]
    assert missing == []
    assert len(set(gdscert.__all__)) == len(gdscert.__all__)


def test_star_import():
    namespace = {}
    exec("from gdscert import *", namespace)
    assert set(gdscert.__all__) <= namespace.keys()


def test_import_leaves_scipy_unloaded():
    # scipy is needed only by superrad.trajectory, which imports it itself
    code = "import sys, gdscert, gdscert.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gdscert.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
