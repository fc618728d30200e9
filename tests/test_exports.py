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


def _run_isolated(code: str):
    env = {**os.environ, "PYTHONPATH": str(Path(gdscert.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_leaves_scipy_unloaded():
    _run_isolated("import sys, gdscert, gdscert.cli; sys.exit('scipy' in sys.modules)")


# scipy is a test dependency only: with it unimportable, the cascade and the
# three sweeps built on it still run
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from click.testing import CliRunner
from gdscert import trajectory
from gdscert.cli import main
assert trajectory(4, [0.0, 1.0]).states[0].populations[0] == 1.0
for command, option in [("superrad", "--tau"), ("certify", "--superrad-tau"),
                        ("ppt", "--superrad-tau")]:
    result = CliRunner().invoke(main, [command, "--n", "4", option, "1e-3:10:5:geom"])
    assert result.exit_code == 0, (command, result.output, result.exception)
"""


def test_cascade_runs_without_scipy():
    _run_isolated(WITHOUT_SCIPY)
