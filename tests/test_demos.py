import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # the child finds chipfire the way this process did (PYTHONPATH or install)
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
