import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    # the child finds chipfire the way this process did (PYTHONPATH or install)
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_python_blocks_run():
    # the library API that README documents is the one the package has
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(readme), "exec"), {})
