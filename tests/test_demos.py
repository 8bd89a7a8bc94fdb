import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from golden.make_cli_transcript import run

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


def test_readme_cli_lines_run():
    # every `chipfire ...` line of README's shell blocks is a command that succeeds
    text = (ROOT / "README.md").read_text()
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```$", text, re.M | re.S)
             for line in block.splitlines() if line.startswith("chipfire ")]
    assert len(lines) >= 9
    for line in lines:
        code, _, err = run(shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
