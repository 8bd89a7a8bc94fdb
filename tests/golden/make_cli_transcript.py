"""Write cli_transcript.json: exit code, stdout sha256 and stderr per argv.

    PYTHONPATH=src python tests/golden/make_cli_transcript.py

`tests/test_cli.py::test_golden_cli_transcript` replays the file through
`record`, so the replay captures exactly as the recording did; run this only
to record a deliberate change of the CLI's output.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from chipfire import cli

D50 = "31415926535897932384626433832795028841971693993751"
D120 = "27182818284590452353602874713526624977572470936999" * 2 + "59574966967627724076"
D300 = ("1" + "0" * 298 + "7")


def _argvs():
    argvs = []
    for command in ("stable", "fires"):
        for N, k in (("9", "3"), ("15", "2"), (D50, "3"), (D120, "7"), (D300, "10")):
            for fmt in ("table", "csv", "json"):
                argvs.append([command, "-N", N, "-k", k, "-f", fmt])
    for name in ("g0", "G", "d0", "D", "f0_special", "F_special", "a", "b",
                 "f0_raw", "F_raw"):
        argvs.append(["seq", name, "-k", "3", "-n", "12"])
    for fmt in ("table", "csv", "json", "bfile"):
        argvs.append(["seq", "F_special", "-k", "10", "--start", "200", "-n", "3", "-f", fmt])
        argvs.append(["seq", "G", "-k", "2", "--start", "1" + "0" * 60, "-n", "4", "-f", fmt])
    argvs += [
        ["seq", "G", "-k", "2", "-n", "8", "--diff", "-f", "csv", "--header"],
        ["seq", "D", "-k", "5", "--start", "1" + "0" * 80, "-n", "5", "--diff"],
    ]
    for fmt in ("table", "json"):
        argvs.append(["schizo", "-k", "10", "-n", "11", "-p", "53", "-f", fmt])
        argvs.append(["schizo", "-k", "10", "-n", "99", "-p", "150", "-f", fmt])
        argvs.append(["schizo", "-k", "3", "-n", "201", "-p", "60", "--inverse", "-f", fmt])
    argvs += [
        ["verify", "-k", "2..3", "-N", "40"],
        ["verify", "-k", "2", "-N", "30", "--strategies", "all", "--seeds", "2"],
        ["verify", "-k", "3..4", "-N", "25", "--strategies", "bfs,random", "--node-N", "12"],
    ]
    # usage errors, each with a small bad value
    argvs += [
        ["stable", "-N", "-7", "-k", "3"],
        ["stable", "-N", "5", "-k", "1"],
        ["fires", "-N", "0", "-k", "3"],
        ["fires", "-N", "5", "-k", "-7"],
        ["seq", "g0", "-k", "1"],
        ["seq", "g0", "-k", "2", "-n", "-7"],
        ["seq", "g0", "-k", "2", "--start", "-7"],
        ["seq", "zeta", "-k", "2"],
        ["seq", "g0", "-k", "3", "-n", "1", "--diff"],
        ["schizo", "-k", "-7", "-n", "2", "-p", "5"],
        ["schizo", "-k", "3", "-n", "-7", "-p", "5"],
        ["schizo", "-k", "3", "-n", "2", "-p", "-7"],
        ["schizo", "-k", "3", "-n", "2", "-p", "5", "--min-run", "-7"],
        ["verify", "-k", "2", "-N", "-7"],
        ["verify", "-k", "2", "-N", "3", "--seeds", "-7"],
        ["verify", "-k", "2", "-N", "3", "--node-N", "-7"],
        ["verify", "-k", "2", "-N", "3", "--strategies", "bfs", "--seeds", "0"],
        ["verify", "-k", "1..3", "-N", "10"],
        ["verify", "-k", "5..3", "-N", "10"],
        ["verify", "-k", "2", "-N", "10", "--strategies", "sideways"],
        ["stable", "-N", "9"],
        ["no-such-command"],
        ["fires", "-N", "9x", "-k", "3"],
        ["seq", "g0", "-k", "3", "-f", "xml"],
    ]
    return argvs


def run(argv):
    """Exit code, stdout and stderr of the CLI on `argv`, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv):
    code, out, err = run(argv)
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(), "stderr": err}


def main():
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage lines to the terminal
    path = Path(__file__).with_name("cli_transcript.json")
    entries = [record(argv) for argv in _argvs()]
    path.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{path}: {len(entries)} argvs")


if __name__ == "__main__":
    main()
