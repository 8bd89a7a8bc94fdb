import json
import subprocess
import sys

import pytest

from chipfire import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_stable_table(capsys):
    code, out, _ = run(capsys, "stable", "-N", "9", "-k", "3")
    assert code == 0
    assert "n = 2" in out
    assert "digits = 12" in out
    assert "layer 1: 3 chips" in out
    assert "layer 2: 2 chips" in out


def test_stable_trivial_and_ones(capsys):
    code, out, _ = run(capsys, "stable", "-N", "1", "-k", "7")
    assert code == 0
    assert "layer 1: 1 chips" in out
    code, out, _ = run(capsys, "stable", "-N", "15", "-k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["chips_per_vertex"] == [1, 1, 1, 1]


def test_stable_rejects_zero(capsys):
    code, _, err = run(capsys, "stable", "-N", "0", "-k", "3")
    assert code == 2
    assert "error" in err


def test_fires_examples(capsys):
    code, out, _ = run(capsys, "fires", "-N", "9", "-k", "3")
    assert code == 0
    assert "layer 1: 2 fires" in out
    assert "total fires = 2" in out

    code, out, _ = run(capsys, "fires", "-N", "16", "-k", "2", "-f", "json")
    payload = json.loads(out)
    assert payload["root_fires"] == 11
    assert payload["total_fires"] == 23

    code, out, _ = run(capsys, "fires", "-N", "3", "-k", "3")
    assert "root fires = 0" in out
    assert "total fires = 0" in out


def test_seq_listing(capsys):
    code, out, _ = run(capsys, "seq", "d0", "-k", "2", "-n", "18")
    assert code == 0
    assert "1, 1, 2, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1" in out

    code, out, _ = run(capsys, "seq", "a", "-k", "10", "-n", "7")
    assert "1, 12, 123, 1234, 12345, 123456, 1234567" in out

    code, out, _ = run(capsys, "seq", "g0", "-k", "6", "-n", "10")
    assert "0, 1, 2, 3, 4, 5, 6, 8, 9, 10" in out


def test_seq_bfile_bytes(capsys):
    code, out, _ = run(capsys, "seq", "g0", "-k", "3", "-n", "14", "-f", "bfile")
    assert code == 0
    assert out == ("1 0\n2 1\n3 2\n4 3\n5 5\n6 6\n7 7\n8 9\n9 10\n10 11\n"
                   "11 13\n12 14\n13 15\n14 18\n")


def test_seq_csv_and_diff(capsys):
    code, out, _ = run(capsys, "seq", "G", "-k", "2", "-n", "8", "--diff",
                       "-f", "csv", "--header")
    assert code == 0
    assert out.splitlines()[0] == "index,value"
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "1", "1", "4", "1", "4", "1", "11"]


def test_seq_json_round_trips(capsys):
    code, out, _ = run(capsys, "seq", "D", "-k", "3", "-n", "19", "-f", "json")
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, separators=(",", ":")) + "\n" == out
    assert [v for _, v in parsed] == [1, 1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 18,
                                      1, 1, 5, 1, 1, 5]


def test_seq_unknown_id(capsys):
    code, _, err = run(capsys, "seq", "zeta", "-k", "2")
    assert code == 2
    assert "available" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "-k", "2..4", "-N", "120")
    assert code == 0
    assert "all checks passed" in out


def test_verify_with_strategies(capsys):
    code, out, _ = run(capsys, "verify", "-k", "2", "-N", "60",
                       "--strategies", "all", "--seeds", "2")
    assert code == 0
    assert "confluent" in out


def test_verify_reports_first_mismatch(capsys, monkeypatch):
    from chipfire import formulas

    real = formulas.root_fires
    monkeypatch.setitem(formulas.ROUTES, "root_fires",
                        (lambda N, k: real(N, k) + (N == 40), formulas.root_fires_rec))
    code, out, _ = run(capsys, "verify", "-k", "2..3", "-N", "60")
    assert code == 1
    assert "FAIL" in out
    assert "N=40, k=2" in out


def test_verify_rejects_bad_ranges(capsys):
    code, _, err = run(capsys, "verify", "-k", "2", "-N", "0")
    assert code == 2
    code, _, err = run(capsys, "verify", "-k", "1..3", "-N", "10")
    assert code == 2
    code, _, err = run(capsys, "verify", "-k", "2", "-N", "10",
                       "--strategies", "sideways")
    assert code == 2
    for option in (("--seeds", "0"), ("--seeds", "-1"), ("--node-N", "0")):
        code, out, err = run(capsys, "verify", "-k", "2", "-N", "5",
                             "--strategies", "bfs", *option)
        assert code == 2, option
        assert "error:" in err and not out, option


def test_schizo_table(capsys):
    code, out, _ = run(capsys, "schizo", "-k", "10", "-n", "11", "-p", "53")
    assert code == 0
    assert ("111111.11110505555555539054166665767340972160955659283519805"
            in out)
    assert "digit 5 at offset 7, length 8" in out

    code, out, _ = run(capsys, "schizo", "-k", "10", "-n", "1", "-p", "5")
    assert "1.00000" in out
    assert "no repeated-digit blocks" in out


def test_schizo_inverse_json(capsys):
    code, out, _ = run(capsys, "schizo", "-k", "10", "-n", "11", "-p", "64",
                       "--inverse", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == ("0.00000900000000049050000004009837500364226"
                                 "90628473814118700156165")
    assert all(b["digit"] == 0 for b in payload["blocks"])
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_schizo_rejects_small_k(capsys):
    for k in ("0", "1", "-2"):
        code, out, err = run(capsys, "schizo", "-k", k, "-n", "3", "-p", "5")
        assert code == 2, k
        assert "error: branching factor" in err and not out, k


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["stable", "-N", "9"])  # missing -k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_arbitrary_precision_arguments(capsys):
    big = str(10**30)
    code, out, _ = run(capsys, "fires", "-N", big, "-k", "10", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 10**30
    assert payload["total_fires"] > 0


@pytest.mark.parametrize("module", ["chipfire", "chipfire.cli"])
def test_module_runs_as_script(module):
    # the child finds chipfire the way this process did (PYTHONPATH or install)
    def cli_run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, timeout=60)

    done = cli_run("stable", "-N", "9", "-k", "3")
    assert done.returncode == 0
    assert "n = 2" in done.stdout
    assert cli_run("stable", "-N", "0", "-k", "3").returncode == 2
