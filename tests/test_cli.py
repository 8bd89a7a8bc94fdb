import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
from math import isqrt
from pathlib import Path

import pytest

import chipfire
from chipfire import cli, engine, formulas, numerics, schizo
from chipfire.numerics import format_int, parse_int
from golden.make_cli_transcript import record, run


def test_stable_table():
    code, out, _ = run(["stable", "-N", "9", "-k", "3"])
    assert code == 0
    assert "n = 2" in out
    assert "digits = 12" in out
    assert "layer 1: 3 chips" in out
    assert "layer 2: 2 chips" in out


def test_stable_trivial_and_ones():
    code, out, _ = run(["stable", "-N", "1", "-k", "7"])
    assert code == 0
    assert "layer 1: 1 chips" in out
    code, out, _ = run(["stable", "-N", "15", "-k", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["chips_per_vertex"] == [1, 1, 1, 1]


def test_stable_rejects_zero():
    code, _, err = run(["stable", "-N", "0", "-k", "3"])
    assert code == 2
    assert "error" in err


def test_fires_examples():
    code, out, _ = run(["fires", "-N", "9", "-k", "3"])
    assert code == 0
    assert "layer 1: 2 fires" in out
    assert "total fires = 2" in out

    code, out, _ = run(["fires", "-N", "16", "-k", "2", "-f", "json"])
    payload = json.loads(out)
    assert payload["root_fires"] == 11
    assert payload["total_fires"] == 23

    code, out, _ = run(["fires", "-N", "3", "-k", "3"])
    assert "root fires = 0" in out
    assert "total fires = 0" in out


def test_seq_listing():
    code, out, _ = run(["seq", "d0", "-k", "2", "-n", "18"])
    assert code == 0
    assert "1, 1, 2, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1" in out

    code, out, _ = run(["seq", "a", "-k", "10", "-n", "7"])
    assert "1, 12, 123, 1234, 12345, 123456, 1234567" in out

    code, out, _ = run(["seq", "g0", "-k", "6", "-n", "10"])
    assert "0, 1, 2, 3, 4, 5, 6, 8, 9, 10" in out


def test_seq_bfile_bytes():
    code, out, _ = run(["seq", "g0", "-k", "3", "-n", "14", "-f", "bfile"])
    assert code == 0
    assert out == ("1 0\n2 1\n3 2\n4 3\n5 5\n6 6\n7 7\n8 9\n9 10\n10 11\n"
                   "11 13\n12 14\n13 15\n14 18\n")


def test_seq_csv_and_diff():
    code, out, _ = run(["seq", "G", "-k", "2", "-n", "8", "--diff",
                        "-f", "csv", "--header"])
    assert code == 0
    assert out.splitlines()[0] == "index,value"
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "1", "1", "4", "1", "4", "1", "11"]


def test_seq_diff_of_a_difference_sequence():
    # d0 is not monotone, so its differences take both signs
    code, out, _ = run(["seq", "d0", "-k", "2", "-n", "6", "--diff"])
    assert code == 0
    assert out == "d0.diff (k = 2): 0, 1, -1, 1, -1\n"


def test_seq_json_round_trips():
    code, out, _ = run(["seq", "D", "-k", "3", "-n", "19", "-f", "json"])
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, separators=(",", ":")) + "\n" == out
    assert [v for _, v in parsed] == [1, 1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 18,
                                      1, 1, 5, 1, 1, 5]


def test_seq_unknown_id():
    code, _, err = run(["seq", "zeta", "-k", "2"])
    assert code == 2
    assert "available" in err


def test_verify_passes():
    code, out, _ = run(["verify", "-k", "2..4", "-N", "120"])
    assert code == 0
    assert "all checks passed" in out


def test_verify_with_strategies():
    code, out, _ = run(["verify", "-k", "2", "-N", "60",
                        "--strategies", "all", "--seeds", "2"])
    assert code == 0
    assert "confluent" in out


def test_verify_reports_first_mismatch(monkeypatch):
    from chipfire import formulas

    real = formulas.root_fires
    monkeypatch.setitem(formulas.ROUTES, "root_fires",
                        (lambda N, k: real(N, k) + (N == 40), formulas.root_fires_rec))
    code, out, _ = run(["verify", "-k", "2..3", "-N", "60"])
    assert code == 1
    assert "FAIL" in out
    assert "root_fires(40, 2)" in out


def test_verify_cell_derives_one_stable_configuration(monkeypatch):
    # the stable digits come from one to_base call; every closed form of the
    # cell reads that configuration, not a conversion of its own
    calls = []
    real = numerics.to_base

    def counted_to_base(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numerics, "to_base", counted_to_base)
    for N, k in [(10**12 + 39, 3), (987654, 2), (4321, 7)]:
        calls.clear()
        cli._verify_cell(N, k, [("simulate_layers", engine.simulate_layers(N, k))])
        assert len(calls) <= 1, (N, k, calls)


def test_verify_runs_one_avalanche_stream_per_k(monkeypatch):
    # each k reads one stream to its top pile; no pile is settled from scratch
    streams, piles, layer_runs = [], [], []
    real = engine.avalanche

    def counted_avalanche(k, top):
        streams.append((k, top))
        for N, result in enumerate(real(k, top), 1):
            piles.append((N, k))
            yield result

    monkeypatch.setattr(engine, "avalanche", counted_avalanche)
    monkeypatch.setattr(engine, "simulate_layers", lambda N, k: layer_runs.append((N, k)))
    for argv, top in ((["-N", "20", "--node-N", "12"], 20),  # node-level runs up to 12
                      (["-N", "8", "--node-N", "15"], 15)):  # and past -N
        streams.clear()
        piles.clear()
        code, out, _ = run(["verify", "-k", "2..3", *argv, "--strategies", "bfs,random"])
        assert code == 0, out
        assert streams == [(2, top), (3, top)], argv
        assert piles == [(N, k) for k in (2, 3) for N in range(1, top + 1)], argv
    assert layer_runs == []


def _record_node_runs(monkeypatch):
    # each node_avalanche stream as (k, top, strategy, seed, piles read), and
    # each simulate run from zero as (N, k, strategy, seed)
    streams, from_zero = [], []
    real_stream, real_simulate = engine.node_avalanche, engine.simulate

    def counted_stream(k, top, strategy, seed):
        record = [k, top, strategy, seed, 0]
        streams.append(record)
        for result in real_stream(k, top, strategy, seed):
            record[-1] += 1
            yield result

    def counted_simulate(N, k, **kw):
        from_zero.append((N, k, kw["strategy"], kw["seed"]))
        return real_simulate(N, k, **kw)

    monkeypatch.setattr(engine, "node_avalanche", counted_stream)
    monkeypatch.setattr(engine, "simulate", counted_simulate)
    return streams, from_zero


def test_verify_runs_each_firing_order_once(monkeypatch):
    # bfs and max-chips read no seed, so they run once per k; random runs once
    # per seed: one stream over every pile, and one run from zero at the top pile
    streams, from_zero = _record_node_runs(monkeypatch)
    code, out, _ = run(["verify", "-k", "2", "-N", "10", "--strategies", "all",
                        "--seeds", "3"])
    assert code == 0, out
    orders = [("bfs", 0), ("max-chips", 0), ("random", 0), ("random", 1), ("random", 2)]
    assert streams == [[2, 10, *order, 10] for order in orders]
    assert from_zero == [(10, 2, *order) for order in orders]
    assert "k=2: confluent over 5 node-level runs for N=1..10" in out


def test_verify_drops_duplicate_strategies(monkeypatch):
    streams, from_zero = _record_node_runs(monkeypatch)
    code, out, _ = run(["verify", "-k", "2..3", "-N", "5", "--strategies", "bfs,bfs",
                        "--seeds", "2"])
    assert code == 0, out
    assert streams == [[k, 5, "bfs", 0, 5] for k in (2, 3)]
    assert from_zero == [(5, k, "bfs", 0) for k in (2, 3)]
    assert "k=3: confluent over 1 node-level runs for N=1..5" in out


def test_verify_formula_line_names_the_top_pile():
    # node-level runs past -N take the formula checks with them
    code, out, _ = run(["verify", "-k", "2", "-N", "8", "--node-N", "15",
                        "--strategies", "bfs"])
    assert code == 0, out
    assert out.splitlines()[0] == "k=2: formulas match engine for N=1..15"
    code, out, _ = run(["verify", "-k", "2", "-N", "8", "--node-N", "15"])
    assert code == 0, out
    assert out.splitlines()[0] == "k=2: formulas match engine for N=1..8"


def test_verify_reads_every_formula_route_from_the_route_table(monkeypatch):
    # the stable chips and fires per layer are ROUTES entries like the totals,
    # so a replaced fires_by_layer route is what verify compares
    def fire_profile_off_by_one(N, k):
        f = formulas.fire_profile(N, k)
        return (f[0] + 1,) + f[1:]

    monkeypatch.setitem(formulas.ROUTES, "fires_by_layer", (fire_profile_off_by_one,))
    code, out, err = run(["verify", "-k", "3", "-N", "20"])
    assert code == 1 and not err
    assert out == ("FAIL: fires_by_layer(1, 3): routes disagree: avalanche [0], "
                   "fire_profile_off_by_one [1]\n")


def test_verify_checks_vertex_fires_on_the_deepest_pile(monkeypatch):
    real = formulas.vertex_fires_via_root
    monkeypatch.setitem(formulas.ROUTES, "vertex_fires",
                        (formulas.vertex_fires,
                         lambda N, k, i: real(N, k, i) + (i == 1)))
    code, out, err = run(["verify", "-k", "2", "-N", "60"])
    assert code == 1 and not err
    # the one line is the FAIL, before the k's formula line
    assert out == ("FAIL: vertex_fires(60, 2, 1): routes disagree: "
                   "vertex_fires 22, <lambda> 23\n")


def test_every_route_runs_in_the_product(monkeypatch):
    called = set()

    def counted(quantity, route):
        def wrapper(*args):
            called.add((quantity, route.__name__))
            return route(*args)
        wrapper.__name__ = route.__name__
        return wrapper

    for quantity, routes in formulas.ROUTES.items():
        monkeypatch.setitem(formulas.ROUTES, quantity,
                            tuple(counted(quantity, r) for r in routes))
    for argv in (["seq", "a", "-k", "3"], ["seq", "b", "-k", "3"], ["seq", "D", "-k", "3"],
                 ["seq", "d0", "-k", "3"], ["verify", "-k", "2", "-N", "10"]):
        assert run(argv)[0] == 0, argv
    assert called == {(quantity, r.__name__)
                      for quantity, routes in formulas.ROUTES.items() for r in routes}


def test_verify_fail_line_names_the_smallest_failing_pile(monkeypatch):
    # a node-level stream is wrong at N = 5 and a formula route at N = 9: the
    # one FAIL line is about N = 5, whichever check found it
    real_stream = engine.node_avalanche
    real_root_fires = formulas.root_fires

    def wrong_at_5(k, top, strategy, seed):
        for N, result in enumerate(real_stream(k, top, strategy, seed), 1):
            if N == 5:
                result = dataclasses.replace(result, total_fires=result.total_fires + 1)
            yield result

    monkeypatch.setattr(engine, "node_avalanche", wrong_at_5)
    monkeypatch.setitem(formulas.ROUTES, "root_fires",
                        (lambda N, k: real_root_fires(N, k) + (N == 9),
                         formulas.root_fires_rec))
    code, out, _ = run(["verify", "-k", "2", "-N", "12", "--strategies", "bfs"])
    assert code == 1
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert fail == ("FAIL: total_fires(5, 2): routes disagree: avalanche 2, "
                    "bfs seed 0 3, total_fires 2, total_fires_rec 2")


def test_verify_compares_a_run_from_zero_at_the_top_node_level_pile(monkeypatch):
    # a run wrong only when settled from zero shows at node-N, the one pile that
    # runs it, before a formula route wrong at a larger pile
    real_simulate = engine.simulate
    real_root_fires = formulas.root_fires

    def one_fire_too_many(N, k, **kw):
        result = real_simulate(N, k, **kw)
        return dataclasses.replace(result, total_fires=result.total_fires + 1)

    monkeypatch.setattr(engine, "simulate", one_fire_too_many)
    monkeypatch.setitem(formulas.ROUTES, "root_fires",
                        (lambda N, k: real_root_fires(N, k) + (N == 15),
                         formulas.root_fires_rec))
    code, out, err = run(["verify", "-k", "2", "-N", "20", "--strategies", "bfs",
                          "--node-N", "12"])
    assert code == 1 and not err
    total = format_int(formulas.total_fires(12, 2))
    assert out == (f"FAIL: total_fires(12, 2): routes disagree: avalanche {total}, "
                   f"bfs seed 0 {total}, bfs seed 0 from zero "
                   f"{format_int(formulas.total_fires(12, 2) + 1)}, "
                   f"total_fires {total}, total_fires_rec {total}\n")


def _off_by_one(route):
    return lambda *args: route(*args) + 1


def _one_root_fire_too_many(monkeypatch):
    real = engine._settle

    def broken(N, k, chips, fires, stack, steps, budget):
        steps = real(N, k, chips, fires, stack, steps, budget)
        fires[0] += 1
        return steps

    monkeypatch.setattr(engine, "_settle", broken)


def _wrong_fires_at_layer_2(monkeypatch):
    real = formulas._fires_by_layer
    monkeypatch.setattr(formulas, "_fires_by_layer",
                        lambda c, k: [f + (i == 1) for i, f in enumerate(real(c, k))])


def _wrong_digit_at_layer_2(monkeypatch):
    real = numerics.stable_config

    def wrong(N, k):
        c = real(N, k)
        return c[:1] + (c[1] % k + 1,) + c[2:]

    monkeypatch.setattr(numerics, "stable_config", wrong)


D5000 = "1" + "0" * 4999 + "7"


@pytest.mark.parametrize("argv,patch,named", [
    (["seq", "g0", "-k", "3", "-n", "4"],  # both d0 routes agree on a wrong value
     lambda mp: mp.setitem(formulas.ROUTES, "d0", (_off_by_one(formulas.d0_formula),) * 2),
     "g0(4, 3): routes disagree"),
    (["seq", "d0", "-k", "3", "-n", "4"],
     lambda mp: mp.setitem(formulas.ROUTES, "d0", (formulas.d0_formula,
                                                   _off_by_one(formulas.d0_recursive))),
     "d0(1, 3): routes disagree"),
    (["schizo", "-k", "10", "-n", "3", "-p", "5"],
     lambda mp: mp.setitem(formulas.ROUTES, "a", (formulas.a_closed,
                                                  _off_by_one(formulas.a_recursive))),
     "a(3, 10): routes disagree"),
    # the engine's own certificate rejects its run, from the first pile whose root tips
    (["verify", "-k", "2", "-N", "30"], _one_root_fire_too_many, "certify(3, 2): layer 1 "),
    (["verify", "-k", "2..3", "-N", "60"],
     lambda mp: mp.setitem(formulas.ROUTES, "root_fires",
                           (formulas.root_fires, _off_by_one(formulas.root_fires_rec))),
     "root_fires(1, 2): routes disagree"),
    (["fires", "-N", "100", "-k", "3"], _wrong_fires_at_layer_2,
     "certify(100, 3): layer 2 fires "),
    (["stable", "-N", "100", "-k", "3"], _wrong_digit_at_layer_2,
     "certify(100, 3): layer 2 holds 1 chips per vertex, not 3"),
    (["fires", "-N", "100", "-k", "3"], _wrong_digit_at_layer_2,  # chips named as chips
     "certify(100, 3): layer 2 holds 1 chips per vertex, not 3"),
    (["fires", "-N", D5000, "-k", "10"], _wrong_fires_at_layer_2,  # N printed in full
     f"certify({D5000}, 10): layer 2 fires "),
], ids=["seq-g0-window-end", "seq-d0-routes", "schizo-routes", "verify-engine",
        "verify-routes", "fires-certificate", "stable-certificate",
        "fires-certificate-wrong-digit", "fires-certificate-5000-digits"])
def test_every_disagreement_ends_in_one_fail_line(monkeypatch, argv, patch, named):
    patch(monkeypatch)
    code, out, err = run(argv)
    assert code == 1
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL: ")]
    assert fail.startswith(f"FAIL: {named}"), fail[:200]
    assert "Traceback" not in err


def test_verify_rejects_bad_ranges():
    code, _, err = run(["verify", "-k", "2", "-N", "0"])
    assert code == 2
    code, _, err = run(["verify", "-k", "1..3", "-N", "10"])
    assert code == 2
    for bad in ("2..", "2..3..4"):  # a malformed range is named, not an int() error
        code, out, err = run(["verify", "-k", bad, "-N", "3"])
        assert code == 2 and not out, bad
        assert err == f"error: bad k range '{bad}'; need 2 <= lo <= hi\n", bad
    code, _, err = run(["verify", "-k", "2", "-N", "10",
                        "--strategies", "sideways"])
    assert code == 2
    for option in (("--seeds", "0"), ("--seeds", "-1"), ("--node-N", "0")):
        code, out, err = run(["verify", "-k", "2", "-N", "5",
                              "--strategies", "bfs", *option])
        assert code == 2, option
        assert "error:" in err and not out, option


def test_k_range_is_lazy():
    ks = cli._parse_k_range("2..1" + "0" * 20)
    assert isinstance(ks, range)
    assert list(ks[:3]) == [2, 3, 4] and ks[-1] == 10**20


def test_schizo_table():
    code, out, _ = run(["schizo", "-k", "10", "-n", "11", "-p", "53"])
    assert code == 0
    assert ("111111.11110505555555539054166665767340972160955659283519805"
            in out)
    assert "digit 5 at offset 7, length 8" in out

    code, out, _ = run(["schizo", "-k", "10", "-n", "1", "-p", "5"])
    assert "1.00000" in out
    assert "no repeated-digit blocks" in out


def test_schizo_inverse_json():
    code, out, _ = run(["schizo", "-k", "10", "-n", "11", "-p", "64",
                        "--inverse", "-f", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["digits"] == ("0.00000900000000049050000004009837500364226"
                                 "90628473814118700156165")
    assert all(b["digit"] == 0 for b in payload["blocks"])
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out


def test_schizo_rejects_small_k():
    for k in ("0", "1", "-2"):
        code, out, err = run(["schizo", "-k", k, "-n", "3", "-p", "5"])
        assert code == 2, k
        assert "error: branching factor" in err and not out, k


def test_usage_errors_exit_two():
    assert run(["stable", "-N", "9"])[0] == 2  # missing -k
    assert run(["no-such-command"])[0] == 2
    assert run(["fires", "-N", "9" * 5000 + "x", "-k", "3"])[0] == 2  # past int()'s limit
    for fmt in ("table", "json", "bfile"):  # a header row is csv's alone
        code, out, err = run(["seq", "d0", "-k", "2", "-n", "3", "--header", "-f", fmt])
        assert (code, out) == (2, ""), fmt
        assert err == "error: --header needs --format csv\n", fmt


def test_arbitrary_precision_arguments():
    big = str(10**30)
    code, out, _ = run(["fires", "-N", big, "-k", "10", "-f", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 10**30
    assert payload["total_fires"] > 0


# integers past CPython's 4300-digit str/int limit, which stays on here
BIG_N, BIG_N_TEXT = 10**5000 - 1, "9" * 5000
BIG_K, BIG_K_TEXT = 10**1000, "1" + "0" * 1000  # n = 5 for BIG_N: the commands stay fast


def _json(out):
    return json.loads(out, parse_int=parse_int)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_fires_past_the_digit_limit(fmt):
    f = formulas.fire_profile(BIG_N, BIG_K)
    assert len(f) == 5
    code, out, _ = run(["fires", "-N", BIG_N_TEXT, "-k", BIG_K_TEXT,
                        "-f", fmt])
    assert code == 0
    lines = out.splitlines()
    if fmt == "json":
        payload = _json(out)
        assert (payload["N"], payload["k"], payload["n"]) == (BIG_N, BIG_K, 5)
        assert tuple(payload["fires_per_vertex"]) == f
        assert payload["root_fires"] == formulas.root_fires_rec(BIG_N, BIG_K)
        assert payload["total_fires"] == formulas.total_fires_rec(BIG_N, BIG_K)
    elif fmt == "csv":
        rows = [line.split(",") for line in lines[1:]]
        assert tuple(parse_int(fi) for _, fi in rows[:-1]) == f
        assert rows[-1] == ["total", format_int(formulas.total_fires_rec(BIG_N, BIG_K))]
    else:
        assert lines[0] == f"N = {BIG_N_TEXT}  k = {BIG_K_TEXT}  n = 5"
        assert parse_int(lines[-1].split(" = ")[1]) == formulas.total_fires_rec(BIG_N, BIG_K)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_stable_past_the_digit_limit(fmt):
    c = numerics.stable_config(BIG_N, BIG_K)
    code, out, _ = run(["stable", "-N", BIG_N_TEXT, "-k", BIG_K_TEXT,
                        "-f", fmt])
    assert code == 0
    digits = ".".join(str(ci - 1) for ci in reversed(c))
    if fmt == "json":
        payload = _json(out)
        assert (payload["N"], payload["k"], payload["n"]) == (BIG_N, BIG_K, 5)
        assert payload["digits"] == digits
        chips = payload["chips_per_vertex"]
    elif fmt == "csv":
        chips = [parse_int(line.split(",")[1]) for line in out.splitlines()[1:]]
    else:
        assert out.splitlines()[0].endswith(f"n = 5  digits = {digits}")
        chips = [parse_int(line.split()[2]) for line in out.splitlines()[1:]]
    assert tuple(chips) == c
    assert sum(c * BIG_K**i for i, c in enumerate(chips)) == BIG_N


@pytest.mark.parametrize("fmt", ["table", "csv", "json", "bfile"])
def test_seq_past_the_digit_limit(fmt):
    code, out, _ = run(["seq", "F_special", "-k", "10", "--start", "4400",
                        "-n", "3", "-f", fmt])
    assert code == 0
    if fmt == "json":
        pairs = [tuple(p) for p in _json(out)]
    elif fmt == "table":
        label, values = out.split(": ")
        assert label == "F_special (k = 10)"
        pairs = list(zip(range(4400, 4403), map(parse_int, values.split(", "))))
    else:
        sep = "," if fmt == "csv" else " "
        pairs = [tuple(map(parse_int, line.split(sep))) for line in out.splitlines()]
    # F_special(n+1) - F_special(n) = b(n): the recursion route, not the closed form
    base = formulas.special_total_fires(4400, 10)
    assert base > 10**4300
    assert pairs == [(4400, base), (4401, base + formulas.b_seq(4400, 10)),
                     (4402, base + formulas.b_seq(4400, 10) + formulas.b_seq(4401, 10))]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_schizo_past_the_digit_limit(fmt):
    value = formulas.a_seq(4401, 10)
    code, out, _ = run(["schizo", "-k", "10", "-n", "4401", "-p", "5", "-f", fmt])
    assert code == 0
    if fmt == "json":
        payload = _json(out)
        assert payload["value"] == value
        assert payload["subject"] == f"sqrt({format_int(value)})"
        digits = payload["digits"]
    else:
        lines = out.splitlines()
        assert lines[0] == f"a(4401, 10) = {format_int(value)}"
        subject, digits = lines[1].split(" = ")
        assert subject == f"sqrt({format_int(value)})"
    int_part, frac_part = digits.split(".")
    assert parse_int(int_part + frac_part) == isqrt(value * 10**10)
    assert digits == str(schizo.sqrt_digits(value, 5))


def test_no_int_typed_argument():
    # argparse's type=int calls int(), which refuses more than 4300 digits
    def actions(parser):
        for action in parser._actions:
            yield action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)

    typed = [a for a in actions(cli._build_parser()) if a.type is int]
    assert not typed, [a.option_strings for a in typed]


def test_digit_limit_is_never_lifted():
    # the limit is process-wide; the package must work with it on
    for path in Path(chipfire.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else "")
            assert name != "set_int_max_str_digits", (path.name, ast.dump(node))


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


def test_closed_stdout_exits_141_without_a_traceback():
    # `chipfire verify -k 2..10^20 -N 3 | head -1`: the reader leaves after one line
    with subprocess.Popen([sys.executable, "-m", "chipfire", "verify",
                           "-k", "2..100000000000000000000", "-N", "3"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline() == "k=2: formulas match engine for N=1..3\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == ""


def test_golden_cli_transcript(monkeypatch):
    # each argv runs through the recorder that wrote the file
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    transcript = json.loads((Path(__file__).parent / "golden" / "cli_transcript.json").read_text())
    changed = [(entry, now) for entry in transcript if (now := record(entry["argv"])) != entry]
    assert len(transcript) >= 80
    assert not changed, changed


@pytest.mark.parametrize("limit", ["640", "0"])  # the lowest limit, and none
def test_digit_limit_of_the_interpreter(limit):
    # the interpreter's current limit, not CPython's default, decides when
    # format_int and parse_int leave str() and int()
    script = ("import sys\n"
              "from chipfire import cli\n"
              "from chipfire.numerics import format_int, parse_int\n"
              "for n in (639, 640, 641):\n"
              "    for x, text in ((10**n - 1, '9' * n), (-10 ** (n - 1), '-1' + '0' * (n - 1))):\n"
              "        assert format_int(x) == text and parse_int(text) == x, n\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    N = int("7" * 2000)
    done = subprocess.run(
        [sys.executable, "-c", script, "fires", "-N", "7" * 2000, "-k", "10", "-f", "json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONINTMAXSTRDIGITS": limit})
    assert done.returncode == 0, done.stderr
    payload = _json(done.stdout)
    f = formulas.fire_profile(N, 10)
    assert (payload["N"], payload["k"], payload["n"]) == (N, 10, len(f))
    assert tuple(payload["fires_per_vertex"]) == f
    assert payload["total_fires"] == formulas.total_fires_rec(N, 10)
    assert len(str(f[0])) > 640  # past the lowest limit


def _layer_2_fires(N, k):
    fires = engine.simulate_layers(N, k).fires_by_layer
    return fires[1] if len(fires) > 1 else 0


def test_a_broken_avalanche_fails_at_the_first_pile_it_breaks(monkeypatch):
    # an avalanche that fires layer 2 twice or more fires it once more: the
    # stream's certificate rejects the first such pile, and verify stops there
    first = next(N for N in range(2, 100)
                 if _layer_2_fires(N, 3) - _layer_2_fires(N - 1, 3) >= 2)
    right = _layer_2_fires(first, 3)
    real = engine._settle

    def broken(N, k, chips, fires, stack, steps, budget):
        before = fires[1] if len(fires) > 1 else 0
        steps = real(N, k, chips, fires, stack, steps, budget)
        if len(fires) > 1 and fires[1] - before >= 2:
            fires[1] += 1
        return steps

    monkeypatch.setattr(engine, "_settle", broken)
    code, out, err = run(["verify", "-k", "3", "-N", "100", "--strategies", "bfs"])
    assert code == 1 and not err
    assert out == (f"FAIL: certify({first}, 3): layer 2 fires {right + 1} times per "
                   f"vertex, not {right}\n")


def test_every_total_is_the_certificates_sum(monkeypatch):
    # the engines and `fires` take the total fires from `certify`, so one wrong
    # sum there reaches both; verify holds it to the formula routes
    real = numerics.certify

    def one_too_many(N, k, c, f=None):
        result = real(N, k, c, f)
        return result and dataclasses.replace(result, total_fires=result.total_fires + 1)

    monkeypatch.setattr(engine, "certify", one_too_many)
    code, out, err = run(["verify", "-k", "2", "-N", "3"])
    assert code == 1 and not err
    assert out == ("FAIL: total_fires(1, 2): routes disagree: avalanche 1, "
                   "total_fires 0, total_fires_rec 0\n")
    monkeypatch.setattr(numerics, "certify", one_too_many)
    code, out, _ = run(["fires", "-N", "16", "-k", "2"])
    assert code == 0
    assert out.endswith(f"total fires = {formulas.total_fires_rec(16, 2) + 1}\n")
