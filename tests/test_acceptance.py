"""Acceptance suite: one test per criterion, zero tolerance throughout.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass/fail lines.
"""

import hashlib
import io
import time
from contextlib import contextmanager
from pathlib import Path

from chipfire.engine import STRATEGIES, simulate, simulate_layers
from chipfire.formulas import (
    ROUTES,
    b_seq,
    d0_by_replacement,
    d0_formula,
    d0_recursive,
    divisibility_check,
    fire_profile,
    root_fires,
    special_total_fires,
    total_fires,
)
from chipfire.numerics import stable_config
from chipfire.schizo import inv_sqrt_digits, sqrt_digits
from chipfire.sequences import (
    SequenceId,
    emit_bfile,
    generate,
    reference_fixtures,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.1f}s): {description}")


def test_criterion_1_oracle_equivalence():
    with criterion(1, "engine agrees with every formula, k=2..6, N=1..2000"):
        for k in range(2, 7):
            for N in range(1, 2001):
                sim = simulate_layers(N, k)
                profile = fire_profile(N, k)
                assert sim.stable_chips == stable_config(N, k).c, (N, k)
                assert sim.fires_by_layer == profile.f, (N, k)
                assert sim.root_fires == root_fires(N, k), (N, k)
                assert sim.total_fires == total_fires(N, k), (N, k)


def test_criterion_2_confluence():
    with criterion(2, "3 strategies x 5 seeds give identical results, "
                      "k=2..4, N=1..300"):
        for k in (2, 3, 4):
            for N in range(1, 301):
                first = None
                for strategy in STRATEGIES:
                    for seed in range(5):
                        result = simulate(N, k, strategy=strategy, seed=seed)
                        if first is None:
                            first = result
                        else:
                            assert result == first, (N, k, strategy, seed)


def test_criterion_3_table_regressions():
    with criterion(3, "all 213 table values reproduce exactly"):
        table_counts = {"g0": 0, "G": 0, "D": 0, "a": 0}
        for fx in reference_fixtures():
            if "table" not in fx.source and "distinct D values" not in fx.source:
                continue
            got = generate(fx.window.id, start=fx.window.start,
                           count=len(fx.window.values))
            assert got.values == fx.window.values, fx.source
            table_counts[fx.window.id.name] += len(fx.window.values)
        assert table_counts == {"g0": 50, "G": 50, "D": 50, "a": 63}


def test_criterion_4_sequence_listings():
    with criterion(4, "every published sequence prefix reproduces exactly"):
        expected_lengths = {
            ("g0", 3): 14, ("d0", 2): 18, ("d0", 3): 23,
            ("G", 2): 14, ("G", 3): 19,
            ("f0_special", 2): 10, ("F_special", 4): 12, ("F_special", 5): 11,
            ("D", 2): 15, ("D", 3): 19,
        }
        seen = {}
        for fx in reference_fixtures():
            if "prefix" not in fx.source and "piles 2^n - 1" not in fx.source:
                continue
            key = (fx.window.id.name, fx.window.id.k)
            got = generate(fx.window.id, count=len(fx.window.values))
            assert got.values == fx.window.values, fx.source
            seen[key] = len(fx.window.values)
        assert seen == expected_lengths


def test_criterion_5_identity_suite():
    with criterion(5, "closed forms, recursions, and constructions agree"):
        for quantity in ("root_fires", "total_fires"):
            for k in range(2, 11):
                for N in range(1, 10001):
                    values = {route(N, k) for route in ROUTES[quantity]}
                    assert len(values) == 1, (quantity, N, k)
        for k in (2, 3, 4, 5):
            replaced = d0_by_replacement(10000, k)
            for m in range(1, 10001):
                v = d0_formula(m, k)
                assert v == d0_recursive(m, k) == replaced[m - 1], (m, k)
        for k in (2, 3, 4, 5, 6):
            for m in range(1, 10001):
                assert len({route(m, k) for route in ROUTES["D"]}) == 1, (m, k)
        for k in range(2, 11):
            running = 0
            for n in range(1, 31):
                running += b_seq(n, k)
                assert running == special_total_fires(n + 1, k), (n, k)
        for k in range(2, 11):
            for j in range(0, 11):
                assert divisibility_check(j, k), (j, k)


def test_criterion_6_schizophrenic_fixtures():
    with criterion(6, "all four digit strings reproduce byte-exactly"):
        a11 = 12345679011
        a19 = 1234567901234567899
        fixtures = (
            (sqrt_digits, a11,
             "111111.11110505555555539054166665767340972160955659283519805"),
            (sqrt_digits, a19,
             "1111111111.111111110105555555555555555100541666666666666254879"
             "09722222222175"),
            (inv_sqrt_digits, a11,
             "0.0000090000000004905000000400983750036422690628473814118700156165"),
            (inv_sqrt_digits, a19,
             "0.0000000009000000000000000008145000000000000011056837500000000016"),
        )
        for fn, x, printed in fixtures:
            precision = len(printed.split(".")[1])
            assert str(fn(x, precision)) == printed
            doubled = str(fn(x, 2 * precision))
            assert doubled.startswith(printed)


def test_criterion_7_bfile_checksums():
    with criterion(7, "golden b-files byte-identical, checksums pinned"):
        golden = (
            ("g0", 3, 14, "bfile_g0_k3.txt",
             "183fec81d3474536498c8524d6e3671ed4b321c4d03141c4649200fc3c964cb3"),
            ("d0", 2, 18, "bfile_d0_k2.txt",
             "1fe34e61b48a650147e4401002305f4d7e93f16c91de9b2cf055e34dd7c862d9"),
            ("D", 3, 19, "bfile_D_k3.txt",
             "b27af0309ae704948fd037d1ff2be4e3f95278722b155570b0ff012d79f86135"),
        )
        for name, k, count, fname, digest in golden:
            sink = io.StringIO()
            emit_bfile(generate(SequenceId(name, k), count=count), sink)
            data = sink.getvalue()
            assert data == (GOLDEN_DIR / fname).read_text()
            assert hashlib.sha256(data.encode("ascii")).hexdigest() == digest
