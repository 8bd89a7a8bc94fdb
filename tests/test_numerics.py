import random

import pytest

from chipfire.numerics import (
    DigitString,
    StableConfig,
    exact_div,
    height_index,
    format_int,
    nu,
    parse_int,
    repunit,
    stable_config,
    to_base,
)


@pytest.mark.parametrize("n,k,expected", [
    (0, 2, 0),
    (0, 7, 0),
    (4, 2, 15),
    (3, 3, 13),
    (1, 9, 1),
    (6, 10, 111111),
])
def test_repunit(n, k, expected):
    assert repunit(n, k) == expected


def test_repunit_is_ones_in_base_k():
    for k in range(2, 8):
        for n in range(1, 10):
            assert str(to_base(repunit(n, k), k, n)) == "1" * n


@pytest.mark.parametrize("N,k,expected", [
    (9, 3, 2),
    (1, 2, 1),
    (1, 5, 1),
    (15, 2, 4),
    (2, 2, 1),
    (3, 2, 2),
])
def test_height_index(N, k, expected):
    assert height_index(N, k) == expected


def test_height_index_rejects_zero():
    with pytest.raises(ValueError):
        height_index(0, 3)


def test_height_index_monotone_and_steps_at_repunits():
    for k in range(2, 7):
        prev = height_index(1, k)
        for N in range(2, 4000):
            n = height_index(N, k)
            assert n >= prev
            if n != prev:
                assert n == prev + 1
                assert N == repunit(n, k)
            prev = n


@pytest.mark.parametrize("x,k,width,expected", [
    (5, 3, 2, "12"),
    (0, 2, 3, "000"),
    (0, 5, 3, "000"),
    (7, 2, 3, "111"),
])
def test_to_base(x, k, width, expected):
    assert str(to_base(x, k, width)) == expected


def test_to_base_rejects_narrow_width():
    with pytest.raises(ValueError):
        to_base(9, 3, 2)


@pytest.mark.parametrize("n", [4299, 4300, 4301])
def test_decimal_text_at_the_digit_limit(n):
    # int() and str() take 4300 digits, no more; the splitter takes the rest
    for x, text in ((10**n - 1, "9" * n), (10 ** (n - 1), "1" + "0" * (n - 1))):
        assert format_int(x) == text
        assert parse_int(text) == x
        assert format_int(-x) == "-" + text and parse_int("-" + text) == -x


@pytest.mark.parametrize("text", ["12" * 2200 + "a", "_" + "1" * 5000, "1" * 2500 + "__2" * 900,
                                  "+-" + "1" * 5000, "1" * 2500 + " " + "1" * 2500, "٣" * 5000])
def test_parse_int_rejects_long_malformed_text(text):
    with pytest.raises(ValueError, match="invalid literal"):
        parse_int(text)


def test_to_base_round_trip():
    rng = random.Random(20250810)
    for k in range(2, 12):
        for width in range(1, 9):
            for _ in range(30):
                x = rng.randrange(k**width)
                ds = to_base(x, k, width)
                assert len(ds) == width
                assert ds.value() == x
    # and a couple of big ones
    for _ in range(20):
        x = rng.getrandbits(300)
        assert to_base(x, 7, 200).value() == x


@pytest.mark.parametrize("x,k,expected", [
    (8, 2, 3),
    (5, 3, 0),
    (21, 3, 1),  # nu_3((3-1)*10 + 1); pins d0(10, 3) == 2 downstream
    (81, 3, 4),
    (100, 10, 2),
])
def test_nu(x, k, expected):
    assert nu(x, k) == expected


def test_nu_rejects_zero():
    with pytest.raises(ValueError):
        nu(0, 2)


def test_nu_brute_force():
    for k in range(2, 7):
        for x in range(1, 2000):
            e = 0
            y = x
            while y % k == 0:
                e += 1
                y //= k
            assert nu(x, k) == e


def test_stable_config_examples():
    assert stable_config(9, 3).c == (3, 2)
    for k in range(2, 8):
        assert stable_config(k, k).c == (k,)
        for n in range(1, 7):
            assert stable_config(repunit(n, k), k).c == (1,) * n


def test_stable_config_conserves_chips_and_bounds():
    for k in range(2, 7):
        for N in range(1, 2001):
            cfg = stable_config(N, k)
            assert cfg.total_chips() == N
            assert all(1 <= c <= k for c in cfg.c)
            assert cfg.n == height_index(N, k)


def test_trailing_ones_remark():
    # away from repunits, nu_k(N - repunit(n,k)) == nu_k(N(k-1) + 1)
    for k in range(2, 7):
        n, r, nxt = 1, 1, k + 1
        for N in range(1, 100001):
            if N == nxt:
                n, r, nxt = n + 1, nxt, nxt * k + 1
            if N != r:
                assert nu(N - r, k) == nu(N * (k - 1) + 1, k), (N, k)


def test_digit_string_validation():
    with pytest.raises(ValueError):
        DigitString(radix=1, digits=(0,))
    with pytest.raises(ValueError):
        DigitString(radix=3, digits=(0, 3))
    assert str(DigitString(radix=16, digits=(15, 0, 10))) == "f0a"


def test_stable_config_validation():
    with pytest.raises(ValueError):
        StableConfig(k=3, n=2, c=(0, 1))
    with pytest.raises(ValueError):
        StableConfig(k=3, n=1, c=(1, 1))


def test_exact_div():
    assert exact_div(72, 6) == 12
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)
