import random
from math import isqrt

import pytest

from chipfire.formulas import a_seq
from chipfire.numerics import DigitString
from chipfire.schizo import (
    Block,
    DigitDump,
    block_report,
    inv_sqrt_digits,
    schizo_survey,
    sqrt_digits,
)

A11 = 12345679011            # a(11, 10)
A19 = 1234567901234567899    # a(19, 10)

# published decimal expansions, truncated exactly as printed
SQRT_A11 = "111111.11110505555555539054166665767340972160955659283519805"
SQRT_A19 = ("1111111111.11111111010555555555555555510054166666666666625487"
            "909722222222175")
INV_A11 = "0.0000090000000004905000000400983750036422690628473814118700156165"
INV_A19 = "0.0000000009000000000000000008145000000000000011056837500000000016"


def _frac_len(s: str) -> int:
    return len(s.split(".")[1])


def test_a_values():
    assert a_seq(11, 10) == A11
    assert a_seq(19, 10) == A19


@pytest.mark.parametrize("x,fixture", [(A11, SQRT_A11), (A19, SQRT_A19)])
def test_sqrt_fixtures(x, fixture):
    assert str(sqrt_digits(x, _frac_len(fixture))) == fixture


@pytest.mark.parametrize("x,fixture", [(A11, INV_A11), (A19, INV_A19)])
def test_inv_sqrt_fixtures(x, fixture):
    assert str(inv_sqrt_digits(x, _frac_len(fixture))) == fixture


def test_trivial_dumps():
    assert str(sqrt_digits(4, 5)) == "2.00000"
    assert str(inv_sqrt_digits(1, 8)) == "1.00000000"
    assert str(sqrt_digits(2, 10)) == "1.4142135623"


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sqrt_digits(0, 5)
    with pytest.raises(ValueError):
        sqrt_digits(4, 0)
    with pytest.raises(ValueError):
        inv_sqrt_digits(0, 5)


def test_digit_stability_when_precision_grows():
    for x in (A11, A19, 2, 3, 97):
        for p in (10, 40):
            for extra in (1, 7, p):
                short = sqrt_digits(x, p)
                long = sqrt_digits(x, p + extra)
                assert str(long).startswith(str(short))
                short_i = inv_sqrt_digits(x, p)
                long_i = inv_sqrt_digits(x, p + extra)
                assert str(long_i).startswith(str(short_i))


def test_isqrt_contract():
    # s = isqrt(y) must satisfy s^2 <= y < (s+1)^2
    rng = random.Random(5)
    for _ in range(300):
        y = rng.getrandbits(512)
        s = isqrt(y)
        assert s * s <= y < (s + 1) * (s + 1)
    for base in (10**6, 31337, 2**100):
        for y in (base * base - 1, base * base, base * base + 1):
            s = isqrt(y)
            assert s * s <= y < (s + 1) * (s + 1)


def test_block_report_first_example():
    blocks = block_report(sqrt_digits(A11, _frac_len(SQRT_A11)), min_run=4)
    assert Block(digit=5, start=7, length=8) in blocks
    assert Block(digit=6, start=21, length=4) in blocks
    # ten leading ones, counted across the decimal point
    assert blocks[0] == Block(digit=1, start=-6, length=10)


def test_block_report_second_example():
    blocks = block_report(sqrt_digits(A19, _frac_len(SQRT_A19)), min_run=6)
    assert [(b.digit, b.length) for b in blocks] == [
        (1, 18), (5, 16), (6, 12), (2, 8)]
    lengths = [b.length for b in blocks]
    assert lengths == sorted(lengths, reverse=True)


def test_block_report_inverse_blocks_are_zeros():
    for x, fixture in ((A11, INV_A11), (A19, INV_A19)):
        blocks = block_report(inv_sqrt_digits(x, _frac_len(fixture)), min_run=4)
        assert blocks
        assert all(b.digit == 0 for b in blocks)


def test_block_report_edge_cases():
    distinct = DigitDump(subject="x", int_part=DigitString(10, (7,)),
                         frac_part=DigitString(10, (1, 2, 3, 4, 5, 6)),
                         precision=6)
    assert block_report(distinct, min_run=2) == ()
    # a perfect square's zero tail touches the window edge: not reportable
    assert block_report(sqrt_digits(4, 10), min_run=2) == ()
    assert block_report(sqrt_digits(1, 10), min_run=2) == ()
    with pytest.raises(ValueError):
        block_report(distinct, min_run=1)


def test_block_report_min_run_as_long_as_the_dump():
    ones = DigitDump(subject="x", int_part=DigitString(10, (1, 1, 1, 1)),
                     frac_part=DigitString(10, (2,)), precision=1)
    assert block_report(ones, min_run=4) == (Block(digit=1, start=-4, length=4),)
    # no run outlasts the dump, so a longer min_run, past the regex repeat limit
    # too, finds nothing
    for min_run in (5, 6, 10**30):
        assert block_report(ones, min_run=min_run) == ()

def test_survey_covers_examples():
    entries = schizo_survey(10, 11, 60, min_run=4)
    assert [e.n for e in entries] == [1, 3, 5, 7, 9, 11]
    last = entries[-1]
    assert last.value == A11
    assert str(last.root).startswith(SQRT_A11)
    assert any(b.digit == 5 and b.length == 8 for b in last.root_blocks)

    trivial = schizo_survey(10, 1, 10, min_run=2)
    assert len(trivial) == 1
    assert str(trivial[0].root) == "1.0000000000"
    assert trivial[0].root_blocks == ()


def test_survey_other_bases_are_consistent():
    # no published digits for base 3; check the extension invariant instead
    short = schizo_survey(3, 9, 40, min_run=4)
    long = schizo_survey(3, 9, 80, min_run=4)
    for a, b in zip(short, long):
        assert str(b.root).startswith(str(a.root))
        assert str(b.inverse).startswith(str(a.inverse))


def test_survey_in_native_radix():
    entries = schizo_survey(3, 5, 30, min_run=3, radix=3)
    for e in entries:
        assert e.root.frac_part.radix == 3
        assert len(e.root.frac_part.digits) == 30
