"""Digit dumps of square roots of the a-sequence and their repeated-digit blocks.

Square roots of the odd-indexed a(n, k) are irrational yet open with long
runs of repeated digits separated by growing chaotic stretches; their
reciprocals show the same pattern with blocks of zeros.  Everything here is
exact integer arithmetic: a dump of p fractional digits is the floor of the
true value scaled by 10^p, so raising the precision extends the digits and
never rewrites them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

from .formulas import a_seq
from .numerics import DigitString, _require_at_least, _require_k, format_int, to_base

DEFAULT_MIN_RUN = 4


@dataclass(frozen=True)
class DigitDump:
    """Truncated positional expansion of an irrational (or integer) value."""

    subject: str
    int_part: DigitString
    frac_part: DigitString
    precision: int

    def __str__(self) -> str:
        return f"{self.int_part}.{self.frac_part}"


@dataclass(frozen=True)
class Block:
    digit: int
    start: int  # offset from the decimal point; 0 = first fractional digit,
    length: int  # negative starts reach back into the integer part


def _split_dump(subject: str, scaled: int, scale: int, precision: int,
                radix: int) -> DigitDump:
    whole, frac = divmod(scaled, scale)
    # a value below 1 dumps as 0.xxx: the shortest expansion of 0 is one 0
    return DigitDump(subject=subject, int_part=to_base(whole, radix),
                     frac_part=to_base(frac, radix, precision), precision=precision)


def _scale(x: int, precision: int, radix: int) -> int:
    """radix^precision, once x, precision and radix are checked."""
    _require_at_least("radix", radix, 2)
    _require_at_least("x", x, 1)
    _require_at_least("precision", precision, 1)
    return radix**precision


def sqrt_digits(x: int, precision: int, radix: int = 10) -> DigitDump:
    """First `precision` fractional digits of sqrt(x), truncated never rounded.

    Computes isqrt(x * radix^(2p)), which is exactly floor(sqrt(x) * radix^p).
    """
    scale = _scale(x, precision, radix)
    scaled = isqrt(x * scale * scale)
    return _split_dump(f"sqrt({format_int(x)})", scaled, scale, precision, radix)


def inv_sqrt_digits(x: int, precision: int, radix: int = 10) -> DigitDump:
    """First `precision` fractional digits of 1/sqrt(x), truncated.

    floor(radix^p / sqrt(x)) equals isqrt(floor(radix^(2p) / x)) because
    floor(sqrt(floor(y))) == floor(sqrt(y)) for y >= 0.
    """
    scale = _scale(x, precision, radix)
    scaled = isqrt(scale * scale // x)
    return _split_dump(f"1/sqrt({format_int(x)})", scaled, scale, precision, radix)


def block_report(dump: DigitDump, min_run: int = DEFAULT_MIN_RUN) -> tuple[Block, ...]:
    """Maximal repeated-digit runs of length >= min_run, in position order.

    Runs are found in the combined integer-and-fraction digit stream, so a
    block may begin left of the decimal point (negative start).  A run that
    reaches the last computed digit is withheld: it may continue at higher
    precision, so its maximality cannot be certified.  In particular a
    perfect square dumps as x.000...0 and reports no blocks.
    """
    _require_at_least("min_run", min_run, 2)
    digits = dump.int_part.digits + dump.frac_part.digits
    point = len(dump.int_part.digits)
    # one code point per distinct digit fits any radix in a str; DOTALL lets
    # "." match the digit that becomes "\n".  No run is longer than the text,
    # so a longer min_run is cut to that, within the regex repeat limit.
    code = {d: chr(i) for i, d in enumerate(set(digits))}
    text = "".join(map(code.__getitem__, digits))
    least = min(min_run, len(text) + 1)
    runs = re.finditer(rf"(.)\1{{{least - 1},}}", text, re.DOTALL)
    return tuple(Block(digit=digits[m.start()], start=m.start() - point,
                       length=m.end() - m.start())
                 for m in runs if m.end() < len(text))


@dataclass(frozen=True)
class SurveyEntry:
    n: int
    value: int
    root: DigitDump
    root_blocks: tuple[Block, ...]
    inverse: DigitDump
    inverse_blocks: tuple[Block, ...]


def schizo_survey(k: int, n_max: int, precision: int,
                  min_run: int = DEFAULT_MIN_RUN,
                  radix: int = 10) -> tuple[SurveyEntry, ...]:
    """Digit dumps and block reports for sqrt(a(n,k)) and its reciprocal.

    Covers odd n up to n_max; in base 10 those are the odd a-values, the
    schizophrenic candidates.  Purely observational: nothing here asserts a
    pattern, it only records one.  Pass radix=k to inspect the expansions in
    the tree's own base.
    """
    _require_k(k)
    _require_at_least("n_max", n_max, 1)
    entries = []
    for n in range(1, n_max + 1, 2):
        value = a_seq(n, k)
        root = sqrt_digits(value, precision, radix=radix)
        inverse = inv_sqrt_digits(value, precision, radix=radix)
        entries.append(SurveyEntry(
            n=n, value=value,
            root=root, root_blocks=block_report(root, min_run),
            inverse=inverse, inverse_blocks=block_report(inverse, min_run)))
    return tuple(entries)
