"""Exact big-integer base-k arithmetic.

Everything here is integer-only: repunits, the height index of a chip pile,
fixed-width digit expansions, trailing-zero valuations, and the map from a
chip count to its unique stable per-layer configuration.  No floating point
appears anywhere on a numeric path.

This module is the package's only conversion between integers and digits.
One divide-and-conquer splitter, `_split`, turns an integer into base-k
digits and its inverse, `_join`, turns digits back into an integer: a width
w splits into its low floor(w/2) digits and the rest at the power
k^floor(w/2), until a piece has at most 32 digits.  `to_base` and
`DigitString` wrap them with argument checks; `stable_config` and
`parse_int` call them directly, because the height index and the decimal
regex have already fixed the range of their digits.  `format_int`
and `parse_int` are the decimal text of every integer the package prints or
parses, messages included; they ask str() and int() first and use the
splitter only when those refuse a value past the interpreter's digit limit,
so no size of integer is refused and the limit is never read or lifted.
Every `need X >= lo, got v` check is one `_require_at_least` call, and every
integer in a message goes through `format_int`.

`certify` is the odometer certificate: a proof in O(n) big-integer steps
that given chips and fires per layer are a pile's outcome.  Without fires
its walk makes n divisions of integers up to n digits long, so it is
quadratic in the digits of N (see `certify`).  It returns that outcome as a
`SimResult`, the one shape of a pile's answer, which no other code builds.
Every engine run and every `stable` and `fires` answer of the CLI passes
through it, and every total fires that an engine returns or the CLI prints
is its sum.  Each check runs once: a wrong chip count, in or out of 1..k, is
named by one walk from the root, so of two faults the one nearer the root
is named.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

_DIGIT_CHARS = "0123456789abcdefghijklmnopqrstuvwxyz"
_LEAF = 32  # widest piece the splitter converts digit by digit
_DECIMAL = r"\s*([+-]?)([0-9]+(?:_[0-9]+)*)\s*"  # compiled on first use, not on import


def _require_at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"need {name} >= {format_int(least)}, got {format_int(value)}")


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {format_int(k)}")


def exact_div(num: int, den: int) -> int:
    """Divide, insisting on a zero remainder."""
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(f"{format_int(num)} is not divisible by {format_int(den)}")
    return q


@dataclass(frozen=True)
class DigitString:
    """A fixed-width digit sequence, most significant digit first.

    Leading zeros are allowed; `value()` reconstructs the integer exactly.
    """

    radix: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_at_least("radix", self.radix, 2)
        present = set(self.digits)  # at most radix values when every digit is in range
        if present and not 0 <= min(present) <= max(present) < self.radix:
            d = next(d for d in self.digits if not 0 <= d < self.radix)
            raise ValueError(f"digit {format_int(d)} out of range for radix "
                             f"{format_int(self.radix)}")

    def value(self) -> int:
        return _join(self.digits, self.radix)

    def __str__(self) -> str:
        if self.radix <= len(_DIGIT_CHARS):
            return "".join(_DIGIT_CHARS[d] for d in self.digits)
        return ".".join(map(format_int, self.digits))


@dataclass(frozen=True)
class SimResult:
    """A pile's certified outcome: the one shape of its answer.

    `stable_chips[i]` / `fires_by_layer[i]` refer to every vertex on layer
    i+1, for layers 1..n, each vertex holding 1..k chips.  Only `certify`
    builds one, so every entry point gives equal results for equal (N, k).
    """

    k: int
    n: int
    stable_chips: tuple[int, ...]
    fires_by_layer: tuple[int, ...]
    root_fires: int
    total_fires: int

    @property
    def steps(self) -> int:
        """Single-vertex fires of the run: `total_fires` under another name.

        The benchmark's tracer (`perfbench/tracing.py`) reads it.
        """
        return self.total_fires


def repunit(n: int, k: int) -> int:
    """1 + k + ... + k^(n-1), i.e. n ones in base k.  repunit(0, k) == 0."""
    _require_at_least("n", n, 0)
    _require_k(k)
    return (k**n - 1) // (k - 1)


def height_index(N: int, k: int) -> int:
    """The unique n with repunit(n, k) <= N < repunit(n+1, k).

    Equivalently k^n <= X < k^(n+1) for X = (k-1)N + 1.  With bits =
    X.bit_length() and b = k.bit_length(), 2^(b-1) <= k < 2^b brackets n
    exactly: k^lo < 2^(b*lo) <= X for lo = (bits-1) // b, and k^hi >=
    2^((b-1)*hi) > X for hi = ceil(bits / (b-1)).  Bisection between them
    compares exact powers, O(log n) big-integer steps; a power of two k needs
    none, because then k^n <= X exactly when (b-1)n < bits.  The boundary
    N == repunit(n, k) is where all downstream formulas switch, so no
    logarithm approximation is acceptable.
    """
    _require_k(k)
    if N < 1:
        raise ValueError(f"height index is undefined for N = {format_int(N)}; need N >= 1")
    x = (k - 1) * N + 1
    bits = x.bit_length()
    b = k.bit_length()
    if k & (k - 1) == 0:  # k = 2^(b-1)
        return (bits - 1) // (b - 1)
    lo, hi = (bits - 1) // b, -(-bits // (b - 1))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if k**mid <= x:
            lo = mid
        else:
            hi = mid
    return lo


@lru_cache(maxsize=64)
def _power(k: int, e: int) -> int:
    return k**e


def _split(x: int, k: int, width: int, out: list[int]) -> int:
    """Append the `width` lowest base-k digits of x to `out`, least
    significant first, and return x // k**width."""
    if width <= _LEAF:
        for _ in range(width):
            x, d = divmod(x, k)
            out.append(d)
        return x
    half = width // 2
    x, low = divmod(x, _power(k, half))
    _split(low, k, half, out)
    return _split(x, k, width - half, out)


def _join(digits: tuple[int, ...], k: int) -> int:
    """The integer whose base-k digits, most significant first, are `digits`."""
    if len(digits) <= _LEAF:
        v = 0
        for d in digits:
            v = v * k + d
        return v
    half = len(digits) // 2
    return (_join(digits[:-half], k) * _power(k, half)
            + _join(digits[-half:], k))


def to_base(x: int, k: int, width: int | None = None) -> DigitString:
    """Base-k expansion of x with exactly `width` digits (leading zeros ok).

    Without a width, the shortest expansion: no leading zero, and a single 0
    for x = 0.
    """
    _require_k(k)
    if x < 0:
        raise ValueError(f"cannot expand negative value {format_int(x)}")
    shortest = width is None
    if shortest:
        # k >= 2^(b-1) for b = k.bit_length(), so this many digits suffice
        width = x.bit_length() // (k.bit_length() - 1) + 1
    else:
        _require_at_least("width", width, 0)
    digits: list[int] = []
    if _split(x, k, width, digits):
        raise ValueError(f"width {format_int(width)} too small for value in base "
                         f"{format_int(k)}")
    if shortest:
        while len(digits) > 1 and digits[-1] == 0:
            digits.pop()
    digits.reverse()
    return DigitString(radix=k, digits=tuple(digits))


def format_int(x: int) -> str:
    """Decimal text of x, as str(x) gives it, at any size."""
    try:
        return str(x)
    except ValueError:  # past the interpreter's digit limit
        return ("-" if x < 0 else "") + str(to_base(abs(x), 10))


def parse_int(text: str) -> int:
    """The integer of a decimal literal, as int(text) reads it, at any length.

    Past the digit limit only ASCII digits are read, with an optional sign,
    single underscores between digits and surrounding whitespace.
    """
    try:
        return int(text)
    except ValueError:  # a malformed literal, or one past the digit limit
        pass
    match = re.fullmatch(_DECIMAL, text)
    if match is None:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    sign, body = match.groups()
    value = _join(tuple(ord(c) - 48 for c in body.replace("_", "")), 10)
    return -value if sign == "-" else value


def nu(x: int, k: int) -> int:
    """Largest e with k^e dividing x; the count of trailing zeros of x in base k."""
    _require_k(k)
    if x < 1:
        raise ValueError(f"trailing-zero count is undefined for x = {format_int(x)}")
    e = 0
    while x % k == 0:
        e += 1
        x //= k
    return e


@lru_cache(maxsize=1)
def stable_config(N: int, k: int) -> tuple[int, ...]:
    """Stable chips per vertex, by layer, for a pile of N chips dropped on the root.

    c[i] is the count on every vertex of layer i+1 (root = layer 1): one more
    than digit i of N - repunit(n, k) in base k, where n = len(c) is the
    height index of N.  Each c[i] lies in 1..k and sum c[i].k^i = N.  The
    height index already bounds N - repunit(n, k) below k^n, so its n digits
    come straight from the splitter, least significant first, which is the
    order of the layers from the root.  The last result is kept, so the
    closed forms asked about one pile share one configuration.
    """
    n = height_index(N, k)
    digits: list[int] = []
    _split(N - repunit(n, k), k, n, digits)
    return tuple(d + 1 for d in digits)


def _certifying(N: int, k: int) -> str:
    return f"certify({format_int(N)}, {format_int(k)})"


def certify(N: int, k: int, c, f=None) -> SimResult | None:
    """Prove that N chips stabilize to c per vertex by layer, firing f; else raise.

    The odometer certificate: O(n) big-integer steps, no simulation and no
    closed form.  Without f the walk below divides integers of up to n
    digits n times, so it is quadratic in the digits of N: for N = 77...7 on
    a 2-core Xeon (Python 3.11), 2.1, 146 and 1,294 ms at 10^3, 10^4 and
    3*10^4 digits for k = 2, and 0.5, 44 and 383 ms for k = 10.  With f the
    input itself is about n^2/2 digits, so the bottom-up pass is linear in
    it.  A failure raises AssertionError naming a layer whose
    equation fails and the pile.  With f it returns the pile's `SimResult`,
    whose total fires is sum f_i.k^i over the k^i vertices of each layer; it
    is the only code that builds one.  Without f it returns None.  Either
    way c must not be empty: a pile of N >= 1 chips holds some on layer 1,
    and an empty c is named by the walk below as N chips left for layer 1,
    or, for N = 0, as a pile without chips.

    With f: every c_i lies in 1..k, the last layer does not fire,
    f_(n-1) = 0, and N.e0 - L.f = c, where L is the layer matrix of
    `engine.simulate_layers`: row 0 is N - k.f_0 + k.f_1 = c_0 and row
    i > 0 is f_(i-1) - (k+1).f_i + k.f_(i+1) = c_i, with f_n = 0.  Nothing
    more is needed, f >= 0 included.
    Weighting row i by k^i telescopes the rows to
    sum c_i.k^i = N - k^n.f_(n-1) = N, and digits in 1..k make c the
    bijective base-k numeral of N, which is unique (k-adic notation;
    Smullyan, 1961).  L is a nonsingular M-matrix, so f = L^-1(N.e0 - c) is
    the only solution; the odometer, whose stable chips lie in 1..k and
    whose layer n never fires, is one, so f is the odometer.  This is the
    least action principle (Fey, Levine and Peres, J. Stat. Phys., 2010) in
    exact form.  Row i > 0 reads f_(i-1) - f_i = c_i + k.(f_i - f_(i+1)),
    so the rows are checked from the last layer up as differences, each
    fixing the fires of the layer above it.  The same loop sums the total
    by Horner's rule.  This bottom-up pass is the proof; it runs only when c
    is nonempty, in 1..k and as long as f, and names no fault.  A failure
    with f runs the check without f first, so a wrong chip count is named
    as chips, with or without f; with c right, row 0 follows from the other
    rows, and one wrong fire count is named at its own layer.

    Without f: c_i in 1..k and sum c_i.k^i = N, which by the same
    uniqueness make c the stable configuration.  The sum is Horner's rule
    read from the root: r = N, and each layer takes r to (r - c_i) / k,
    which must divide exactly and end at 0.  The same walk checks that c_i
    lies in 1..k before it divides.  So the first wrong digit, in range or
    not, is named at its layer: of two faults the one nearer the root.  The
    check shares no code with the conversion that `stable_config` runs
    (`_split`, `_join`, `_power`).
    """
    n = len(c)
    if f is not None and n and len(f) == n and not f[-1] and 1 <= min(c) and max(c) <= k:
        delta = 0  # f_i - f_(i+1), from i = n-1 up
        total = 0  # Horner's rule over f from the last layer up; f_(n-1) = 0 adds nothing
        for i in range(n - 1, 0, -1):
            delta = c[i] + k * delta  # row i fixes f_(i-1) - f_i
            if f[i - 1] - f[i] != delta:
                break
            total = total * k + f[i - 1]
        else:
            if N - k * delta == c[0]:  # row 0, with delta = f_0 - f_1
                return SimResult(k=k, n=n, stable_chips=tuple(c), fires_by_layer=tuple(f),
                                 root_fires=f[0], total_fires=total)
    # without f, or with f and a failed check: a wrong chip count is named first
    r = N
    for j, cj in enumerate(c):
        if not 1 <= cj <= k:
            raise AssertionError(f"{_certifying(N, k)}: layer {format_int(j + 1)} holds "
                                 f"{format_int(cj)} chips per vertex, outside "
                                 f"1..{format_int(k)}")
        r, rest = divmod(r - cj, k)
        if rest:
            digit = (cj + rest - 1) % k + 1  # the digit of 1..k that divides
            raise AssertionError(f"{_certifying(N, k)}: layer {format_int(j + 1)} "
                                 f"holds {format_int(cj)} chips per vertex, not "
                                 f"{format_int(digit)}")
    if r:  # N = sum c_i.k^i + r.k^n
        raise AssertionError(f"{_certifying(N, k)}: {format_int(r)} chips per vertex "
                             f"are left for layer {format_int(n + 1)}")
    if not n:  # N = 0
        raise AssertionError(f"{_certifying(N, k)}: no layer holds chips; a pile needs "
                             "N >= 1")
    if f is None:
        return None
    if len(f) != n:
        raise AssertionError(f"{_certifying(N, k)}: {format_int(len(f))} layers fire, "
                             f"{format_int(n)} hold chips")
    if f[-1]:
        raise AssertionError(f"{_certifying(N, k)}: layer {format_int(n)} fires "
                             f"{format_int(f[-1])} times per vertex, not 0")
    # c is N's, so rows 1..n-1 and f_(n-1) = 0 would make row 0 hold: row i broke
    raise AssertionError(f"{_certifying(N, k)}: layer {format_int(i)} fires "
                         f"{format_int(f[i - 1])} times per vertex, "
                         f"not {format_int(f[i] + delta)}")
