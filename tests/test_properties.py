"""Property-based checks that shrink a failure to a minimal (N, k).

Examples are derandomized and no example database is kept, so every run
draws the same cases and nothing is written into the checkout.
"""

import io
import json
import math
import random
import tempfile
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import dropwhile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from chipfire import engine, formulas
from chipfire.engine import (STRATEGIES, _odometer_floor, _priority, avalanche, simulate,
                             simulate_layers)
from chipfire.formulas import (fire_profile, root_fires, total_fires, total_fires_rec,
                               vertex_fires)
from chipfire.numerics import (DigitString, certify, format_int, height_index, parse_int,
                               repunit, stable_config, to_base)
from chipfire.schizo import (Block, BlockReport, DigitDump, block_report, inv_sqrt_digits,
                             sqrt_digits)
from chipfire.sequences import (SequenceId, SequenceWindow, difference, emit_bfile,
                                emit_csv, emit_json, generate)
from golden.make_cli_transcript import run


# Even without a database, Hypothesis caches the constants it mines from local
# source files in its home directory, .hypothesis/ in the working directory by
# default; its pytest plugin does so at collection, so set the home on import.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "chipfire-hypothesis")


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


@bounded(150)
@given(N=st.integers(1, 400), k=st.integers(2, 6),
       strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
def test_every_firing_order_is_confluent(N, k, strategy, seed):
    run = simulate(N, k, strategy=strategy, seed=seed)
    assert run == simulate(N, k)
    assert run == simulate_layers(N, k)


@bounded(150)
@given(N=st.integers(1, 2000), k=st.integers(2, 8))
def test_engines_and_formulas_give_one_answer(N, k):
    # both engines and the formula routes end in the one SimResult that certify builds
    assert simulate(N, k) == simulate_layers(N, k) == certify(
        N, k, stable_config(N, k), fire_profile(N, k))


@bounded(50)
@given(k=st.integers(2, 64), top=st.integers(0, 1500))
def test_avalanche_settles_every_pile_as_the_layer_engine_does(k, top):
    stream = list(avalanche(k, top))
    assert stream == [simulate_layers(N, k) for N in range(1, top + 1)]


def _one_fire_per_pop(N, k, strategy, seed):
    # the node loop that batch firing replaced, kept as the reference: each heap
    # pop fires one vertex once; (stable chips, fires) per layer
    n = height_index(N, k)
    key = _priority(strategy, seed)
    size = repunit(n, k)
    threshold = k + 1
    count_keyed = strategy == "max-chips"
    top = N if count_keyed else threshold  # no vertex ever holds more than N
    chips = [0] * size
    fires = [0] * size
    chips[0] = N
    heap = [(key(0, N), N, 0)] if N >= threshold else []
    while heap:
        _, count, v = heappop(heap)
        if chips[v] != count:
            if count_keyed:
                continue  # stale: v has gained or fired since this entry
            count = chips[v]
        assert v < size // k, "layer n fired"
        if v:
            count -= threshold
            parent = (v - 1) // k
            pv = chips[parent] + 1
            chips[parent] = pv
            if threshold <= pv <= top:
                heappush(heap, (key(parent, pv), pv, parent))
        else:
            count -= k
        chips[v] = count
        first = k * v + 1
        for child in range(first, first + k):
            cv = chips[child] + 1
            chips[child] = cv
            if threshold <= cv <= top:
                heappush(heap, (key(child, cv), cv, child))
        fires[v] += 1
        if count >= threshold:
            heappush(heap, (key(v, count), count, v))
    starts = [repunit(i, k) for i in range(n + 1)]
    for lo, hi in zip(starts, starts[1:]):
        assert len(set(chips[lo:hi])) == len(set(fires[lo:hi])) == 1
    return [chips[lo] for lo in starts[:-1]], [fires[lo] for lo in starts[:-1]]


@bounded(100)
@given(N=st.integers(1, 300), k=st.integers(2, 6),
       strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
def test_batch_firing_equals_one_fire_per_pop(N, k, strategy, seed):
    assert simulate(N, k, strategy=strategy, seed=seed) == certify(
        N, k, *_one_fire_per_pop(N, k, strategy, seed))


@lru_cache(maxsize=None)
def _unseeded_layers(N, k):
    # the batch loop from zero fires that the least-action seed replaced,
    # kept as the reference: (stable chips, fires) per layer
    n = height_index(N, k)
    chips = [N] + [0] * (n - 1)
    fires = [0] * n
    progressed = True
    while progressed:
        progressed = False
        for i, count in enumerate(chips):
            if count <= k:
                continue
            assert i + 1 < n, "layer n fired"
            if i == 0:
                t = (count - k - 1) // k + 1
                chips[0] = count - t * k
            else:
                t = (count - k - 1) // (k + 1) + 1
                chips[i] = count - t * (k + 1)
                chips[i - 1] += t * k
            chips[i + 1] += t
            fires[i] += t
            progressed = True
    return tuple(chips), tuple(fires)


# one pile of each depth the benchmark runs, drawn from a fixed seed
DEEP_PILES = [(random.Random(digits * k).randrange(10**(digits - 1), 10**digits), k)
              for digits in (50, 100, 200) for k in (2, 3, 10)]
deep_piles = pytest.mark.parametrize("N, k", DEEP_PILES,
                                     ids=[f"d{len(str(N))}k{k}" for N, k in DEEP_PILES])


def _assert_seeded_run_is_unseeded_run(N, k):
    run = simulate_layers(N, k)
    assert (run.stable_chips, run.fires_by_layer) == _unseeded_layers(N, k)


@bounded(80)
@given(N=st.integers(1, 10**40 - 1), k=st.integers(2, 64))
def test_seeded_layer_engine_equals_the_unseeded_batch_loop(N, k):
    _assert_seeded_run_is_unseeded_run(N, k)


@deep_piles
def test_seeded_layer_engine_equals_the_unseeded_batch_loop_on_deep_piles(N, k):
    _assert_seeded_run_is_unseeded_run(N, k)


class _CountingStack(list):
    pops = 0

    def pop(self, *args):
        self.pops += 1
        return super().pop(*args)


@deep_piles
def test_the_layer_engine_fires_few_batches_on_deep_piles(monkeypatch, N, k):
    # deepest eligible layer first: measured at most 0.107 n^2 batches here,
    # where root-down sweeps of every layer fired 0.24 n^2 or more
    real = engine._settle
    stacks = []

    def counting(N, k, chips, fires, stack, steps, budget):
        stacks.append(_CountingStack(stack))
        return real(N, k, chips, fires, stacks[-1], steps, budget)

    monkeypatch.setattr(engine, "_settle", counting)
    n = simulate_layers(N, k).n
    (stack,) = stacks
    assert 100 * stack.pops <= 12 * n * n


@pytest.mark.parametrize("k", [2, 3, 10])
def test_layer_engine_equals_the_closed_forms_at_1000_digits(k):
    N = random.Random(1000 * k).randrange(10**999, 10**1000)
    run = simulate_layers(N, k)
    assert run == certify(N, k, stable_config(N, k), fire_profile(N, k))


def _assert_seed_is_a_close_lower_bound(N, k):
    n = height_index(N, k)
    u0 = _odometer_floor(N, k, n)
    # x = L^-1 (N e0 - k 1) by shooting down from x_0, with B_i = k^i (x_i - x_0)
    B = [0, k - N]
    for i in range(1, n):
        B.append((k + 1) * B[i] - k * B[i - 1] + k**(i + 1))
    x = [Fraction(B[i] * k**(n - i) - B[n], k**n) for i in range(n)]
    u = x[:1] + x + [0]  # the root is its own parent; x_n = 0
    minus_Lx = [u[i] - (k + 1) * u[i + 1] + k * u[i + 2] for i in range(n)]
    assert minus_Lx == [k - N] + [k] * (n - 1)
    assert u0 == [max(0, math.floor(xi)) for xi in x]
    gap = [f - s for f, s in zip(_unseeded_layers(N, k)[1], u0)]
    assert min(gap) >= 0
    # measured: at most 0.5625 n^2 (N = 67, k = 3) at n <= 12, 0.22-0.27 n^2 deep
    assert sum(gap) <= n * n


@bounded(80)
@given(N=st.integers(1, 10**40 - 1), k=st.integers(2, 64))
def test_least_action_seed_is_a_close_lower_bound(N, k):
    _assert_seed_is_a_close_lower_bound(N, k)


@deep_piles
def test_least_action_seed_is_a_close_lower_bound_on_deep_piles(N, k):
    _assert_seed_is_a_close_lower_bound(N, k)


@bounded(300)
@given(N=st.integers(1, 10**60 - 1), k=st.integers(2, 64))
def test_stable_config_conserves_chips(N, k):
    assert sum(c * k**i for i, c in enumerate(stable_config(N, k))) == N


@bounded(300)
@given(N=st.integers(1, 10**80 - 1), k=st.integers(2, 64), data=st.data())
def test_fire_counts_equal_their_definitional_sums(N, k, data):
    # the per-term sums over the stable digits that the linear passes replace
    c = stable_config(N, k)
    n = len(c)
    power = [k**j for j in range(n)]
    repunit = [(p - 1) // (k - 1) for p in power]
    f = tuple(sum(repunit[j] * c[i + j] for j in range(1, n - i)) for i in range(n))
    root = sum((power[j] - 1) * c[j] for j in range(1, n)) // (k - 1)
    total = sum((m * power[m] * k - (m + 1) * power[m] + 1) * c[m]
                for m in range(1, n)) // (k - 1) ** 2

    profile = fire_profile(N, k)
    assert profile == f
    assert total_fires_rec(N, k) == total
    assert root_fires(N, k) == root == f[0]
    assert total_fires(N, k) == total
    i = data.draw(st.integers(0, n - 1), label="layer")
    assert vertex_fires(N, k, i) == f[i]
    if i < n - 1:
        delta = sum(power[j - i - 1] * c[j] for j in range(i + 1, n))
        assert profile[i] - profile[i + 1] == delta


@bounded(100)
@given(N=st.integers(10**49, 10**200 - 1), k=st.integers(2, 64), data=st.data())
def test_certificate_accepts_the_outcome_and_names_one_wrong_layer(N, k, data):
    c, f = stable_config(N, k), fire_profile(N, k)
    assert certify(N, k, c) is None
    assert certify(N, k, c, f).total_fires == total_fires(N, k) == total_fires_rec(N, k)
    i = data.draw(st.integers(0, len(c) - 1), label="layer")
    step = data.draw(st.sampled_from((-1, 1)), label="step")
    with pytest.raises(AssertionError, match=rf"^certify\(\d+, {k}\): layer {i + 1} fires "):
        certify(N, k, c, f[:i] + (f[i] + step,) + f[i + 1:])
    digit = (c[i] + step - 1) % k + 1  # another digit of 1..k
    with pytest.raises(AssertionError, match=rf"^certify\(\d+, {k}\): layer {i + 1} holds "):
        certify(N, k, c[:i] + (digit,) + c[i + 1:])
    with pytest.raises(AssertionError):
        certify(N, k, c[:i] + (digit,) + c[i + 1:], f)


def _repunit_by_loop(n, k):
    # the O(n) loops that the closed-form repunit and the bisected height
    # index replaced, kept as the reference
    r = 0
    for _ in range(n):
        r = r * k + 1
    return r


def _height_index_by_loop(N, k):
    n, nxt = 1, k + 1
    while nxt <= N:
        n, nxt = n + 1, nxt * k + 1
    return n


WIDE_K = st.integers(2, 64) | st.integers(2, 10**40) | st.integers(1, 133).map(lambda e: 2**e)


@bounded(300)
@given(N=st.integers(1, 10**300 - 1), k=WIDE_K)
def test_height_index_equals_the_repunit_loop(N, k):
    assert height_index(N, k) == _height_index_by_loop(N, k)


@bounded(200)
@given(n=st.integers(0, 400), k=WIDE_K)
def test_height_index_switches_exactly_at_each_repunit(n, k):
    r = _repunit_by_loop(n, k)
    assert repunit(n, k) == r
    for N in (r - 1, r, r + 1):
        if N >= 1:
            assert height_index(N, k) == _height_index_by_loop(N, k)


@bounded(12)
@given(digits=st.integers(4_290, 4_310) | st.integers(9_990, 10_010),
       k=st.integers(2, 64) | st.integers(10**40 - 64, 10**40), seed=st.integers(0, 2**64))
def test_height_index_past_the_digit_limit(digits, k, seed):
    N = random.Random(seed).randrange(10**(digits - 1), 10**digits)
    n = _height_index_by_loop(N, k)
    assert height_index(N, k) == n
    r = _repunit_by_loop(n, k)
    assert repunit(n, k) == r
    assert [height_index(x, k) for x in (r - 1, r, r + 1)] == [n - 1, n, n]


# the per-term closed forms that the streamed windows replaced, the reference
PER_TERM = {
    "g0": lambda m, k: root_fires(m * k, k),
    "G": lambda m, k: total_fires(m * k, k),
    "f0_raw": root_fires,
    "F_raw": total_fires,
}


@st.composite
def streamed_windows(draw):
    name = draw(st.sampled_from(sorted(PER_TERM)))
    k = draw(st.integers(2, 64) | st.integers(10**30 - 64, 10**30 + 64))
    if draw(st.booleans()):
        start = draw(st.integers(1, 10**40 - 1))
    else:  # straddle a repunit, where d0 and D take their peaks
        start = repunit(draw(st.integers(1, _height_index_by_loop(10**40, k))), k) - 2
    if name.endswith("_raw"):  # indices are piles; a block starts at 1 (mod k)
        start += draw(st.sampled_from((0, 1))) - start % k
    return name, k, max(start, 1), draw(st.integers(1, 300))


@bounded(150)
@given(window=streamed_windows(), diff=st.booleans())
def test_streamed_windows_equal_the_per_term_closed_forms(window, diff):
    name, k, start, count = window
    got = generate(SequenceId(name, k), start=start, count=count)
    want = tuple(PER_TERM[name](i, k) for i in range(start, start + count))
    assert got.values == want
    if diff and count > 1:
        assert difference(got).values == tuple(b - a for a, b in zip(want, want[1:]))


@pytest.mark.parametrize("name,quantity", [("g0", "d0"), ("f0_raw", "d0"),
                                           ("G", "D"), ("F_raw", "D")])
@pytest.mark.parametrize("start", [5, 10**4400], ids=["small", "past-digit-limit"])
def test_streamed_window_end_catches_routes_that_agree_on_a_wrong_value(
        monkeypatch, name, quantity, start):
    route = formulas.ROUTES[quantity][0]

    def off_by_one(m, k):
        return route(m, k) + 1

    # both routes agree, so crosscheck passes every increment; the sum drifts
    monkeypatch.setitem(formulas.ROUTES, quantity, (off_by_one, off_by_one))
    end = start + 5
    with pytest.raises(AssertionError) as exc:
        generate(SequenceId(name, 3), start=start, count=6)
    message = str(exc.value)
    assert message.startswith(f"{name}({format_int(end)}, 3): routes disagree: streamed ")
    assert message.endswith(f", closed form {format_int(PER_TERM[name](end, 3))}")


def _digits_one_at_a_time(x, k, width):
    # the per-digit divmod loop the splitter replaced, kept as the reference
    digits = []
    for _ in range(width):
        x, d = divmod(x, k)
        digits.append(d)
    assert x == 0
    return tuple(reversed(digits))


# any width, plus the edges of the splitter's 32-digit leaf and the top of the range
@bounded(40)
@given(k=st.integers(2, 36) | st.just(1000),
       width=st.integers(0, 12_000) | st.sampled_from([32, 33, 64, 65, 12_000]),
       seed=st.integers(0, 2**64), data=st.data())
def test_base_k_digits_round_trip(k, width, seed, data):
    x = random.Random(seed).randrange(k**width)
    zeros = data.draw(st.integers(0, width), label="leading zeros")
    x //= k**zeros
    ds = to_base(x, k, width)
    assert ds.digits == _digits_one_at_a_time(x, k, width)
    assert ds.digits[:zeros] == (0,) * zeros
    assert ds.value() == x
    assert to_base(x, k).digits == (tuple(dropwhile(lambda d: d == 0, ds.digits)) or (0,))
    with pytest.raises(ValueError):
        to_base(x + k**width, k, width)


@bounded(40)
@given(n=st.integers(4_290, 4_310) | st.integers(9_990, 10_010),
       seed=st.integers(0, 2**64), negative=st.booleans())
def test_decimal_text_round_trips_across_the_digit_limit(n, seed, negative):
    x = random.Random(seed).randrange(10**(n - 1), 10**n) * (-1 if negative else 1)
    text = format_int(x)
    assert text == str(Decimal(x))  # decimal's own conversion has no digit limit
    assert len(text.lstrip("-")) == n
    assert parse_int(text) == x
    assert parse_int(f" {text[:-1]}_{text[-1]}\n") == x


@bounded(60)
@given(x=st.integers(1, 10**40), p=st.integers(1, 2_000), q=st.integers(1, 2_000),
       radix=st.integers(2, 16))
def test_digit_dumps_extend_without_rewriting(x, p, q, radix):
    for dump in (sqrt_digits, inv_sqrt_digits):
        assert str(dump(x, p + q, radix)).startswith(str(dump(x, p, radix)))


def _blocks_one_digit_at_a_time(dump, min_run):
    # the per-digit walk that the regex scan replaced, kept as the reference
    stream = dump.int_part.digits + dump.frac_part.digits
    point = len(dump.int_part.digits)
    blocks = []
    i = 0
    while i < len(stream):
        j = i
        while j < len(stream) and stream[j] == stream[i]:
            j += 1
        if j == len(stream):
            break
        if j - i >= min_run:
            blocks.append(Block(digit=stream[i], start=i - point, length=j - i))
        i = j
    return BlockReport(blocks=tuple(blocks))


@st.composite
def digit_dumps(draw):
    # runs of drawn lengths, so that blocks of 2..6 are common, equal neighbours
    # merge, and runs touch both ends and cross the point; with 11 distinct
    # digits one of them is written as "\n", and 2^40 is past every code point
    radix = draw(st.sampled_from([*range(2, 17), 2**40]), label="radix")
    digit = st.integers(0, radix - 1)
    if radix > 16:  # equal neighbours, and digit 10, as often as in a small radix
        digit = st.sampled_from([0, 10, radix - 1]) | digit
    count = draw(st.integers(2, 40), label="runs")  # lists alone draw few runs
    runs = draw(st.lists(st.tuples(digit, st.integers(1, 8)), min_size=count, max_size=count))
    stream = tuple(d for d, length in runs for _ in range(length))
    point = draw(st.integers(1, len(stream) - 1), label="integer digits")
    return DigitDump(subject="x", int_part=DigitString(radix=radix, digits=stream[:point]),
                     frac_part=DigitString(radix=radix, digits=stream[point:]),
                     precision=len(stream) - point)


@bounded(150)
@given(dump=digit_dumps(), min_run=st.integers(2, 6))
def test_block_scan_equals_the_per_digit_walk(dump, min_run):
    assert block_report(dump, min_run) == _blocks_one_digit_at_a_time(dump, min_run)


@bounded(60)
@given(start=st.integers(1, 10**30),
       values=st.lists(st.integers(0, 10**40) | st.integers(0, 2**64).map(
           lambda seed: random.Random(seed).randrange(10**5_000)), min_size=1, max_size=8))
def test_emitters_parse_back_to_the_window(start, values):
    window = SequenceWindow(id=SequenceId(name="x", k=2), start=start, values=tuple(values))
    pairs = list(enumerate(values, start))
    out = {}
    for fmt, emit in (("bfile", emit_bfile), ("csv", emit_csv), ("json", emit_json)):
        sink = io.StringIO()
        emit(window, sink)
        out[fmt] = sink.getvalue()
    assert [tuple(map(parse_int, line.split(" "))) for line in out["bfile"].splitlines()] == pairs
    assert [tuple(map(parse_int, line.split(","))) for line in out["csv"].splitlines()] == pairs
    assert [tuple(p) for p in json.loads(out["json"], parse_int=parse_int)] == pairs
    if all(v < 10**4300 for v in values):
        assert out["json"] == json.dumps([list(p) for p in pairs], separators=(",", ":")) + "\n"
        assert out["bfile"] == "".join(f"{i} {v}\n" for i, v in pairs)


# every integer option with a lower bound, the bad value in its place
BAD_OPTIONS = [
    ("stable", "-N", "{}", "-k", "3"), ("stable", "-N", "5", "-k", "{}"),
    ("fires", "-N", "{}", "-k", "3"), ("fires", "-N", "5", "-k", "{}"),
    ("seq", "g0", "-k", "{}"), ("seq", "g0", "-k", "2", "-n", "{}"),
    ("seq", "g0", "-k", "2", "--start", "{}"),
    ("schizo", "-k", "{}", "-n", "2", "-p", "5"), ("schizo", "-k", "3", "-n", "{}", "-p", "5"),
    ("schizo", "-k", "3", "-n", "2", "-p", "{}"),
    ("schizo", "-k", "3", "-n", "2", "-p", "5", "--min-run", "{}"),
    ("verify", "-k", "2", "-N", "{}"), ("verify", "-k", "2", "-N", "3", "--seeds", "{}"),
    ("verify", "-k", "2", "-N", "3", "--node-N", "{}"),
]


def _cli(template, value):
    return run([format_int(value) if part == "{}" else part for part in template])


@pytest.mark.parametrize("template", BAD_OPTIONS, ids=lambda t: t[0] + t[t.index("{}") - 1])
@bounded(3)
@given(near=st.integers(4_290, 4_310), far=st.integers(9_990, 10_010),
       seed=st.integers(0, 2**64))
def test_bad_arguments_name_themselves_at_any_size(template, near, far, seed):
    # the message of a bad value of any length is the message of a small one,
    # on both sides of the 4300-digit limit
    code, out, err = _cli(template, -7)
    assert code == 2 and not out and err.count("-7") == 1, err
    rng = random.Random(seed)
    for digits in (near, far):
        value = -rng.randrange(10**(digits - 1), 10**digits)
        assert _cli(template, value) == (2, "", err.replace("-7", format_int(value)))
