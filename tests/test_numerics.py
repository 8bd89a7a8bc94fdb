import ast
import random
from pathlib import Path

import pytest

import chipfire
from chipfire import engine, formulas, schizo
from chipfire.numerics import (
    DigitString,
    SimResult,
    certify,
    exact_div,
    height_index,
    format_int,
    nu,
    parse_int,
    repunit,
    stable_config,
    to_base,
)
from chipfire.sequences import SequenceId, generate


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


def test_parse_int_reads_what_int_reads():
    # below the digit limit int() decides, down to its message
    assert parse_int("٣٣") == 33
    assert parse_int(" 1_000\n") == 1000
    with pytest.raises(ValueError) as expected:
        int("12x")
    with pytest.raises(ValueError) as got:
        parse_int("12x")
    assert str(got.value) == str(expected.value)


def test_parse_int_names_a_long_malformed_literal_in_full():
    # int() cuts the literal in its message at 200 characters; parse_int does not
    text = "1" * 299 + "x"
    with pytest.raises(ValueError) as exc:
        parse_int(text)
    assert str(exc.value) == f"invalid literal for int() with base 10: {text!r}"


def test_to_base_round_trip():
    rng = random.Random(20250810)
    for k in range(2, 12):
        for width in range(1, 9):
            for _ in range(30):
                x = rng.randrange(k**width)
                ds = to_base(x, k, width)
                assert len(ds.digits) == width
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
    assert stable_config(9, 3) == (3, 2)
    for k in range(2, 8):
        assert stable_config(k, k) == (k,)
        for n in range(1, 7):
            assert stable_config(repunit(n, k), k) == (1,) * n


def test_stable_config_conserves_chips_and_bounds():
    for k in range(2, 7):
        for N in range(1, 2001):
            chips = stable_config(N, k)
            assert sum(c * k**i for i, c in enumerate(chips)) == N
            assert all(1 <= c <= k for c in chips)
            assert len(chips) == height_index(N, k)


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


def test_exact_div():
    assert exact_div(72, 6) == 12
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def _outcome(N, k):
    """The stable chips and the fires per layer of N chips, by the formulas."""
    return stable_config(N, k), formulas.fire_profile(N, k)


def test_certify_accepts_every_outcome():
    for k in (2, 3, 4, 10):
        for N in range(1, 1500):
            c, f = _outcome(N, k)
            assert certify(N, k, c) is None
            assert certify(N, k, c, f) == SimResult(
                k=k, n=len(c), stable_chips=c, fires_by_layer=f, root_fires=f[0],
                total_fires=sum(fi * k**i for i, fi in enumerate(f)))


def test_certify_names_the_layer_of_a_wrong_fire_count():
    for k in (2, 3, 10):
        for N in range(1, 1500, 7):
            c, f = _outcome(N, k)
            for i in range(len(f)):
                for step in (-1, 1):
                    wrong = f[:i] + (f[i] + step,) + f[i + 1:]
                    with pytest.raises(AssertionError, match=(
                            rf"^certify\({N}, {k}\): layer {i + 1} fires "
                            rf"{f[i] + step} times per vertex, not {f[i]}$")):
                        certify(N, k, c, wrong)


def test_certify_names_the_layer_of_a_wrong_digit():
    for k in (2, 3, 10):
        for N in range(1, 1500, 7):
            c, _ = _outcome(N, k)
            for i in range(len(c)):
                for ci in range(0, k + 2):
                    if ci == c[i]:
                        continue
                    why = "outside 1" if not 1 <= ci <= k else f"not {c[i]}$"
                    with pytest.raises(AssertionError, match=(
                            rf"^certify\({N}, {k}\): layer {i + 1} holds {ci} chips "
                            rf"per vertex, {why}")):
                        certify(N, k, c[:i] + (ci,) + c[i + 1:])


@pytest.mark.parametrize("args,message", [
    ((5, 2, ()), "5 chips per vertex are left for layer 1"),
    ((5, 2, (), ()), "5 chips per vertex are left for layer 1"),
    ((6, 2, (1, 2), (2, 0)), "layer 1 holds 1 chips per vertex, not 2"),  # N = 5's
    ((9, 3, (3, 2), (2, 1)), "layer 2 fires 1 times per vertex, not 0"),  # f_(n-1) != 0
    ((9, 3, (3, 4), (2, 0)), "layer 2 holds 4 chips per vertex, outside 1..3"),
    ((9, 3, (3, 0)), "layer 2 holds 0 chips per vertex, outside 1..3"),
    ((9, 3, (3, 2), (2,)), "1 layers fire, 2 hold chips"),
    # (3, 2) holds 3 + 2*3 = 9 chips
    ((18, 3, (3, 2)), "1 chips per vertex are left for layer 3"),
    ((0, 3, (3, 2)), "-1 chips per vertex are left for layer 3"),
    ((9, 3, (3, 2, 1)), "layer 3 holds 1 chips per vertex, not 3"),
    ((0, 2, (), ()), "no layer holds chips; a pile needs N >= 1"),
    ((0, 2, ()), "no layer holds chips; a pile needs N >= 1"),
])
def test_certify_rejects(args, message):
    with pytest.raises(AssertionError) as exc:
        certify(*args)
    N, k = args[:2]
    assert str(exc.value) == f"certify({N}, {k}): {message}"


# one integer past CPython's 4300-digit str/int limit, and its text
BIG, BIG_TEXT = 10**5001 - 1, "9" * 5001
NEG, NEG_TEXT = -BIG, "-" + BIG_TEXT
RANGE_CHECKS = [  # (id, call, its message)
    ("height_index", lambda: height_index(NEG, 3),
     f"height index is undefined for N = {NEG_TEXT}; need N >= 1"),
    ("repunit-n", lambda: repunit(NEG, 2),
     f"need n >= 0, got {NEG_TEXT}"),
    ("repunit-k", lambda: repunit(3, NEG),
     f"branching factor must be >= 2, got {NEG_TEXT}"),
    ("to_base-x", lambda: to_base(NEG, 10),
     f"cannot expand negative value {NEG_TEXT}"),
    ("to_base-width", lambda: to_base(5, 10, NEG),
     f"need width >= 0, got {NEG_TEXT}"),
    ("DigitString-radix", lambda: DigitString(radix=NEG, digits=()),
     f"need radix >= 2, got {NEG_TEXT}"),
    ("DigitString-digit", lambda: DigitString(radix=10, digits=(BIG,)),
     f"digit {BIG_TEXT} out of range for radix 10"),
    ("nu", lambda: nu(NEG, 2),
     f"trailing-zero count is undefined for x = {NEG_TEXT}"),
    ("exact_div", lambda: exact_div(BIG, 2),
     f"{BIG_TEXT} is not divisible by 2"),
    ("vertex_fires", lambda: formulas.vertex_fires(9, 3, BIG),
     f"layer index {BIG_TEXT} out of range for height index 2"),
    ("vertex_fires_via_root", lambda: formulas.vertex_fires_via_root(9, 3, BIG),
     f"layer index {BIG_TEXT} out of range for height index 2"),
    ("special_vertex_fires", lambda: formulas.special_vertex_fires(3, 2, BIG),
     f"layer index {BIG_TEXT} out of range for height index 3"),
    ("root_fires", lambda: formulas.root_fires(NEG, 2),
     f"height index is undefined for N = {NEG_TEXT}; need N >= 1"),
    ("root_fires_rec", lambda: formulas.root_fires_rec(NEG, 2),
     f"need N >= 1, got {NEG_TEXT}"),
    ("total_fires_rec", lambda: formulas.total_fires_rec(NEG, 2),
     f"need N >= 1, got {NEG_TEXT}"),
    ("root_fires_rec-k1", lambda: formulas.root_fires_rec(10**3, 1),
     "branching factor must be >= 2, got 1"),
    ("root_fires_rec-k0", lambda: formulas.root_fires_rec(10**3, 0),
     "branching factor must be >= 2, got 0"),
    ("root_fires_rec-k-2", lambda: formulas.root_fires_rec(10**3, -2),
     "branching factor must be >= 2, got -2"),
    ("total_fires_rec-k1", lambda: formulas.total_fires_rec(10**3, 1),
     "branching factor must be >= 2, got 1"),
    ("total_fires_rec-k0", lambda: formulas.total_fires_rec(10**3, 0),
     "branching factor must be >= 2, got 0"),
    ("total_fires_rec-k-2", lambda: formulas.total_fires_rec(10**3, -2),
     "branching factor must be >= 2, got -2"),
    ("special_root_fires", lambda: formulas.special_root_fires(NEG, 3),
     f"need n >= 1, got {NEG_TEXT}"),
    ("special_total_fires", lambda: formulas.special_total_fires(NEG, 3),
     f"need n >= 1, got {NEG_TEXT}"),
    ("divisibility_check", lambda: formulas.divisibility_check(NEG, 3),
     f"need j >= 0, got {NEG_TEXT}"),
    ("a_seq-n", lambda: formulas.a_seq(NEG, 3),
     f"need n >= 1, got {NEG_TEXT}"),
    ("b_seq", lambda: formulas.b_seq(NEG, 3),
     f"need n >= 1, got {NEG_TEXT}"),
    ("a_seq-k", lambda: formulas.a_seq(3, NEG),
     f"branching factor must be >= 2, got {NEG_TEXT}"),
    ("d0_formula", lambda: formulas.d0_formula(NEG, 2),
     f"need m >= 1, got {NEG_TEXT}"),
    ("d0_recursive", lambda: formulas.d0_recursive(NEG, 2),
     f"need m >= 1, got {NEG_TEXT}"),
    ("D_recursive", lambda: formulas.D_recursive(NEG, 2),
     f"need m >= 1, got {NEG_TEXT}"),
    ("D_explicit", lambda: formulas.D_explicit(NEG, 2),
     f"need m >= 1, got {NEG_TEXT}"),
    ("D_diff", lambda: formulas.D_diff(NEG, 2),
     f"need m >= 1, got {NEG_TEXT}"),
    ("d0_by_replacement", lambda: formulas.d0_by_replacement(NEG, 2),
     f"need count >= 1, got {NEG_TEXT}"),
    ("simulate-N", lambda: engine.simulate(NEG, 2),
     f"height index is undefined for N = {NEG_TEXT}; need N >= 1"),
    ("simulate_layers", lambda: engine.simulate_layers(NEG, 2),
     f"height index is undefined for N = {NEG_TEXT}; need N >= 1"),
    ("avalanche-top", lambda: next(engine.avalanche(2, NEG)),
     f"need top >= 0, got {NEG_TEXT}"),
    ("avalanche-k", lambda: next(engine.avalanche(NEG, 5)),
     f"branching factor must be >= 2, got {NEG_TEXT}"),
    ("node_avalanche-top", lambda: next(engine.node_avalanche(2, NEG)),
     f"need top >= 0, got {NEG_TEXT}"),
    ("node_avalanche-k", lambda: next(engine.node_avalanche(NEG, 5)),
     f"branching factor must be >= 2, got {NEG_TEXT}"),
    ("simulate-size", lambda: engine.simulate(BIG + 1, 10),
     f"N=1{'0' * 5001}, k=10 touches about {'1' * 5001} nodes (budget 10000000)"),
    ("sqrt_digits-x", lambda: schizo.sqrt_digits(NEG, 5),
     f"need x >= 1, got {NEG_TEXT}"),
    ("sqrt_digits-precision", lambda: schizo.sqrt_digits(5, NEG),
     f"need precision >= 1, got {NEG_TEXT}"),
    ("inv_sqrt_digits-x", lambda: schizo.inv_sqrt_digits(NEG, 5),
     f"need x >= 1, got {NEG_TEXT}"),
    ("inv_sqrt_digits-precision", lambda: schizo.inv_sqrt_digits(5, NEG),
     f"need precision >= 1, got {NEG_TEXT}"),
    ("sqrt_digits-radix", lambda: schizo.sqrt_digits(5, 3, radix=NEG),
     f"need radix >= 2, got {NEG_TEXT}"),
    ("inv_sqrt_digits-radix", lambda: schizo.inv_sqrt_digits(5, 3, radix=NEG),
     f"need radix >= 2, got {NEG_TEXT}"),
    ("block_report", lambda: schizo.block_report(schizo.sqrt_digits(2, 5), NEG),
     f"need min_run >= 2, got {NEG_TEXT}"),
    ("schizo_survey", lambda: schizo.schizo_survey(3, NEG, 5),
     f"need n_max >= 1, got {NEG_TEXT}"),
    ("schizo_survey-radix", lambda: schizo.schizo_survey(3, 5, 5, radix=NEG),
     f"need radix >= 2, got {NEG_TEXT}"),
    ("generate-count", lambda: generate(SequenceId("g0", 3), count=NEG),
     f"need count >= 1, got {NEG_TEXT}"),
    ("generate-start", lambda: generate(SequenceId("g0", 3), start=NEG),
     f"sequences are 1-indexed; got start {NEG_TEXT}"),
]


@pytest.mark.parametrize("call,message",
                         [pytest.param(call, message, id=i) for i, call, message in RANGE_CHECKS])
def test_messages_carry_integers_past_the_digit_limit(call, message):
    with pytest.raises((ValueError, ArithmeticError)) as exc:
        call()
    assert str(exc.value) == message


def test_crosscheck_names_values_past_the_digit_limit(monkeypatch):
    monkeypatch.setitem(formulas.ROUTES, "d0", (lambda m, k: BIG, lambda m, k: BIG - 1))
    with pytest.raises(AssertionError) as exc:
        formulas.crosscheck("d0", NEG, 2)
    assert str(exc.value) == (f"d0({NEG_TEXT}, 2): routes disagree: "
                              f"<lambda> {BIG_TEXT}, <lambda> {BIG_TEXT[:-1]}8")


# (module, placeholder) pairs of a message that hold text, never an integer
TEXT_PLACEHOLDERS = {
    ("numerics.py", "name"),  # _require_at_least: the parameter or option name
    ("numerics.py", "text"),  # parse_int: the rejected literal
    ("cli.py", "text"),  # _decimal, _parse_k_range, _check_value: the rejected argument
    ("cli.py", "choice"),  # _Parser._check_value: a subcommand or format name
    ("engine.py", "strategy"),  # _priority: the rejected strategy name
    ("engine.py", "STRATEGIES"),  # _priority: the tuple of strategy names
    ("formulas.py", "quantity"),  # _agree: a ROUTES key or a compared field
    ("formulas.py", "label"),  # _agree: a route's label
    ("sequences.py", "name"),  # _require_name: the rejected sequence id
    ("sequences.py", "', '.join(SEQUENCE_NAMES)"),  # _require_name: the ids
}


def _is_format_int(value):
    """format_int(x), or sep.join(map(format_int, xs))."""
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id == "format_int"
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
            and value.func.attr == "join" and len(value.args) == 1
            and isinstance(value.args[0], ast.Call)
            and ast.unparse(value.args[0]).startswith("map(format_int, "))


def _message_problems(path):
    """Integers a raised message may turn into text without format_int.

    A message is the expression of a raise, plus the text it interpolates from
    a local name or from a call of a function of the same module: the
    assignments to that name and that function's return values, which must
    themselves be text and are checked the same way.
    """
    tree = ast.parse(path.read_text())
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    todo = [(node, f) for f in functions.values()
            for node in ast.walk(f) if isinstance(node, ast.Raise)]
    seen, found = set(), []
    while todo:
        message, scope = todo.pop()
        if id(message) in seen:
            continue
        seen.add(id(message))
        for part in ast.walk(message):
            if isinstance(part, ast.FormattedValue):
                value, built = part.value, []
                if isinstance(value, ast.Name):
                    built = [(a.value, scope) for a in ast.walk(scope)
                             if isinstance(a, ast.Assign)
                             and any(isinstance(t, ast.Name) and t.id == value.id
                                     for t in a.targets)]
                elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                      and value.func.id in functions and value.func.id != "format_int"):
                    callee = functions[value.func.id]
                    built = [(r.value, callee) for r in ast.walk(callee)
                             if isinstance(r, ast.Return) and r.value is not None]
                # f-strings and joins are text; what they interpolate is checked
                text = all(isinstance(b, ast.JoinedStr) or _is_format_int(b)
                           or isinstance(b, ast.Call) and isinstance(b.func, ast.Attribute)
                           and b.func.attr == "join" for b, _ in built)
                bad = not (_is_format_int(value)
                           or (path.name, ast.unparse(value)) in TEXT_PLACEHOLDERS
                           or built and text)
                todo += built
            elif isinstance(part, ast.Name):  # str(x), repr(x), map(str, xs)
                bad = part.id in ("str", "repr")
            elif isinstance(part, ast.Attribute):  # "...".format(x)
                bad = part.attr == "format"
            else:  # "..." % x
                bad = isinstance(part, ast.BinOp) and isinstance(part.op, ast.Mod)
            if bad:
                found.append(f"{path.name}:{part.lineno}: {ast.unparse(part)}")
    return found


def test_raised_messages_format_no_bare_integer():
    # str() and repr() of an int past the digit limit raise in place of the
    # message, so every integer in a message goes through format_int
    found = [problem for path in sorted(Path(chipfire.__file__).parent.glob("*.py"))
             for problem in _message_problems(path)]
    assert not found, found


@pytest.mark.parametrize("source,flagged", [
    ("def f(x):\n    raise ValueError(f'bad {x}')", True),
    ("def f(x):\n    raise ValueError(f'bad {x!r}')", True),
    ("def f(x):\n    raise ValueError(f'bad {x - 1}')", True),
    ("def f(x):\n    raise ValueError(f'bad {len(x)}')", True),
    ("def f(x):\n    d = f'{x}'\n    raise ValueError(f'bad {d}')", True),
    ("def f(x):\n    d = x + 1\n    raise ValueError(f'bad {d}')", True),
    ("def g(x):\n    return f'{x}'\ndef f(x):\n    raise ValueError(f'bad {g(x)}')", True),
    ("def f(x):\n    raise ValueError('bad ' + str(x))", True),
    ("def f(x):\n    d = ', '.join(map(str, x))\n    raise ValueError(f'bad {d}')", True),
    ("def f(x):\n    raise ValueError('bad {}'.format(x))", True),
    ("def f(x):\n    raise ValueError('bad %d' % x)", True),
    ("def f(x):\n    raise ValueError(f'bad {format_int(x - 1)}')", False),
    ("def f(x):\n    raise ValueError(f'bad {\", \".join(map(format_int, x))}')", False),
    ("def f(x):\n    d = f'{format_int(x)}'\n    raise ValueError(f'bad {d}')", False),
    ("def g(x):\n    return f'{format_int(x)}'\n"
     "def f(x):\n    raise ValueError(f'bad {g(x)}')", False),
])
def test_message_guard_sees_every_integer(tmp_path, source, flagged):
    path = tmp_path / "formulas.py"
    path.write_text(source)
    assert bool(_message_problems(path)) == flagged


def test_message_guard_allows_text_only_where_listed(tmp_path):
    source = "def f(name):\n    raise ValueError(f'bad {name}')"
    for module, flagged in (("numerics.py", False), ("formulas.py", True)):
        path = tmp_path / module
        path.write_text(source)
        assert bool(_message_problems(path)) == flagged
