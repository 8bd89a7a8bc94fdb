import pytest

from chipfire import formulas, numerics
from chipfire.engine import simulate, simulate_layers
from chipfire.formulas import (
    ROUTES,
    D_diff,
    a_seq,
    b_seq,
    d0,
    d0_by_replacement,
    d0_formula,
    d0_recursive,
    divisibility_check,
    fire_profile,
    root_fires,
    root_fires_rec,
    special_root_fires,
    special_total_fires,
    special_vertex_fires,
    total_fires,
    total_fires_rec,
    vertex_fires,
    vertex_fires_via_root,
)
from chipfire.numerics import height_index, repunit, stable_config


def test_vertex_fires_examples():
    assert vertex_fires(9, 3, 0) == 2
    for N, k in [(9, 3), (100, 2), (40, 3), (77, 4)]:
        n = height_index(N, k)
        assert vertex_fires(N, k, n - 1) == 0
    # oracle: simulate(15, 2) gives f = (11, 4, 1, 0)
    assert simulate(15, 2).fires_by_layer == (11, 4, 1, 0)
    assert vertex_fires(15, 2, 1) == 4


def test_vertex_fires_rejects_bad_layer():
    with pytest.raises(ValueError):
        vertex_fires(9, 3, 2)
    with pytest.raises(ValueError):
        vertex_fires(9, 3, -1)


def _fires_difference(N, k, i):
    # f_i - f_(i+1) by its definition: the chips below one layer-(i+1) vertex
    # in the stable configuration, divided by k
    c = stable_config(N, k).c
    return sum(k ** (j - i - 1) * c[j] for j in range(i + 1, len(c)))


def test_fires_difference_examples():
    for N, k in [(20, 2), (50, 3), (90, 4)]:
        n = height_index(N, k)
        f = fire_profile(N, k).f
        last = vertex_fires(N, k, n - 2) - vertex_fires(N, k, n - 1)
        assert f[n - 2] - f[n - 1] == _fires_difference(N, k, n - 2) == last
    f = fire_profile(9, 3).f
    assert f[0] - f[1] == 2  # 2 - 0
    f = fire_profile(15, 2).f
    assert f[0] - f[1] == 7  # 11 - 4 per the oracle


def test_fires_difference_matches_vertex_fires():
    for k in (2, 3, 4):
        for N in range(1, 400):
            n = height_index(N, k)
            for i in range(n - 1):
                assert _fires_difference(N, k, i) == (
                    vertex_fires(N, k, i) - vertex_fires(N, k, i + 1))


def test_telescoping_differences():
    for k in (2, 3, 5):
        for N in (19, 86, 121, 900):
            n = height_index(N, k)
            for i in range(n):
                total = sum(_fires_difference(N, k, t) for t in range(i, n - 1))
                assert vertex_fires(N, k, i) == total


def test_vertex_fires_via_root():
    assert vertex_fires_via_root(15, 2, 1) == root_fires(7, 2) == 4
    assert vertex_fires_via_root(9, 3, 1) == 0
    assert ROUTES["vertex_fires"] == (vertex_fires, vertex_fires_via_root)
    for k in (2, 3, 4, 6):
        for N in range(1, 300):
            n = height_index(N, k)
            for i in range(n):
                assert formulas.crosscheck("vertex_fires", N, k, i) == vertex_fires(N, k, i)


def test_root_fires_examples():
    assert root_fires(9, 3) == 2
    assert root_fires(16, 2) == 11
    for k in (2, 3, 7):
        for N in range(1, k + 1):
            assert root_fires(N, k) == 0


def test_root_fires_recursion():
    assert root_fires_rec(0, 2) == 0
    assert root_fires_rec(0, 9) == 0
    assert root_fires_rec(9, 3) == 2
    assert root_fires_rec(20, 2) == 14


def test_total_fires_examples():
    assert total_fires(16, 2) == 23
    assert total_fires(15, 3) == 8
    for k in (2, 4, 10):
        for N in range(1, k + 1):
            assert total_fires(N, k) == 0


def test_total_fires_recursion():
    assert total_fires_rec(0, 5) == 0
    assert total_fires_rec(24, 4) == 10
    assert total_fires_rec(12, 2) == 11


def test_closed_forms_equal_recursions():
    for quantity in ("root_fires", "total_fires"):
        for k in range(2, 8):
            for N in range(1, 1500):
                assert len({route(N, k) for route in ROUTES[quantity]}) == 1, (
                    quantity, N, k)


def test_formulas_match_engine():
    for k in (2, 3, 4):
        for N in range(1, 300):
            sim = simulate_layers(N, k)
            assert sim.root_fires == root_fires(N, k)
            assert sim.total_fires == total_fires(N, k)
            for i, f in enumerate(sim.fires_by_layer):
                assert f == vertex_fires(N, k, i)


def test_block_constancy():
    # every quantity is constant on N in {ak+1, ..., (a+1)k}
    for k in (2, 3, 5):
        for a in range(0, 60):
            base = fire_profile(a * k + 1, k)
            for N in range(a * k + 2, (a + 1) * k + 1):
                p = fire_profile(N, k)
                assert p.f == base.f and p.total == base.total, (N, k)


def test_fire_profile_shape():
    p = fire_profile(9, 3)
    assert p.f == (2, 0)
    assert p.total == 2
    assert p.f[-1] == 0
    assert all(x >= y for x, y in zip(p.f, p.f[1:]))
    assert p.total == sum(f * p.k**i for i, f in enumerate(p.f))


def test_fire_profile_takes_the_linear_path(monkeypatch):
    calls = 0

    def counted_repunit(n, k):
        nonlocal calls
        calls += 1
        return repunit(n, k)

    monkeypatch.setattr(numerics, "repunit", counted_repunit)
    monkeypatch.setattr(formulas, "repunit", counted_repunit)
    assert fire_profile(10**200 + 7, 2).n == 664
    assert calls <= 2  # stable_config needs one; a per-term repunit sum makes ~n^2/2

    N = 10**99 + 12345
    p = fire_profile(N, 3)
    sim = simulate_layers(N, 3)
    assert p.f == sim.fires_by_layer
    assert p.total == sim.total_fires


def test_special_vertex_fires():
    for n in range(1, 10):
        for i in range(n):
            assert special_vertex_fires(n, 2, i) == 2 ** (n - i) - (n - i) - 1
    for k in (3, 4, 5):
        assert special_vertex_fires(4, k, 3) == 0
    assert special_vertex_fires(4, 3, 0) == 18
    # oracle: repunit(4, 3) = 40 chips on the ternary tree
    assert simulate(repunit(4, 3), 3).fires_by_layer[0] == 18
    for k in (2, 3, 4):
        for n in range(1, 8):
            N = repunit(n, k)
            for i in range(n):
                assert special_vertex_fires(n, k, i) == vertex_fires(N, k, i)


def test_special_root_fires():
    assert special_root_fires(3, 2) == 4
    assert [special_root_fires(n, 2) for n in range(1, 6)] == [0, 1, 4, 11, 26]
    for k in (2, 5, 9):
        assert special_root_fires(1, k) == 0
    assert special_root_fires(4, 3) == 18
    for k in (2, 3, 4, 6):
        for n in range(1, 9):
            assert special_root_fires(n, k) == root_fires(repunit(n, k), k)


def test_special_total_fires():
    for n in range(1, 12):
        assert special_total_fires(n, 2) == (n - 3) * 2**n + n + 3
    assert special_total_fires(3, 4) == 10
    assert special_total_fires(3, 5) == 12
    for k in (2, 3, 4, 6):
        for n in range(1, 9):
            assert special_total_fires(n, k) == total_fires(repunit(n, k), k)


def test_a_seq():
    for k in (2, 3, 8):
        assert a_seq(1, k) == 1
    assert a_seq(3, 4) == 27
    assert a_seq(7, 10) == 1234567
    assert a_seq(19, 10) == 1234567901234567899


def test_b_seq():
    for k in (2, 4, 7):
        assert b_seq(1, k) == 1
    assert b_seq(2, 2) == 5
    assert b_seq(2, 3) == 7


def test_b_partial_sums_give_special_totals():
    for k in range(2, 11):
        running = 0
        for n in range(1, 31):
            running += b_seq(n, k)
            assert running == special_total_fires(n + 1, k)


def test_d0_examples():
    for k in (2, 3, 6):
        assert d0(1, k) == 1
    assert d0(7, 2) == 3
    assert d0(13, 3) == 3
    assert d0(10, 3) == 2


def test_d0_is_g0_difference():
    for k in (2, 3, 4):
        for m in range(1, 500):
            assert d0(m, k) == root_fires((m + 1) * k, k) - root_fires(m * k, k)


def test_d0_routes_agree():
    for k in (2, 3, 4, 5):
        for m in range(1, 2000):
            assert len({route(m, k) for route in ROUTES["d0"]}) == 1, (m, k)
    # d0_formula switches at the repunits: m == repunit(n, k) exactly when
    # (k-1)m + 1 is a power of k.  Below one the last digit is 0, above it 2
    # (for k = 2, m is then 2^n and ends in 0), so both neighbours have d0 = 1.
    for k in [*range(2, 65), 10**30 - 1, 10**30, 10**30 + 1]:
        for n in range(1, 61):
            r = repunit(n, k)
            for m, want in ((r - 1, 1), (r, n), (r + 1, 1)):
                if m >= 1:
                    assert [route(m, k) for route in ROUTES["d0"]] == [want] * 2, (m, k)


def test_d0_replacement_construction():
    assert d0_by_replacement(18, 2) == [1, 1, 2, 1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1]
    for k in (2, 3, 4, 5):
        seq = d0_by_replacement(600, k)
        assert seq == [d0(m, k) for m in range(1, 601)]


def test_D_examples():
    assert D_diff(7, 2) == 11
    assert D_diff(4, 3) == 5
    assert D_diff(7, 6) == 8


def test_D_is_G_difference():
    for k in (2, 3, 4):
        for m in range(1, 400):
            assert D_diff(m, k) == total_fires((m + 1) * k, k) - total_fires(m * k, k)


def test_D_routes_agree():
    for k in (2, 3, 4, 5, 6):
        for m in range(1, 2000):
            assert len({route(m, k) for route in ROUTES["D"]}) == 1, (m, k)


def test_crosscheck_names_disagreeing_routes(monkeypatch):
    def d0_off_by_one(m, k):
        return d0_recursive(m, k) + 1

    monkeypatch.setitem(formulas.ROUTES, "d0", (d0_formula, d0_off_by_one))
    for check in (lambda: formulas.crosscheck("d0", 7, 2), lambda: d0(7, 2)):
        with pytest.raises(AssertionError) as exc:
            check()
        message = str(exc.value)
        for part in ("d0(7, 2)", "d0_formula 3", "d0_off_by_one 4"):
            assert part in message


def test_divisibility():
    assert divisibility_check(1, 4)
    assert special_total_fires(3, 4) == 10
    for k in (2, 5, 10):
        assert divisibility_check(0, k)
    assert divisibility_check(2, 2)
    assert special_total_fires(5, 2) == 72
    for k in range(2, 11):
        for j in range(0, 11):
            assert divisibility_check(j, k)


def test_input_validation():
    with pytest.raises(ValueError):
        d0(0, 3)
    with pytest.raises(ValueError):
        D_diff(0, 3)
    with pytest.raises(ValueError):
        a_seq(0, 3)
    with pytest.raises(ValueError):
        b_seq(0, 3)
    for seq, k in ((a_seq, 0), (b_seq, 1), (a_seq, -2)):
        with pytest.raises(ValueError, match="branching factor"):
            seq(3, k)
    for k in (1, 0, -2):
        for call in (lambda: special_vertex_fires(3, k, 0),
                     lambda: special_root_fires(3, k),
                     lambda: special_total_fires(3, k),
                     lambda: divisibility_check(1, k)):
            with pytest.raises(ValueError, match="branching factor must be >= 2"):
                call()
    with pytest.raises(ValueError):
        special_root_fires(0, 3)
    with pytest.raises(ValueError):
        divisibility_check(-1, 3)
    with pytest.raises(ValueError):
        formulas.root_fires_rec(-1, 2)


# every route, called directly as an independent reference: (valid args, an index
# below its least, the message for that index); k is always the second argument
_NO_HEIGHT = "height index is undefined for N = 0; need N >= 1"
ROUTE_CHECKS = {
    formulas.a_closed: ((5, 3), 0, "need n >= 1, got 0"),
    formulas.a_recursive: ((5, 3), 0, "need n >= 1, got 0"),
    formulas.b_closed: ((5, 3), 0, "need n >= 1, got 0"),
    formulas.b_recursive: ((5, 3), 0, "need n >= 1, got 0"),
    d0_formula: ((13, 3), 0, "need m >= 1, got 0"),
    d0_recursive: ((13, 3), 0, "need m >= 1, got 0"),
    formulas.D_via_a_seq: ((13, 3), 0, "need m >= 1, got 0"),
    formulas.D_recursive: ((13, 3), 0, "need m >= 1, got 0"),
    formulas.D_explicit: ((13, 3), 0, "need m >= 1, got 0"),
    root_fires: ((40, 3), 0, _NO_HEIGHT),
    total_fires: ((40, 3), 0, _NO_HEIGHT),
    # the recursions are defined at N = 0, where nothing fires
    root_fires_rec: ((40, 3), -1, "need N >= 0, got -1"),
    total_fires_rec: ((40, 3), -1, "need N >= 0, got -1"),
    vertex_fires: ((40, 3, 1), 0, _NO_HEIGHT),
    vertex_fires_via_root: ((40, 3, 1), 0, _NO_HEIGHT),
    d0_by_replacement: ((20, 3), 0, "need count >= 1, got 0"),
}


def test_route_checks_cover_every_route():
    assert set(ROUTE_CHECKS) == {r for routes in ROUTES.values() for r in routes} | {
        d0_by_replacement}


@pytest.mark.parametrize("route", ROUTE_CHECKS, ids=lambda r: r.__name__)
def test_every_route_rejects_a_bad_k_and_index_itself(route):
    args, index, message = ROUTE_CHECKS[route]
    route(*args)
    for k in (1, 0, -2):
        with pytest.raises(ValueError) as exc:
            route(args[0], k, *args[2:])
        assert str(exc.value) == f"branching factor must be >= 2, got {k}"
    with pytest.raises(ValueError) as exc:
        route(index, *args[1:])
    assert str(exc.value) == message
