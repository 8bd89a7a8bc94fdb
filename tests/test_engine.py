import ast

import pytest

from chipfire import engine
from chipfire.engine import STRATEGIES, TreeSizeError, avalanche, simulate, simulate_layers
from chipfire.formulas import total_fires
from chipfire.numerics import height_index, repunit, stable_config


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_nine_chips_ternary(strategy):
    result = simulate(9, 3, strategy=strategy, seed=7)
    assert result.root_fires == 2
    assert result.fires_by_layer == (2, 0)
    assert result.stable_chips == (3, 2)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_below_threshold_is_inert(k):
    result = simulate(k, k)
    assert result.total_fires == 0
    assert result.steps == 0
    assert result.stable_chips == (k,)


def test_fourteen_chips_binary_total():
    assert simulate(14, 2).total_fires == 12


def test_layers_matches_examples():
    assert simulate_layers(9, 3).fires_by_layer == (2, 0)
    for k in (2, 3, 6):
        r = simulate_layers(1, k)
        assert r.fires_by_layer == (0,)
        assert r.total_fires == 0
    assert simulate_layers(repunit(4, 2), 2).root_fires == 11


@pytest.mark.parametrize("k", [2, 3, 10])
def test_avalanche_crosses_repunit_boundaries(k):
    # piles 1..3000 cross repunit(n) for n = 2..4 at k = 10, and more at k = 2, 3;
    # the stream gains its layer n exactly at pile repunit(n)
    top = 3000
    boundaries = [repunit(n, k) for n in range(2, 12) if repunit(n, k) <= top]
    assert len(boundaries) >= 3
    stream = list(avalanche(k, top))
    assert len(stream) == top
    assert [N for N in range(2, top + 1) if stream[N - 1].n > stream[N - 2].n] == boundaries
    for N, result in enumerate(stream, 1):
        assert result == simulate_layers(N, k), (N, k)


def test_both_engines_reject_the_empty_pile():
    # N >= 1 is the domain of the height index, of every pile route and of the CLI
    for sim in (simulate, simulate_layers):
        with pytest.raises(ValueError) as exc:
            sim(0, 3)
        assert str(exc.value) == "height index is undefined for N = 0; need N >= 1"


def test_step_counters():
    # steps has one meaning in both engines: single-vertex fires
    for N, k in [(9, 3), (31, 2), (100, 4)]:
        node = simulate(N, k)
        layer = simulate_layers(N, k)
        assert node == layer
        assert node.steps == node.total_fires
        assert layer.steps == layer.total_fires


def test_confluence_small_grid():
    for k in (2, 3, 4):
        for N in range(1, 81):
            runs = [simulate(N, k, strategy=s, seed=seed)
                    for s in STRATEGIES for seed in range(3)]
            assert all(r == runs[0] for r in runs[1:]), (N, k)
            assert runs[0] == simulate_layers(N, k)


def test_node_matches_layers_and_stable_config():
    cases = [(N, k) for k in range(2, 7) for N in range(1, 301)]
    # boundary-heavy extras around repunits up to 3000; CI's
    # `verify -k 2..6 -N 3000 --node-N 3000` runs every pile up to 3000
    for k in range(2, 7):
        n = 2
        while repunit(n, k) <= 3000:
            r = repunit(n, k)
            for N in (r - 1, r, r + 1):
                if 1 <= N <= 3000:
                    cases.append((N, k))
            n += 1
    cases += [(N, k) for k in range(2, 7) for N in range(301, 3001, 97)]
    for N, k in cases:
        node = simulate(N, k)
        layer = simulate_layers(N, k)
        assert node == layer, (N, k)
        assert layer.stable_chips == stable_config(N, k)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_root_batches_of_one_to_three_fires(strategy):
    # the root's first batch, (N - k - 1) // k + 1 fires, is 1 for N = k+1..2k, 2 for
    # 2k+1..3k and 3 for 3k+1..3k+2; (N - k - 1) % k is 0 only at the first N of each
    for k in range(2, 7):
        for N in range(k + 1, 3 * k + 3):
            assert simulate(N, k, strategy=strategy, seed=N) == simulate_layers(N, k), (N, k)


def test_a_batch_of_t_fires_counts_t_steps(monkeypatch):
    N, k = 200, 2
    n, _ = engine._budget(N, k)
    monkeypatch.setattr(engine, "_budget", lambda N, k: (n, total_fires(N, k) - 1))
    with pytest.raises(engine.EngineError, match=r"step budget \d+ exceeded"):
        simulate(N, k)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_truncated_tree_refuses_to_fire_its_last_layer(monkeypatch, strategy):
    N, k = 200, 2
    n = height_index(N, k)
    monkeypatch.setattr(engine, "height_index", lambda N, k: n - 1)
    with pytest.raises(engine.EngineError, match="would fire .* truncated tree"):
        simulate(N, k, strategy=strategy)


def test_the_layer_engine_counts_a_batch_of_t_fires_as_t_steps(monkeypatch):
    # its steps run on from the seed's fires to sum(fires_by_layer) = 350
    N, k = 200, 2
    n, _ = engine._budget(N, k)
    steps = sum(simulate_layers(N, k).fires_by_layer)
    monkeypatch.setattr(engine, "_budget", lambda N, k: (n, steps - 1))
    with pytest.raises(engine.EngineError, match=r"^step budget 349 exceeded at N=200, k=2$"):
        simulate_layers(N, k)


def test_a_truncated_tree_refuses_to_fire_the_last_layer_of_the_layer_engine(monkeypatch):
    N, k = 200, 2
    n = height_index(N, k)
    monkeypatch.setattr(engine, "height_index", lambda N, k: n - 1)
    with pytest.raises(engine.EngineError,
                       match=r"^layer 6 would fire \(N=200, k=2\); .* truncated tree$"):
        simulate_layers(N, k)


@pytest.mark.parametrize("wrong,named", [
    (lambda stable, by_layer: (stable, by_layer[:1] + [by_layer[1] + 1] + by_layer[2:]),
     r"certify\(200, 2\): layer 2 fires 92 times per vertex, not 91$"),
    (lambda stable, by_layer: (stable[:2] + [3 - stable[2]] + stable[3:], by_layer),
     r"certify\(200, 2\): layer 2 fires 91 times per vertex, not 92$"),
], ids=["fires", "chips"])
def test_result_rejects_a_wrong_layer(monkeypatch, wrong, named):
    # whatever _collect hands over, simulate lets out only a run that certify proved
    real = engine._collect
    monkeypatch.setattr(engine, "_collect", lambda *args: wrong(*real(*args)))
    with pytest.raises(AssertionError, match=named):
        simulate(200, 2)


def test_last_layer_stays_silent():
    # a layer-n fire would raise; a clean pass certifies f_(n-1) == 0
    for k in (2, 3, 4):
        for n in range(1, 6):
            r = simulate(repunit(n, k), k)
            assert r.fires_by_layer[-1] == 0


def test_engine_imports_no_formulas():
    # the oracle must not depend on the code it checks
    with open(engine.__file__) as source:
        tree = ast.parse(source.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "formulas" not in (node.module or ""), ast.dump(node)
            assert all(a.name != "formulas" for a in node.names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all("formulas" not in a.name for a in node.names), ast.dump(node)


def test_step_budget_bounds_total_fires():
    # the engines' budget N(n-1)/(k-1) must never cut a correct run short
    piles = [(N, k) for k in range(2, 9) for N in range(1, 5000)]
    piles += [(N, k) for k in range(2, 9) for N in (10**50 + 7, 3**100, 2**300 - 1)]
    for N, k in piles:
        n = height_index(N, k)
        assert total_fires(N, k) <= N * (n - 1) // (k - 1), (N, k)
    assert total_fires(5, 4) == 5 * (2 - 1) // (4 - 1)  # the bound is attained


def test_node_budget_guard():
    with pytest.raises(TreeSizeError):
        simulate(2**40, 2)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        simulate(-1, 2)
    with pytest.raises(ValueError):
        simulate(5, 1)
    with pytest.raises(ValueError):
        simulate(5, 2, strategy="depth-first")
    with pytest.raises(ValueError):
        simulate_layers(-1, 2)
