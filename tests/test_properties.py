"""Property-based checks that shrink a failure to a minimal (N, k).

Examples are derandomized and no example database is kept, so every run
draws the same cases and nothing is written into the checkout.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from chipfire.engine import STRATEGIES, simulate, simulate_layers
from chipfire.formulas import (fire_profile, fires_difference, root_fires,
                               total_fires, vertex_fires)
from chipfire.numerics import stable_config


# Even without a database, Hypothesis caches the constants it mines from local
# source files in its home directory, .hypothesis/ in the working directory by
# default; its pytest plugin does so at collection, so set the home on import.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "chipfire-hypothesis")


def bounded(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


@bounded(150)
@given(N=st.integers(0, 400), k=st.integers(2, 6),
       strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
def test_every_firing_order_is_confluent(N, k, strategy, seed):
    run = simulate(N, k, strategy=strategy, seed=seed)
    assert run == simulate(N, k)
    assert run.observables() == simulate_layers(N, k).observables()


@bounded(300)
@given(N=st.integers(1, 10**60 - 1), k=st.integers(2, 64))
def test_stable_config_conserves_chips(N, k):
    cfg = stable_config(N, k)
    assert sum(c * k**i for i, c in enumerate(cfg.c)) == N


@bounded(300)
@given(N=st.integers(1, 10**80 - 1), k=st.integers(2, 64), data=st.data())
def test_fire_counts_equal_their_definitional_sums(N, k, data):
    # the per-term sums over the stable digits that the linear passes replace
    c = stable_config(N, k).c
    n = len(c)
    power = [k**j for j in range(n)]
    repunit = [(p - 1) // (k - 1) for p in power]
    f = tuple(sum(repunit[j] * c[i + j] for j in range(1, n - i)) for i in range(n))
    root = sum((power[j] - 1) * c[j] for j in range(1, n)) // (k - 1)
    total = sum((m * power[m] * k - (m + 1) * power[m] + 1) * c[m]
                for m in range(1, n)) // (k - 1) ** 2

    profile = fire_profile(N, k)
    assert profile.f == f
    assert profile.total == total
    assert root_fires(N, k) == root == f[0]
    assert total_fires(N, k) == total
    i = data.draw(st.integers(0, n - 1), label="layer")
    assert vertex_fires(N, k, i) == f[i]
    if i < n - 1:
        delta = sum(power[j - i - 1] * c[j] for j in range(i + 1, n))
        assert fires_difference(N, k, i) == delta
