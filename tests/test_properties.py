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
