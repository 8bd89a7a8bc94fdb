#!/usr/bin/env python3
"""How often does each vertex fire before the pile settles?

Three independent answers: brute-force simulation, closed forms, and
recursions.  They must agree exactly, and do.  The firing order provably
does not matter, so the node-level engine is run under three different
scheduling policies as a spot check.
"""

from chipfire import (
    fire_profile,
    root_fires,
    root_fires_rec,
    simulate,
    simulate_layers,
    total_fires,
    total_fires_rec,
)
from chipfire.engine import STRATEGIES

N, K = 2025, 3

fires = fire_profile(N, K)
sim = simulate_layers(N, K)
print(f"pile of {N} chips on the {K}-ary tree (height index n = {len(fires)})\n")
print(f"{'layer':>5}  {'fires/vertex':>12}")
for i, f in enumerate(fires):
    print(f"{i + 1:>5}  {f:>12}")
print(f"\nroot fires  : {root_fires(N, K)} (recursion: {root_fires_rec(N, K)}, "
      f"engine: {sim.root_fires})")
print(f"total fires : {total_fires(N, K)} (recursion: {total_fires_rec(N, K)}, "
      f"engine: {sim.total_fires})")
assert fires == sim.fires_by_layer

print("\nfiring order is irrelevant (global confluence):")
for strategy in STRATEGIES:
    r = simulate(200, K, strategy=strategy, seed=42)
    print(f"  {strategy:<10} -> root {r.root_fires}, total {r.total_fires}, "
          f"stable {r.stable_chips}")

print("\nfire counts are constant on blocks of k consecutive pile sizes:")
for N in range(28, 37):
    print(f"  N = {N:>2}: total fires = {total_fires(N, K)}")
