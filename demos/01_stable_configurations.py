#!/usr/bin/env python3
"""Drop a pile of chips on the root and look at where they settle.

The stable configuration always fills a perfect k-ary subtree, one chip
count per layer, and those counts are a base-k digit expansion in disguise:
layer i+1 holds one more chip per vertex than digit i of N - repunit(n, k).
"""

from chipfire import height_index, repunit, simulate_layers, stable_config, to_base

K = 3

print(f"ternary tree (k = {K}), piles N = 1..40\n")
print(f"{'N':>3}  {'n':>2}  {'digits':>8}  chips per vertex by layer")
for N in range(1, 41):
    chips = stable_config(N, K)
    n = len(chips)
    digits = to_base(N - repunit(n, K), K, n)
    marker = " <- repunit: new layer opens" if N == repunit(n, K) else ""
    print(f"{N:>3}  {n:>2}  {str(digits):>8}  {list(chips)}{marker}")

print("""
Chips are conserved: sum(c_i * k^i) == N on every row above.
The height index n steps up exactly at the repunits 1, 4, 13, 40, ...
""")

# the simulation engine reaches the same configuration by brute force
for N in (9, 25, 40):
    sim = simulate_layers(N, K)
    chips = stable_config(N, K)
    assert sim.stable_chips == chips
    print(f"N = {N}: engine and digit map agree on {list(chips)}; "
          f"the pile took {sim.total_fires} fires to settle")

big = 10**30
print(f"\nheight of a pile of 10^30 chips on the ternary tree: "
      f"{height_index(big, K)} layers")
