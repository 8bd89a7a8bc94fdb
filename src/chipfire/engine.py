"""Brute-force chip-firing on a truncated k-ary tree with a root self-loop.

The tree is infinite, but a pile of N chips stabilizes on layers 1..n, where
n is the height index of N, and no vertex of layer n ever fires.  Both
engines therefore allocate layers 1..n only and raise EngineError as soon as
a layer-n vertex would fire, since that is the only way a chip could leave
the truncated tree.

Firing semantics: a vertex may fire when it holds at least k+1 chips.  A
non-root vertex then loses k+1 chips, sending one to its parent and one to
each of its k children.  The root loses k+1 chips but immediately regains
one through its self-loop (net loss k) while each of its k children gains
one.  Chips are conserved by every fire.

Two engines are provided:

* `simulate` works vertex by vertex and supports three firing-order
  strategies; by global confluence they must all agree, and the
  verification suite checks that they do.  Vertices are heap-numbered in
  two flat lists of chips and fires: vertex 0 is the root, the children of
  v are kv+1..kv+k, its parent is (v-1)//k, and layer i+1 is the index
  range repunit(i)..repunit(i+1)-1.  One heap holds the eligible
  vertices, and the strategy only sets the key: v for "bfs" (heap
  numbering is (layer, offset) order), (-count, v) for "max-chips", and a
  seeded random draw for "random", a random-priority order.  A popped
  vertex fires as many times in a row as it legally can, so it is left
  with k or fewer chips and is not queued again by its own fires.  A
  vertex is queued when a gain takes it from k or fewer chips to k+1 or
  more; under "max-chips", whose key is the count, on every gain that
  leaves it with k+1 or more, and an entry whose count is no longer the
  vertex's count is dropped when popped.  So a strategy orders batches of
  fires, one batch per pop.
* The layer engine exploits layer symmetry (every vertex on a layer
  carries the same count under the parallel strategy) and fires whole
  layers in batches, in one loop, `_settle`, which holds the step budget
  and the layer-n refusal.  It keeps a stack of the eligible layers, each
  once and in ascending order, and always fires the deepest.  It has two
  entry points, which differ only in the state and the stack `_settle`
  starts from:
  - `simulate_layers(N, k)` settles one pile from a lower bound on the
    fires of each layer, with every layer that then holds k+1 or more
    chips on the stack, so a 50- to 1000-digit pile takes 0.04-0.11 n^2
    batches at k = 2 and 0.01-0.05 n^2 at k = 10, which makes it fast
    enough to serve as the oracle for the closed-form formulas at
    hundreds of digits;
  - `avalanche(k, top)` yields every pile N = 1..top in turn: pile N is
    pile N-1 plus one chip at the root, settled from a stack holding only
    the root, and a layer is added when N reaches repunit(n+1).

Both engines take piles of N >= 1 chips, the domain of the height index,
and end in `certify`: `numerics.certify`, the odometer certificate, proves
the chips and fires per layer and builds the `SimResult` with its total
fires.  So no wrong outcome leaves either engine, and in the avalanche no
pile after a wrong one is yielded.  Neither engine imports `formulas`;
`_budget` proves their step budget.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from heapq import heappop, heappush

from .numerics import (SimResult, _require_at_least, _require_k, certify, format_int,
                       height_index, repunit)

STRATEGIES = ("bfs", "max-chips", "random")

# node-level simulation refuses trees whose touched-node count exceeds this;
# the layer engine has no such cap
NODE_BUDGET = 10**7


class EngineError(RuntimeError):
    """A soundness invariant failed during simulation."""


class TreeSizeError(ValueError):
    """Node-level simulation would touch too many nodes."""


def _budget(N: int, k: int) -> tuple[int, int]:
    """The height index n of N and the step budget; `height_index` checks N and k.

    No run fires more than N(n-1)/(k-1) times.  Let Phi be the sum of chip
    depths, the root at depth 0.  A fire at depth d > 0 moves one chip up and
    k down, and a root fire keeps one chip and moves k down, so every fire
    raises Phi by k-1 or k.  Phi starts at 0, and no chip passes layer n
    because both engines refuse to fire a layer-n vertex, so Phi <= N(n-1)
    throughout.  Each engine's step counter counts at most the total fires.
    """
    n = height_index(N, k)
    return n, N * (n - 1) // (k - 1)


def _pile(N: int, k: int) -> str:
    return f"N={format_int(N)}, k={format_int(k)}"


def _priority(strategy: str, seed: int):
    """The heap key of vertex v holding `count` chips under `strategy`."""
    if strategy == "bfs":
        return lambda v, count: v
    if strategy == "max-chips":
        return lambda v, count: (-count, v)
    if strategy == "random":
        draw = random.Random(seed).random
        return lambda v, count: draw()
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def simulate(N: int, k: int, strategy: str = "bfs", seed: int = 0) -> SimResult:
    """Stabilize N chips dropped on the root, one vertex's batch of fires at a time.

    The order of the batches follows `strategy` ("bfs", "max-chips" or
    "random"); `seed` only matters for the random strategy, which draws one
    key each time a vertex is queued.  Raises TreeSizeError when the run
    would touch more than NODE_BUDGET nodes.

    A popped vertex holding c chips fires t times at once: t = c // (k+1)
    off the root, and t = (c - k - 1) // k + 1 at the root, whose self-loop
    hands back one of the k+1 chips of each fire.  These are t legal single
    fires in a row: before the j-th of them the vertex holds
    c - (j-1)(k+1) >= c - (t-1)(k+1) >= k+1 chips (c - (j-1)k >= k+1 at the
    root), and after the last it holds k or fewer.  So every run is a legal
    sequence of single fires that ends stable, and by the abelian property
    of chip-firing (Bjorner, Lovasz and Shor, 1991) every such sequence
    fires each vertex equally often and ends in the same configuration:
    batching changes neither the fires nor the stable chips.  `steps`
    counts the t single fires of a batch, so `_budget`'s bound holds as it
    did for one fire per pop, and a layer-n vertex raises before its batch.
    """
    n, budget = _budget(N, k)
    key = _priority(strategy, seed)
    size = repunit(n, k)
    if size > NODE_BUDGET:
        raise TreeSizeError(f"{_pile(N, k)} touches about {format_int(size)} nodes "
                            f"(budget {format_int(NODE_BUDGET)})")

    threshold = k + 1
    # a gain queues a vertex only as it reaches k+1 chips, unless the key is the count
    count_keyed = strategy == "max-chips"
    last = size // k  # repunit(n - 1): the first vertex of layer n
    chips = [0] * size
    fires = [0] * size
    chips[0] = N
    heap = [(key(0, N), N, 0)] if N >= threshold else []

    steps = 0
    while heap:
        _, count, v = heappop(heap)
        if chips[v] != count:
            if count_keyed:
                continue  # stale: v has gained or fired since this entry
            count = chips[v]
        if v >= last:
            raise EngineError(
                f"vertex {format_int(v)} on layer {format_int(n)} would fire "
                f"({_pile(N, k)}); chips would leave the truncated tree")
        if v:
            t = count // threshold
            chips[v] = count - t * threshold
            parent = (v - 1) // k
            pv = chips[parent] + t
            chips[parent] = pv
            if pv >= threshold and (count_keyed or pv - t < threshold):
                heappush(heap, (key(parent, pv), pv, parent))
        else:
            t = (count - threshold) // k + 1  # the self-loop returns one chip a fire
            chips[0] = count - t * k
        first = k * v + 1
        for child in range(first, first + k):
            cv = chips[child] + t
            chips[child] = cv
            if cv >= threshold and (count_keyed or cv - t < threshold):
                heappush(heap, (key(child, cv), cv, child))
        fires[v] += t
        steps += t
        if steps > budget:
            raise EngineError(f"step budget {format_int(budget)} exceeded at "
                              f"{_pile(N, k)}")

    return certify(N, k, *_collect(N, k, n, chips, fires))


def _collect(N: int, k: int, n: int, chips: list[int],
             fires: list[int]) -> tuple[list[int], list[int]]:
    """One chip and one fire count per layer, checking each layer's slice is uniform."""
    stable = []
    by_layer = []
    lo = 0
    for layer in range(1, n + 1):
        hi = k * lo + 1  # repunit(layer) from repunit(layer - 1)
        width = hi - lo
        if (chips[lo:hi] != [chips[lo]] * width
                or fires[lo:hi] != [fires[lo]] * width):
            raise EngineError(f"layer {format_int(layer)} not symmetric at "
                              f"stabilization ({_pile(N, k)})")
        stable.append(chips[lo])
        by_layer.append(fires[lo])
        lo = hi
    return stable, by_layer


def _odometer_floor(N: int, k: int, n: int) -> list[int]:
    """u0 = max(0, floor(x)) for the x with L.x = N.e0 - k.1, per layer.

    L is the layer matrix of `simulate_layers`.  Summing rows 0..i of L.x,
    row j weighted by the k^j vertices of its layer, telescopes to
    k^(i+1).(x_i - x_(i+1)), and the same sum of N.e0 - k.1 is
    N - k.repunit(i+1) = N + 1 - repunit(i+2): the chips that cross the cut
    below layer i+1 when every vertex of layers 1..i+1 keeps k.  With x_n = 0,
    k^n.x_i = sum over j = i..n-1 of (N + 1 - repunit(j+2)).k^(n-1-j).
    """
    denom = k**n
    u0 = [0] * n
    scaled = 0
    power = 1  # k^(n-1-i)
    cut = (denom * k - 1) // (k - 1)  # repunit(i+2), from repunit(n+1)
    for i in reversed(range(n)):
        scaled += (N + 1 - cut) * power
        u0[i] = max(0, scaled // denom)
        cut //= k
        power *= k
    return u0


def simulate_layers(N: int, k: int) -> SimResult:
    """Stabilize using one representative vertex per layer.

    Valid because the parallel strategy keeps every vertex on a layer
    identical, and global confluence makes the outcome order-independent;
    by the same property the result matches `simulate` exactly.  Eligible
    layers are fired in batches (a batch of t counts as t parallel steps).
    The run starts from u0 = `_odometer_floor` fires per layer, not from
    none, and `_settle` fires the deepest eligible layer first.  That
    leaves 0.04-0.11 n^2 batches (k = 2) and 0.01-0.05 n^2 (k = 10) on 50-
    to 1000-digit piles, where root-down sweeps of every layer fired about
    0.26 n^2 from u0 and 1.2 n^2 (k = 10) to 3.8 n^2 (k = 2) from zero.

    After u fires per layer, layer i (the root is i = 0) holds
    (N.e0 - L.u)_i chips per vertex, where row 0 of L is k.u_0 - k.u_1 and
    row i > 0 is -u_(i-1) + (k+1).u_i - k.u_(i+1), with u_n = 0 below the
    last layer.  L has nonpositive entries off the diagonal, row sums >= 0
    (the last one positive) and a connected chain of rows, so it is a
    nonsingular M-matrix and L^-1 >= 0.  Let u* be the fires per layer at
    which the unseeded run stops, the odometer (let layer n fire into a sink
    below it if it must), and s = N.e0 - L.u* <= k.1 its stable chips.

    u0 <= u*: every s_i <= k, so u* = L^-1(N.e0 - s) >= L^-1(N.e0 - k.1) = x;
    u* is an integer vector >= 0, so u* >= max(0, floor(x)) = u0.

    Legal batches from N.e0 - L.u0 stop exactly at u*, even if u0 leaves a
    layer negative (it waits until it holds k+1).  A batch of t fires is
    t single fires, each made while its layer holds k+1 or more.  Let v <= u*
    be the fires so far and layer i fire once more.  Had v_i = u*_i, then
    (N.e0 - L.v)_i = s_i + (L.(u* - v))_i <= s_i <= k, since row i meets
    u* - v >= 0 only off the diagonal: no fire.  So v_i < u*_i and v <= u*
    throughout.  Each fire raises v, so the loop stops, at some v with every
    layer at k or fewer chips.  The same argument with v in place of u*
    keeps the run from 0 below v, so u* <= v, and v = u*.  Layer n is
    never seeded: x_(n-1) = (N + 1 - repunit(n+1)) / k^n <= 0.  So the
    seeded run fires layer n, and raises, exactly when the unseeded one does.

    The budget still bounds `steps`: it starts at sum(u0) and counts every
    later fire, so it never passes sum(u*) <= sum(k^i.u*_i), the total fires,
    which `_budget` bounds by N(n-1)/(k-1).
    """
    n, budget = _budget(N, k)
    fires = _odometer_floor(N, k, n)
    # the root is its own parent through the self-loop; nothing fires below layer n
    u = fires[:1] + fires + [0]
    chips = [u[i] - (k + 1) * u[i + 1] + k * u[i + 2] for i in range(n)]
    chips[0] += N
    stack = [i for i, count in enumerate(chips) if count > k]
    _settle(N, k, chips, fires, stack, sum(fires), budget)
    return certify(N, k, chips, fires)


def avalanche(k: int, top: int) -> Iterator[SimResult]:
    """Yield the result of every pile N = 1..top, one chip at a time.

    By the abelian property (Dhar, PRL 64, 1990; Bjorner, Lovasz and Shor,
    1991) the stable configuration of N+1 chips is that of N with one more
    chip at the root, settled, and the fires of N+1 are the fires of N plus
    that one avalanche.  So each pile adds one chip to the root and runs
    `_settle` on the state the last pile left.  A layer is added exactly
    when N reaches repunit(n+1), the first pile of height index n+1.  Each
    pile ends in `certify`, so a pile whose run is wrong raises there, before
    any later pile is yielded.

    The step budget holds pile by pile: the steps so far are sum(fires)
    <= the total fires of N, which `_budget` bounds by N(n-1)/(k-1).
    """
    _require_at_least("top", top, 0)
    _require_k(k)
    chips: list[int] = []
    fires: list[int] = []
    steps = 0
    deeper = 1  # repunit(n+1): the first pile with one more layer
    for N in range(1, top + 1):
        if N == deeper:
            chips.append(0)
            fires.append(0)
            deeper = k * deeper + 1
        chips[0] += 1
        steps = _settle(N, k, chips, fires, [0], steps, N * (len(chips) - 1) // (k - 1))
        yield certify(N, k, chips, fires)


def _settle(N: int, k: int, chips: list[int], fires: list[int], stack: list[int],
            steps: int, budget: int) -> int:
    """Fire the layers holding k+1 or more chips until none does; return the steps.

    `chips` and `fires` hold one vertex of each layer 1..n and are updated
    in place.  `stack` starts with every layer holding k+1 or more chips,
    once each and in ascending order, and is emptied.  Each pop fires the
    top layer, the deepest eligible one, in one batch of t fires (counted
    as t parallel steps), which leaves it with k or fewer chips; a
    neighbour is pushed when that batch takes it from k or fewer chips to
    k+1 or more.  No layer below the popped one was eligible and the
    parent is pushed before the child, so the stack keeps each eligible
    layer once, in ascending order.  A popped layer holding k or fewer
    chips is skipped; only the avalanche's root, which one chip may not
    tip, is one.  By the abelian property the order of the batches changes
    neither the fires nor the stable chips.  `steps` counts on from the
    value passed in, and raises EngineError past `budget`; a layer-n fire
    raises too, since its chips would leave the truncated tree.
    """
    n = len(chips)
    threshold = k + 1
    pop = stack.pop
    push = stack.append
    while stack:
        i = pop()
        count = chips[i]
        if count < threshold:
            continue
        if i + 1 == n:
            raise EngineError(
                f"layer {format_int(n)} would fire ({_pile(N, k)}); "
                "chips would leave the truncated tree")
        if i:
            t = (count - threshold) // threshold + 1
            chips[i] = count - t * threshold
            parent = chips[i - 1]
            chips[i - 1] = parent + t * k  # k children per parent, one chip each per fire
            if parent < threshold <= parent + t * k:
                push(i - 1)
        else:
            t = (count - threshold) // k + 1  # root nets -k per fire
            chips[0] = count - t * k
        child = chips[i + 1]
        chips[i + 1] = child + t
        if child < threshold <= child + t:
            push(i + 1)
        fires[i] += t
        steps += t
        if steps > budget:
            raise EngineError(f"step budget {format_int(budget)} exceeded at "
                              f"{_pile(N, k)}")
    return steps
