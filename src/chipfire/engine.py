"""Brute-force chip-firing on a truncated k-ary tree with a root self-loop.

The tree is infinite, but a pile of N chips never pushes anything past layer
n+1 where n is the height index of N, so the simulator allocates layers
1..n+1 and treats any activity on the last (padding) layer as a soundness
failure rather than a modelling choice.

Firing semantics: a vertex may fire when it holds at least k+1 chips.  A
non-root vertex then loses k+1 chips, sending one to its parent and one to
each of its k children.  The root loses k+1 chips but immediately regains
one through its self-loop (net loss k) while each of its k children gains
one.  Chips are conserved by every fire.

Two engines are provided:

* `simulate` works vertex by vertex on a sparse node map and supports three
  firing-order strategies; by global confluence they must all agree, and the
  verification suite checks that they do.
* `simulate_layers` exploits layer symmetry (every vertex on a layer carries
  the same count under the parallel strategy) and fires whole layers in
  batches, which makes it fast enough to serve as the oracle for the
  closed-form formulas over large ranges of N.

Neither engine imports `formulas`; `_budget` proves their step budget.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .numerics import height_index, repunit

STRATEGIES = ("bfs", "max-chips", "random")

# node-level simulation refuses trees whose touched-node count exceeds this
# unless force=True; the layer engine has no such cap
NODE_BUDGET = 10**7


class EngineError(RuntimeError):
    """A soundness invariant failed during simulation."""


class TreeSizeError(ValueError):
    """Node-level simulation would touch too many nodes; use force to override."""


@dataclass(frozen=True)
class SimResult:
    """Measured outcome of one stabilization run.

    `stable_chips[i]` / `fires_by_layer[i]` refer to every vertex on layer
    i+1.  `steps` counts single-vertex fires in `simulate` and layer-wide
    parallel fires in `simulate_layers`; it is diagnostic only and excluded
    from `observables`.
    """

    k: int
    n: int
    stable_chips: tuple[int, ...]
    fires_by_layer: tuple[int, ...]
    root_fires: int
    total_fires: int
    steps: int

    def observables(self) -> tuple:
        return (self.k, self.n, self.stable_chips, self.fires_by_layer,
                self.root_fires, self.total_fires)


def _budget(N: int, k: int) -> tuple[int, int]:
    """Check N and k; return the height index n of N and the step budget.

    No run fires more than N(n-1)/(k-1) times.  Let Phi be the sum of chip
    depths, the root at depth 0.  A fire at depth d > 0 moves one chip up and
    k down, and a root fire keeps one chip and moves k down, so every fire
    raises Phi by k-1 or k.  Phi starts at 0 and the stable pile lies on
    layers 1..n (the padding checks confirm it), so Phi <= N(n-1) throughout.
    `steps` counts at most the total fires.
    """
    if N < 0:
        raise ValueError(f"chip count must be >= 0, got {N}")
    if k < 2:
        raise ValueError(f"branching factor must be >= 2, got {k}")
    n = height_index(N, k) if N else 0
    return n, N * (n - 1) // (k - 1)


def _result(k: int, stable: list[int], by_layer: list[int], steps: int) -> SimResult:
    """Package one chip and one fire count per layer; root and total follow."""
    return SimResult(k=k, n=len(stable), stable_chips=tuple(stable),
                     fires_by_layer=tuple(by_layer),
                     root_fires=by_layer[0] if by_layer else 0,
                     total_fires=sum(f * k**i for i, f in enumerate(by_layer)),
                     steps=steps)


class _BfsFrontier:
    """Eligible nodes in (layer, offset) order; root-first BFS policy."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int]] = []
        self._members: set[tuple[int, int]] = set()

    def offer(self, node: tuple[int, int], count: int) -> None:
        if node not in self._members:
            self._members.add(node)
            heapq.heappush(self._heap, node)

    def take(self, chips: dict, threshold: int) -> tuple[int, int] | None:
        if not self._heap:
            return None
        node = heapq.heappop(self._heap)
        self._members.discard(node)
        return node


class _MaxChipsFrontier:
    """Eligible nodes keyed by current chip count, largest first.

    Entries go stale when a node's count changes after being pushed; a fresh
    entry is pushed on every change, so stale ones are dropped on pop by
    comparing against the live count.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, int]] = []

    def offer(self, node: tuple[int, int], count: int) -> None:
        heapq.heappush(self._heap, (-count, node[0], node[1]))

    def take(self, chips: dict, threshold: int) -> tuple[int, int] | None:
        while self._heap:
            neg, layer, off = heapq.heappop(self._heap)
            node = (layer, off)
            if chips.get(node, 0) == -neg and -neg >= threshold:
                return node
        return None


class _RandomFrontier:
    """Uniform random choice over eligible nodes, reproducible via the rng."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._items: list[tuple[int, int]] = []
        self._pos: dict[tuple[int, int], int] = {}

    def offer(self, node: tuple[int, int], count: int) -> None:
        if node not in self._pos:
            self._pos[node] = len(self._items)
            self._items.append(node)

    def take(self, chips: dict, threshold: int) -> tuple[int, int] | None:
        if not self._items:
            return None
        i = self._rng.randrange(len(self._items))
        node = self._items[i]
        last = self._items[-1]
        self._items[i] = last
        self._pos[last] = i
        self._items.pop()
        del self._pos[node]
        return node


def _make_frontier(strategy: str, seed: int):
    if strategy == "bfs":
        return _BfsFrontier()
    if strategy == "max-chips":
        return _MaxChipsFrontier()
    if strategy == "random":
        return _RandomFrontier(random.Random(seed))
    raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def simulate(N: int, k: int, strategy: str = "bfs", seed: int = 0,
             force: bool = False, check_each_step: bool = False) -> SimResult:
    """Stabilize N chips dropped on the root, firing one vertex at a time.

    The firing order follows `strategy` ("bfs", "max-chips" or "random");
    `seed` only matters for the random strategy.  Raises TreeSizeError when
    the run would touch more than NODE_BUDGET nodes and force is not set.
    """
    n, budget = _budget(N, k)
    frontier = _make_frontier(strategy, seed)
    depth = n + 1
    if repunit(n, k) > NODE_BUDGET and not force:
        raise TreeSizeError(
            f"N={N}, k={k} touches about {repunit(n, k)} nodes "
            f"(budget {NODE_BUDGET}); pass force=True to run anyway")

    threshold = k + 1
    root = (1, 0)
    chips: dict[tuple[int, int], int] = {root: N}
    fires: dict[tuple[int, int], int] = {}
    if N >= threshold:
        frontier.offer(root, N)

    steps = 0
    while True:
        node = frontier.take(chips, threshold)
        if node is None:
            break
        layer, off = node
        if layer >= depth:
            raise EngineError(
                f"vertex on padding layer {layer} fired (N={N}, k={k}); "
                "chips would escape the truncated tree")
        count = chips[node]
        if layer == 1:
            chips[node] = count - k  # one of the k+1 spent chips returns via the self-loop
        else:
            chips[node] = count - threshold
            parent = (layer - 1, off // k)
            pv = chips.get(parent, 0) + 1
            chips[parent] = pv
            if pv >= threshold:
                frontier.offer(parent, pv)
        base = off * k
        for j in range(k):
            child = (layer + 1, base + j)
            cv = chips.get(child, 0) + 1
            chips[child] = cv
            if cv >= threshold:
                frontier.offer(child, cv)
        fires[node] = fires.get(node, 0) + 1
        steps += 1
        if chips[node] >= threshold:
            frontier.offer(node, chips[node])
        if steps > budget:
            raise EngineError(f"step budget {budget} exceeded at N={N}, k={k}")
        if check_each_step and sum(chips.values()) != N:
            raise EngineError(f"chip conservation broken at step {steps} (N={N}, k={k})")

    return _collect(N, k, n, depth, chips, fires, steps)


def _collect(N: int, k: int, n: int, depth: int, chips: dict, fires: dict,
             steps: int) -> SimResult:
    """Fold the sparse node maps into per-layer counts, checking symmetry."""
    if sum(chips.values()) != N:
        raise EngineError(f"chip conservation broken at stabilization (N={N}, k={k})")

    layer_chips: dict[int, set[int]] = {}
    layer_fires: dict[int, set[int]] = {}
    layer_nodes: dict[int, int] = {}
    for node, count in chips.items():
        layer = node[0]
        layer_nodes[layer] = layer_nodes.get(layer, 0) + 1
        layer_chips.setdefault(layer, set()).add(count)
        layer_fires.setdefault(layer, set()).add(fires.get(node, 0))

    stable = []
    by_layer = []
    for layer in range(1, n + 1):
        cvals = layer_chips.get(layer, {0})
        fvals = layer_fires.get(layer, {0})
        if len(cvals) != 1 or len(fvals) != 1:
            raise EngineError(f"layer {layer} not symmetric at stabilization "
                              f"(N={N}, k={k}): chips {cvals}, fires {fvals}")
        if layer_nodes.get(layer, 0) != k ** (layer - 1):
            raise EngineError(f"layer {layer} only partially reached (N={N}, k={k})")
        stable.append(next(iter(cvals)))
        by_layer.append(next(iter(fvals)))
    if layer_chips.get(depth, {0}) != {0} or layer_fires.get(depth, {0}) != {0}:
        raise EngineError(f"padding layer {depth} saw activity (N={N}, k={k})")

    return _result(k, stable, by_layer, steps)


def simulate_layers(N: int, k: int, check_each_step: bool = False) -> SimResult:
    """Stabilize using one representative vertex per layer.

    Valid because the parallel strategy keeps every vertex on a layer
    identical, and global confluence makes the outcome order-independent;
    by the same property the result matches `simulate` exactly.  Eligible
    layers are fired in batches (a batch of t counts as t parallel steps),
    so the run time is polynomial in the depth rather than in N.
    """
    n, budget = _budget(N, k)
    depth = n + 1
    threshold = k + 1
    chips = [0] * depth
    fires = [0] * depth
    chips[0] = N

    steps = 0
    while True:
        progressed = False
        for i in range(depth):
            count = chips[i]
            if count < threshold:
                continue
            if i + 1 >= depth:
                raise EngineError(
                    f"padding layer {depth} became eligible (N={N}, k={k})")
            if i == 0:
                t = (count - threshold) // k + 1  # root nets -k per fire
                chips[0] = count - t * k
            else:
                t = (count - threshold) // threshold + 1
                chips[i] = count - t * threshold
                chips[i - 1] += t * k  # k children per parent, one chip each per fire
            chips[i + 1] += t
            fires[i] += t
            steps += t
            progressed = True
            if steps > budget:
                raise EngineError(f"step budget {budget} exceeded at N={N}, k={k}")
            if check_each_step and sum(c * k**j for j, c in enumerate(chips)) != N:
                raise EngineError(
                    f"chip conservation broken at step {steps} (N={N}, k={k})")
        if not progressed:
            break

    if chips[depth - 1] != 0 or fires[depth - 1] != 0:
        raise EngineError(f"padding layer {depth} saw activity (N={N}, k={k})")
    if sum(c * k**i for i, c in enumerate(chips)) != N:
        raise EngineError(f"chip conservation broken at stabilization (N={N}, k={k})")
    if max(chips) > k:
        raise EngineError(f"stabilization finished above threshold (N={N}, k={k})")

    return _result(k, chips[:n], fires[:n], steps)
