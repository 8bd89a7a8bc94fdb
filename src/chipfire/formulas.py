"""Closed-form and recursive fire counts for chip-firing on the k-ary tree.

Each quantity is implemented at least twice (closed form, recursion, and for
the difference sequences a digit-replacement construction as well).  Routes
are listed once, in `ROUTES`, run by `crosscheck` (`a_seq`, `b_seq`, `d0` and
`D_diff` are one call to it each) and compared by `_agree`, the package's one
comparison of routes.  A route calls only its own family, and the engine that
the tests check everything against imports nothing here.  Every route rejects
k < 2 and an index below its least value itself, so a route called alone, as
an independent reference, refuses what `crosscheck` refuses.

The fire counts are written over the stable digits c_0..c_(n-1) of N and each
is one pass over them, O(n) big-integer steps.  The fires per vertex come from
the difference recurrences

    delta_(n-1) = 0,  delta_i = c_(i+1) + k * delta_(i+1)
    f_(n-1) = 0,      f_i = f_(i+1) + delta_i

which unroll to f_i = sum over j of repunit(j) * c_(i+j); root and total fires
are closed forms summed with a running power of k.  `stable_config` keeps the
last pile's configuration, so the closed forms of one pile share its digits.

Conventions: N is the initial pile at the root, k >= 2 the branching factor,
n = height_index(N, k), and layer indices i run 0..n-1 with layer index i
naming the tree layer i+1 (so i = 0 is the root).
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import (_require_at_least, _require_k, exact_div, format_int,
                       height_index, nu, repunit, stable_config)


@dataclass(frozen=True)
class FireProfile:
    """Fires per vertex by layer plus the grand total for one pile."""

    N: int
    k: int
    n: int
    f: tuple[int, ...]
    total: int


def _fires_by_layer(c: tuple[int, ...], k: int) -> list[int]:
    """f_i for every layer i, by the two difference recurrences in n steps."""
    n = len(c)
    f = [0] * n
    delta = 0
    for i in range(n - 2, -1, -1):
        delta = c[i + 1] + k * delta
        f[i] = f[i + 1] + delta
    return f


def _check_layer(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise ValueError(f"layer index {format_int(i)} out of range for height "
                         f"index {format_int(n)}")


def vertex_fires(N: int, k: int, i: int) -> int:
    """Fires of each vertex on layer i+1: sum of repunit(j) * c_(i+j).

    Evaluated by f_i = f_(i+1) + delta_i in O(n) steps.
    """
    cfg = stable_config(N, k)
    _check_layer(i, cfg.n)
    return _fires_by_layer(cfg.c, k)[i]


def vertex_fires_via_root(N: int, k: int, i: int) -> int:
    """Layer fires reduced to root fires of the pile truncated to n-i digits."""
    n = height_index(N, k)
    _check_layer(i, n)
    shifted = (N - repunit(n, k)) // k**i + repunit(n - i, k)
    return root_fires(shifted, k)


def root_fires(N: int, k: int) -> int:
    """Closed form for the number of root fires, in O(n) steps.

    The sum of repunit(j) * c_j = (k^j - 1) c_j / (k-1) is (N - sum c_j)/(k-1),
    because sum c_j k^j = N.
    """
    cfg = stable_config(N, k)
    return exact_div(N - sum(cfg.c), k - 1)


def root_fires_rec(N: int, k: int) -> int:
    """Root fires by the recursion f0(N) = ceil(N/k) - 1 + f0(ceil(N/k) - 1)."""
    _require_at_least("N", N, 0)
    _require_k(k)
    total = 0
    x = N
    while x > 0:
        x = (x - 1) // k  # ceil(x/k) - 1
        total += x
    return total


def total_fires(N: int, k: int) -> int:
    """Closed form for the total number of fires across all vertices.

    The sum of (m k^(m+1) - (m+1) k^m + 1) c_m / (k-1)^2, with p = k^m kept as
    a running power so that the pass is O(n) steps.
    """
    cfg = stable_config(N, k)
    s = 0
    p = 1
    for m, c in enumerate(cfg.c):
        s += (p * (m * (k - 1) - 1) + 1) * c
        p *= k
    return exact_div(s, (k - 1) ** 2)


def total_fires_rec(N: int, k: int) -> int:
    """Total fires by the recursion F(N) = f0(N) + k * F(ceil(N/k) - 1), unrolled.

    With q_0 = N and q_i = ceil(q_(i-1)/k) - 1, the root fires are
    f0(q_j) = sum over i > j of q_i, so F(N) = sum over j of k^j f0(q_j)
    = sum over i >= 1 of q_i * repunit(i): one pass with a running repunit
    r = k*r + 1.  It calls no other route and stays independent of the
    closed forms.
    """
    _require_at_least("N", N, 0)
    _require_k(k)
    total = 0
    r = 0  # repunit(i)
    x = N
    while x > 0:
        x = (x - 1) // k  # q_i
        r = k * r + 1
        total += x * r
    return total


def fire_profile(N: int, k: int) -> FireProfile:
    """All per-layer fire counts and the total, in O(n) steps.

    f comes from the difference recurrences.  Each of the k^i vertices on
    layer i+1 fires f_i times, so the total is sum f_i k^i, a Horner sum over
    f; the total_fires closed form stays a separate route.
    """
    cfg = stable_config(N, k)
    f = _fires_by_layer(cfg.c, k)
    total = 0
    for fi in reversed(f):
        total = total * k + fi
    return FireProfile(N=N, k=k, n=cfg.n, f=tuple(f), total=total)


# --- the all-ones pile N = repunit(n, k) -----------------------------------

def special_vertex_fires(n: int, k: int, i: int) -> int:
    """vertex_fires at N = repunit(n, k), where every layer holds one chip."""
    _check_layer(i, n)
    _require_k(k)
    m = n - i
    return exact_div(k**m - k * m + m - 1, (k - 1) ** 2)


def special_root_fires(n: int, k: int) -> int:
    """root_fires at N = repunit(n, k)."""
    _require_at_least("n", n, 1)
    _require_k(k)
    return exact_div(k**n - n * k + (n - 1), (k - 1) ** 2)


def special_total_fires(n: int, k: int) -> int:
    """total_fires at N = repunit(n, k)."""
    _require_at_least("n", n, 1)
    _require_k(k)
    return exact_div((k * (n - 1) - n - 1) * k**n + k * (n + 1) - n + 1,
                     (k - 1) ** 3)


def divisibility_check(j: int, k: int) -> bool:
    """Whether 2(k+1) divides total_fires(repunit(2j+1, k), k).  Always true."""
    _require_at_least("j", j, 0)
    _require_k(k)
    return special_total_fires(2 * j + 1, k) % (2 * (k + 1)) == 0


# --- the unique-difference-value sequences a and b --------------------------

def a_closed(n: int, k: int) -> int:
    """a(n,k) in closed form: (k^(n+1) - (k-1)n - k) / (k-1)^2."""
    _require_at_least("n", n, 1)
    _require_k(k)
    return exact_div(k ** (n + 1) - (k - 1) * n - k, (k - 1) ** 2)


def a_recursive(n: int, k: int) -> int:
    """a(n,k) by the recursion a(n,k) = k*a(n-1,k) + n with a(1,k) = 1."""
    _require_at_least("n", n, 1)
    _require_k(k)
    a = 1
    for j in range(2, n + 1):
        a = k * a + j
    return a


def a_seq(n: int, k: int) -> int:
    """a(n,k) = k*a(n-1,k) + n with a(1,k) = 1; closed form cross-checked.

    These are the distinct values taken by the total-fires difference D, and
    in base k their digit strings concatenate 1, 2, ..., n for n < k.
    """
    return crosscheck("a", n, k)


def b_closed(n: int, k: int) -> int:
    """b(n,k) in closed form: (k^n ((k-1)n - 1) + 1) / (k-1)^2."""
    _require_at_least("n", n, 1)
    _require_k(k)
    return exact_div(k**n * ((k - 1) * n - 1) + 1, (k - 1) ** 2)


def b_recursive(n: int, k: int) -> int:
    """b(n,k) by the recursion b(n,k) = n*k^(n-1) + b(n-1,k) with b(1,k) = 1."""
    _require_at_least("n", n, 1)
    _require_k(k)
    b = 1
    p = 1  # k^(j-1), kept as a running power
    for j in range(2, n + 1):
        p *= k
        b = j * p + b
    return b


def b_seq(n: int, k: int) -> int:
    """b(n,k) = n*k^(n-1) + b(n-1,k) with b(1,k) = 1; closed form cross-checked.

    Partial sums of b reproduce special_total_fires with the index shifted by
    one: sum(b(1..n)) == special_total_fires(n+1, k).
    """
    return crosscheck("b", n, k)


# --- difference sequences d0 and D ------------------------------------------

def d0_formula(m: int, k: int) -> int:
    """Root-fires difference via trailing-zero counting.

    With x = (k-1)m + 1 and e = nu_k(x), d0(m,k) is e + 1, except at the
    repunits: m == repunit(n,k) exactly when x == k^n, and then d0 is n = e.
    """
    _require_at_least("m", m, 1)
    x = (k - 1) * m + 1
    e = nu(x, k)
    return e if x == k**e else e + 1


def d0_recursive(m: int, k: int) -> int:
    """Root-fires difference via d0(m) = d0((m-1)/k) + 1 when k | m-1, else 1.

    The chain bottoms out at d0(0) = 0 (both g0(1) and g0(0) vanish).
    """
    _require_at_least("m", m, 1)
    _require_k(k)
    depth = 0
    while m > 0 and (m - 1) % k == 0:
        depth += 1
        m = (m - 1) // k
    return depth if m == 0 else depth + 1


def d0_by_replacement(count: int, k: int) -> list[int]:
    """First `count` terms of d0(., k) by the digit-replacement construction.

    Start from all ones; replace every kth occurrence of x-1 with x, starting
    with the (k+1)th occurrence, for x = 2, 3, ... until a pass changes
    nothing.
    """
    _require_at_least("count", count, 1)
    _require_k(k)
    seq = [1] * count
    x = 2
    while True:
        occurrences = 0
        changed = False
        for idx, v in enumerate(seq):
            if v == x - 1:
                occurrences += 1
                if occurrences > k and (occurrences - 1) % k == 0:
                    seq[idx] = x
                    changed = True
        if not changed:
            return seq
        x += 1


def d0(m: int, k: int) -> int:
    """Difference of consecutive root-fire blocks, g0(m+1,k) - g0(m,k)."""
    return crosscheck("d0", m, k)


def D_recursive(m: int, k: int) -> int:
    """Total-fires difference via D(m) = d0(m) + k*D((m-1)/k) when k | m-1."""
    _require_at_least("m", m, 1)
    _require_k(k)
    total = 0
    weight = 1
    x = m
    while x > 0:
        if (x - 1) % k != 0:
            total += weight
            break
        total += weight * d0_recursive(x, k)
        weight *= k
        x = (x - 1) // k
    return total


def D_via_a_seq(m: int, k: int) -> int:
    """Total-fires difference as a_seq evaluated at the d0 value."""
    return a_closed(d0_formula(m, k), k)


def D_explicit(m: int, k: int) -> int:
    """Total-fires difference straight from a trailing-zero count.

    j is n when m == repunit(n,k), else nu_k(m - repunit(n,k)) + 1, and the
    value is the a-sequence closed form at j.
    """
    _require_at_least("m", m, 1)
    n = height_index(m, k)
    r = repunit(n, k)
    j = n if m == r else nu(m - r, k) + 1
    return a_closed(j, k)


def D_diff(m: int, k: int) -> int:
    """Difference of consecutive total-fire blocks, G(m+1,k) - G(m,k)."""
    return crosscheck("D", m, k)


# crosscheck reads this table on every call, so a replaced entry is seen at once
ROUTES = {
    "a": (a_closed, a_recursive),
    "b": (b_closed, b_recursive),
    "d0": (d0_formula, d0_recursive),
    "D": (D_via_a_seq, D_recursive, D_explicit),
    "root_fires": (root_fires, root_fires_rec),
    "total_fires": (total_fires, total_fires_rec),
    "vertex_fires": (vertex_fires, vertex_fires_via_root),
}


def crosscheck(quantity: str, *args: int) -> int:
    """Run each route of `quantity` once; return their value or raise naming each."""
    return _agree(quantity, args, [(r.__name__, r(*args)) for r in ROUTES[quantity]])


def _agree(quantity: str, args: tuple[int, ...], labelled: list[tuple[str, object]]):
    """The value of every (name, value) pair, ints or int tuples, or raise naming each."""
    first = labelled[0][1]
    for _, value in labelled:
        if value != first:
            detail = ", ".join(f"{label} {_text(v)}" for label, v in labelled)
            raise AssertionError(f"{quantity}({', '.join(map(format_int, args))}): "
                                 f"routes disagree: {detail}")
    return first


def _text(value) -> str:
    if isinstance(value, int):
        return format_int(value)
    return f"[{', '.join(map(format_int, value))}]"
