"""Seeded job lists for the four benchmark workloads, and their output checks.

A workload is one round's list of job groups.  Every round of a run draws
fresh inputs from the seed, so no job repeats an earlier one.  Each group
holds one or more jobs and one check that sees all of the group's outcomes;
it returns one verdict per job (None when the job's output is correct, else
a message).  The checks use routes independent of the code path that
produced the output and run outside the timed span.

Every job either calls `chipfire.cli.main(argv)` or, for the `bigpile`
oracle, `chipfire.engine.simulate_layers(N, k)`.  Both are looked up on the
module at call time so that the tracer's wrappers see them.

Integers here can be longer than CPython's 4300-digit int/str conversion
limit.  The benchmark converts them in chunks and never lifts the limit,
because lifting it would hide the library's own 4300-digit defects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Chunk width for decimal conversion; below the interpreter's 4300-digit cap.
_CHUNK = 4000


def parse_decimal(text: str) -> int:
    """int(text) for a decimal string of any length, in chunks."""
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    if not text.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i:i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def to_decimal(x: int) -> str:
    """str(x) for a non-negative int of any size, in chunks."""
    if x < 10**_CHUNK:
        return str(x)
    hi, lo = divmod(x, 10**_CHUNK)
    return to_decimal(hi) + str(lo).zfill(_CHUNK)


def _repunit(n: int, k: int) -> int:
    return sum(k**i for i in range(n))


def _a_value(n: int, k: int) -> int:
    a = 1
    for j in range(2, n + 1):
        a = k * a + j
    return a


@dataclass
class Job:
    """One unit the closed loop sends: a CLI argv, or an oracle call."""

    argv: list[str] | None = None
    oracle: tuple[int, int] | None = None  # (N, k) for simulate_layers
    work: int = 0  # units of work this job completes, counted when it passes
    tags: dict = field(default_factory=dict)
    known_defect: str | None = None  # why it fails at the baseline, if it does

    def label(self) -> str:
        if self.argv is None:
            return f"oracle simulate_layers(N~10^{self.tags['digits']}, k)"
        text = " ".join(a if len(a) <= 24 else f"<{len(a)} digits>"
                        for a in self.argv)
        return f"chipfire {text}"


@dataclass
class Outcome:
    rc: int | None = None  # exit code of a CLI job
    stdout: str = ""
    result: object = None  # return value of an oracle job
    error: str | None = None  # exception that escaped the job


@dataclass
class Group:
    jobs: list[Job]
    check: Callable[[list[Outcome]], list[str | None]]


@dataclass
class Workload:
    name: str
    unit: str  # unit of work behind work_per_s
    tail_pct: float  # percentile reported as job_tail_ms
    warmup: list[str]  # untimed, unchecked argv run once before timing
    groups: list[Group]
    # calibration kernels that share the jobs' mix of work (calibrate.py)
    kernels: tuple[str, ...] = ("interpreter",)

    @property
    def jobs_per_round(self) -> int:
        return sum(len(g.jobs) for g in self.groups)


def _cli_failure(out: Outcome) -> str | None:
    if out.error is not None:
        return f"raised {out.error}"
    if out.rc != 0:
        return f"exit code {out.rc}"
    return None


# --- bigpile -----------------------------------------------------------------

def _pile_check(out: list[Outcome], N: int, k: int) -> list[str | None]:
    fires, oracle = out
    if oracle.error is not None:
        bad = f"oracle raised {oracle.error}"
        return [bad, bad]
    sim = oracle.result
    verdict = _cli_failure(fires)
    if verdict is None:
        got = json.loads(fires.stdout, parse_int=parse_decimal)
        want = {"N": N, "k": k, "n": sim.n,
                "fires_per_vertex": list(sim.fires_by_layer),
                "root_fires": sim.root_fires, "total_fires": sim.total_fires}
        if got != want:
            verdict = "fires JSON differs from the layer-engine oracle"
    return [verdict, None]


# Piles per (digits, k).  Job times span three orders of magnitude, so the
# counts put the median job inside a cluster of about 45 ms (d50/k=2 jobs,
# d100/k=3 oracles) and the 75th percentile inside one of 100-130 ms
# (d100/k=3 and d200/k=10 fires jobs), not on the edge between two kinds.
_PILES = {(50, 2): 3, (50, 3): 1, (50, 10): 1, (100, 2): 1, (100, 3): 3,
          (100, 10): 1, (200, 2): 1, (200, 3): 1, (200, 10): 2}


def bigpile(rng: random.Random, root: Path) -> Workload:
    """Deep piles: 50, 100 and 200 decimal digits at k = 2, 3, 10."""
    piles = []
    for (digits, k), count in _PILES.items():
        for _ in range(count):
            N = rng.randrange(10 ** (digits - 1), 10**digits)
            piles.append((N, k, {"digits": digits, "k": k}))
    # N above the 4300-digit str/int limit with n = 5.  The CLI rejects it
    # today (argparse "invalid int value", exit 2); kept so the defect shows.
    k = rng.randrange(10**999, 10**1000)
    N = _repunit(5, k) + rng.randrange(k**5)
    piles.append((N, k, {"digits": len(to_decimal(N)), "k": "~10^999",
                         "defect": True}))
    groups = []
    for N, k, tags in piles:
        n = _height(N, k)
        tags = dict(tags, n=n)
        fires = Job(argv=["fires", "-N", to_decimal(N), "-k", to_decimal(k),
                          "-f", "json"], work=n, tags=tags)
        if tags.get("defect"):
            fires.known_defect = ("N has more than 4300 digits: argparse "
                                  "int() refuses it, exit 2")
        oracle = Job(oracle=(N, k), tags=tags)
        groups.append(Group(
            jobs=[fires, oracle],
            check=lambda out, N=N, k=k: _pile_check(out, N, k)))
    rng.shuffle(groups)
    return Workload(name="bigpile", unit="layers", tail_pct=75.0,
                    warmup=["fires", "-N", "1000", "-k", "2", "-f", "json"],
                    groups=groups, kernels=("interpreter", "bigint"))


def _height(N: int, k: int) -> int:
    n, nxt = 1, k + 1
    while nxt <= N:
        n, nxt = n + 1, nxt * k + 1
    return n


# --- sweep -------------------------------------------------------------------

# node-level pile cap per k, so that one node-level run costs about the same
# at every k (k = 2 fires far more often per chip than k = 6)
_NODE_N = {2: 92, 3: 135, 4: 165, 5: 180, 6: 215}
# seeds per k, dealt out in a seeded order: the total stays fixed
_SEED_COUNTS = (1, 2, 2, 2, 3)


def _verify_check(out: list[Outcome]) -> list[str | None]:
    (o,) = out
    verdict = _cli_failure(o)
    if verdict is None and "verify: all checks passed" not in o.stdout.splitlines():
        verdict = "no 'verify: all checks passed' line"
    return [verdict]


def sweep(rng: random.Random, root: Path) -> Workload:
    """verify over small (N, k) cells: formula checks and node-level confluence."""
    groups = []
    k_ranges = [(k, k) for k in range(2, 7)] + [(2, 3), (3, 4), (4, 5), (5, 6), (2, 6)]
    for lo, hi in k_ranges:
        N = rng.randrange(475, 526)
        argv = ["verify", "-k", f"{lo}..{hi}", "-N", str(N)]
        groups.append(Group([Job(argv=argv, work=N * (hi - lo + 1))], _verify_check))
    seed_counts = list(_SEED_COUNTS)
    rng.shuffle(seed_counts)
    for k, seeds in zip(range(2, 7), seed_counts):
        # every strategy runs `seeds` times at every k, split over two jobs
        strategies = ["bfs", "max-chips", "random"]
        rng.shuffle(strategies)
        node_N = _NODE_N[k] + rng.randrange(-2, 3)
        for subset in (strategies[:2], strategies[2:]):
            argv = ["verify", "-k", str(k), "-N", str(node_N), "--strategies",
                    ",".join(subset), "--seeds", str(seeds), "--node-N", str(node_N)]
            runs = len(subset) * seeds
            groups.append(Group([Job(argv=argv, work=node_N * (1 + runs))],
                                _verify_check))
    rng.shuffle(groups)
    return Workload(name="sweep", unit="cells", tail_pct=90.0,
                    warmup=["verify", "-k", "2", "-N", "20", "--strategies",
                            "bfs", "--node-N", "10"],
                    groups=groups)


# --- bfile -------------------------------------------------------------------

def _bfile_routes(formulas) -> dict[str, Callable[[int, int], int]]:
    """Recursion-family routes, independent of the closed forms `seq` uses."""
    return {
        "g0": lambda m, k: formulas.root_fires_rec(m * k, k),
        "G": lambda m, k: formulas.total_fires_rec(m * k, k),
        "d0": formulas.d0_recursive,
        "D": formulas.D_recursive,
        "F_raw": formulas.total_fires_rec,
    }


def _f_special_by_b(n: int, k: int) -> int:
    """F_special(n, k) as the partial sum b(1) + ... + b(n-1), b(j) = j k^(j-1) + b(j-1)."""
    total = b = 0
    power = 1
    for j in range(1, n):
        b += j * power
        power *= k
        total += b
    return total


def _parse_window(text: str, fmt: str) -> list[tuple[int, int]]:
    if fmt == "json":
        return [tuple(p) for p in json.loads(text, parse_int=parse_decimal)]
    sep = " " if fmt == "bfile" else ","
    lines = text.splitlines()
    if fmt == "csv" and lines and lines[0] == "index,value":
        lines = lines[1:]
    pairs = []
    for line in lines:
        i, v = line.split(sep)
        pairs.append((parse_decimal(i), parse_decimal(v)))
    return pairs


def _window_check(out: list[Outcome], spec: dict, route, refs: dict,
                  golden: list[str] | None) -> list[str | None]:
    (o,) = out
    verdict = _cli_failure(o)
    if verdict is not None:
        return [verdict]
    pairs = _parse_window(o.stdout, spec["fmt"])
    start, count, k = spec["start"], spec["count"], spec["k"]
    length = count - 1 if spec["diff"] else count
    if [i for i, _ in pairs] != list(range(start, start + length)):
        return ["wrong indices"]
    values = dict(pairs)
    for i, want in refs.items():
        if i in values and values[i] != want:
            return [f"term {i} differs from the published reference"]
    if golden is not None:
        lines = o.stdout.splitlines()
        overlap = min(len(lines), len(golden))
        if lines[:overlap] != golden[:overlap]:
            return ["b-file lines differ from the golden file"]
    for i in spec["sample"]:
        if i not in values:
            continue
        want = route(i + 1, k) - route(i, k) if spec["diff"] else route(i, k)
        if values[i] != want:
            return [f"term {i} differs from the recursion route"]
    return [None]


def _special_check(out: list[Outcome], start: int, count: int, k: int) -> list[str | None]:
    (o,) = out
    verdict = _cli_failure(o)
    if verdict is None:
        want = [(i, _f_special_by_b(i, k)) for i in range(start, start + count)]
        if _parse_window(o.stdout, "bfile") != want:
            verdict = "F_special differs from the partial sums of b"
    return [verdict]


def _load_golden(root: Path) -> dict[tuple[str, int], list[str]]:
    golden = {}
    for path in sorted((root / "tests" / "golden").glob("bfile_*_k*.txt")):
        name, k = path.stem[len("bfile_"):].rsplit("_k", 1)
        golden[(name, int(k))] = path.read_text().splitlines()
    if not golden:
        raise FileNotFoundError(f"no golden b-files under {root / 'tests' / 'golden'}")
    return golden


_DEEP_EXPONENTS = (6, 9, 12, 18, 24, 30)
_DEEP_K = (2, 3, 4, 6, 8, 10)


def bfile(rng: random.Random, root: Path) -> Workload:
    """Sequence windows at index 1 and deep (10^6 to 10^30), three formats."""
    from chipfire import formulas, sequences

    golden = _load_golden(root)
    fixtures: dict[tuple[str, int], dict[int, int]] = {}
    for fx in sequences.reference_fixtures():
        w = fx.window
        ref = fixtures.setdefault((w.id.name, w.id.k), {})
        ref.update((w.start + i, v) for i, v in enumerate(w.values))
    routes = _bfile_routes(formulas)
    golden_k = {name: k for name, k in golden}
    groups = []
    for j, name in enumerate(("g0", "G", "d0", "D", "F_raw")):
        slots = [(1, golden_k.get(name, rng.randrange(2, 7)), "bfile")]
        slots.append((1, rng.randrange(2, 11), rng.choice(("csv", "json"))))
        # a fixed (depth, k) grid: the cost of a term grows with log_k(start),
        # so seeded depths or k would make the round's cost depend on the seed
        for i, exponent in enumerate(_DEEP_EXPONENTS):
            k = _DEEP_K[(i + j) % len(_DEEP_K)]
            slots.append((rng.randrange(10**exponent, 2 * 10**exponent), k,
                          rng.choice(("bfile", "csv", "json"))))
        for start, k, fmt in slots:
            count = rng.randrange(475, 526)
            diff = name in ("g0", "G", "F_raw") and start > 1 and rng.random() < 0.5
            spec = {"start": start, "count": count, "k": k, "fmt": fmt,
                    "diff": diff,
                    "sample": sorted(rng.sample(range(start, start + count - 1), 8))}
            argv = ["seq", name, "-k", str(k), "-n", str(count),
                    "--start", str(start), "-f", fmt]
            if diff:
                argv.append("--diff")
            if fmt == "csv" and rng.random() < 0.5:
                argv.append("--header")
            refs = fixtures.get((name, k), {}) if start == 1 and not diff else {}
            gold = golden.get((name, k)) if start == 1 and fmt == "bfile" else None
            groups.append(Group(
                [Job(argv=argv, work=count)],
                lambda out, spec=spec, route=routes[name], refs=refs, gold=gold:
                    _window_check(out, spec, route, refs, gold)))
    rng.shuffle(groups)
    # F_special values past index 4300 have more than 4300 digits; the CLI
    # cannot print them today ("Exceeds the limit (4300 digits)", exit 2).
    defect = Job(argv=["seq", "F_special", "-k", "10", "--start", "4400", "-n", "3",
                       "-f", "bfile"], work=3,
                 known_defect="values above 4300 digits: str() raises, exit 2")
    groups.append(Group([defect], lambda out: _special_check(out, 4400, 3, 10)))
    return Workload(name="bfile", unit="terms", tail_pct=95.0,
                    warmup=["seq", "g0", "-k", "2", "-n", "10", "-f", "bfile"],
                    groups=groups)


# --- digits ------------------------------------------------------------------

def _digits_check(out: list[Outcome], spec: dict) -> list[str | None]:
    (o,) = out
    verdict = _cli_failure(o)
    if verdict is not None:
        return [verdict]
    if spec["fmt"] == "json":
        digits = json.loads(o.stdout)["digits"]
    else:
        digits = o.stdout.splitlines()[1].split(" = ", 1)[1]
    int_part, frac = digits.split(".")
    p = spec["p"]
    if len(frac) != p:
        return [f"{len(frac)} fractional digits, expected {p}"]
    s = parse_decimal(int_part + frac)
    x = _a_value(spec["n"], spec["k"])
    scale = 10 ** (2 * p)
    if spec["inverse"]:
        ok = s * s * x <= scale < (s + 1) * (s + 1) * x
    else:
        ok = s * s <= x * scale < (s + 1) * (s + 1)
    return [None if ok else "digits are not the truncated root"]


def digits(rng: random.Random, root: Path) -> Workload:
    """Square-root and inverse-square-root digit dumps at p = 10^3, 10^4, 3*10^4."""
    groups = []
    # 5/4/3 jobs per precision keeps the median job inside the p = 10^4 group
    # and the 90th percentile inside the p = 3*10^4 group.
    for p, jobs in ((1000, 5), (10000, 4), (30000, 3)):
        first_inverse = rng.random() < 0.5
        for j in range(jobs):
            spec = {"p": p, "k": rng.randrange(2, 11), "n": rng.randrange(3, 22, 2),
                    "inverse": (j % 2 == 0) == first_inverse,
                    "fmt": rng.choice(("table", "json"))}
            argv = ["schizo", "-k", str(spec["k"]), "-n", str(spec["n"]),
                    "-p", str(p), "-f", spec["fmt"]]
            if spec["inverse"]:
                argv.append("--inverse")
            groups.append(Group([Job(argv=argv, work=p, tags={"p": p})],
                                lambda out, spec=spec: _digits_check(out, spec)))
    rng.shuffle(groups)
    return Workload(name="digits", unit="digits", tail_pct=90.0,
                    warmup=["schizo", "-k", "10", "-n", "3", "-p", "100"],
                    groups=groups, kernels=("bigint",))


WORKLOADS = {"bigpile": bigpile, "sweep": sweep, "bfile": bfile, "digits": digits}


def make_round(name: str, seed: int, round_index: int, root: Path) -> Workload:
    """The jobs of one round; the same (name, seed, round) gives the same jobs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}:{round_index}"), root)
