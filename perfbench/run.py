"""Closed-loop benchmark of the chipfire package.

    python3 perfbench/run.py --workload bigpile --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src.  One
client sends each job only after the previous one has finished, in this
process and on one thread.  A run makes whole rounds, each a fresh job list
drawn from the seed, until `--seconds` of timed job time have passed and
enough jobs have run for the tail percentile.  Each job's output is checked
outside the timed span.  Every timed span is scaled to a reference host speed
by the calibration kernels timed around it (see calibrate.py); the raw figures
are printed beside the scaled ones.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics, the tracing overhead, a
per-layer table, and writes the traced spans to perfbench/out/.
`--workload all` runs every workload in turn.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every job
passed its check or failed as a recorded known defect, 1 when another job
failed, and 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import HostClock
from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Job, Outcome, make_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 15
# what a CLI user pays on every call: imports, parser, one trivial command
SETUP_CODE = """\
import contextlib, io, time
t = time.perf_counter()
import chipfire, chipfire.cli
with contextlib.redirect_stdout(io.StringIO()):
    chipfire.cli.main(["stable", "-N", "1", "-k", "2"])
print(time.perf_counter() - t)
"""
TAIL_SAMPLES = 10  # samples that must lie beyond the tail percentile


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: (scaled, raw)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    clock = HostClock(("interpreter",))
    raw, marks = [], []
    for _ in range(SETUP_SAMPLES):
        marks.append(clock.sample())
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        raw.append(float(proc.stdout))
    clock.sample()
    return [s * clock.scale(m) for s, m in zip(raw, marks)], raw


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Runner:
    """Runs a workload's rounds, each with fresh seeded jobs, and tallies checks."""

    def __init__(self, name: str, seed: int, chipfire) -> None:
        self.name, self.seed = name, seed
        self.workload = make_round(name, seed, 0, ROOT)  # every round has this shape
        self.cli = chipfire.cli
        self.engine = chipfire.engine
        self.clock = HostClock(self.workload.kernels)
        self.tracer = None
        self.rounds = 0
        self.attempted = self.failed = self.unexpected = 0
        self.work = 0
        self.bytes_out = 0
        self.failures: dict[tuple[str, str], list] = {}  # (kind, verdict) -> [count, job]
        self.tags: dict[tuple[int, int, int], dict] = {}  # traced job id -> job tags

    def run_job(self, job):
        out = Outcome()
        if job.argv is not None:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    out.rc = self.cli.main(job.argv)
                except SystemExit as exc:
                    out.rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a job that crashes is a failed job
                    out.error = f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
            out.stdout = stdout.getvalue()
        else:
            start = time.perf_counter()
            try:
                out.result = self.engine.simulate_layers(*job.oracle)
            except Exception as exc:
                out.error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        return out, seconds

    def run_round(self) -> list[tuple[float, int]]:
        """One pass over a fresh job list.  Returns each job's timed seconds and
        the index of the clock sample taken before it."""
        workload = make_round(self.name, self.seed, self.rounds, ROOT)
        self.rounds += 1
        times = []
        outcomes = []
        for gi, group in enumerate(workload.groups):
            outs = []
            for ji, job in enumerate(group.jobs):
                if self.tracer is not None:
                    self.tracer.job = (self.rounds, gi, ji)
                    self.tags[self.tracer.job] = job.tags
                mark = self.clock.tick()
                out, seconds = self.run_job(job)
                outs.append(out)
                times.append((seconds, mark))
            outcomes.append(outs)
        for group, outs in zip(workload.groups, outcomes):
            self._tally(group, outs)
        return times

    def _tally(self, group, outs) -> None:
        try:
            verdicts = group.check(outs)
        except Exception as exc:  # output so malformed that the parser rejects it
            verdicts = [f"check raised {type(exc).__name__}: {exc}"] * len(outs)
        for job, out, verdict in zip(group.jobs, outs, verdicts):
            self.attempted += 1
            self.bytes_out += len(out.stdout.encode())
            if verdict is None:
                self.work += job.work
                continue
            self.failed += 1
            if job.known_defect is None:
                self.unexpected += 1
            kind = f"known defect ({job.known_defect})" if job.known_defect else "FAILED"
            self.failures.setdefault((kind, verdict), [0, job])[0] += 1

    def min_rounds(self) -> int:
        needed = TAIL_SAMPLES / (1 - self.workload.tail_pct / 100)
        return max(1, math.ceil(needed / self.workload.jobs_per_round))

    def warm_up(self) -> None:
        self.run_job(Job(argv=self.workload.warmup))

    def scaled(self, rounds: list[list[tuple[float, int]]]) -> list[list[float]]:
        """Each round's job times scaled to the reference host speed.  Call
        after the last round: the span after the final sample needs one more."""
        self.clock.sample()
        return [[seconds * self.clock.scale(mark) for seconds, mark in times]
                for times in rounds]

    def report_failures(self) -> None:
        for (kind, verdict), (count, job) in self.failures.items():
            print(f"  {kind}, {count} jobs, e.g. {job.label()}: {verdict}")


def run_untraced(runner: Runner, seconds: float) -> dict:
    workload = runner.workload
    setup, setup_raw = measure_setup()
    runner.warm_up()
    rounds: list[list[tuple[float, int]]] = []
    raw = 0.0
    while raw < seconds or len(rounds) < runner.min_rounds():
        rounds.append(runner.run_round())
        raw += sum(s for s, _ in rounds[-1])
    scaled = runner.scaled(rounds)
    elapsed = sum(map(sum, scaled))
    job_times = sorted(s for times in scaled for s in times)
    tail = workload.tail_pct
    print(f"{workload.name}: raw setup_s {statistics.median(setup_raw):.6g}, raw timed "
          f"{raw:.6g} s, scaled {elapsed:.6g} s; host speed {elapsed / raw:.3f} of the "
          f"reference ({len(runner.clock.samples)} samples of the "
          f"{' and '.join(workload.kernels)} kernel)")
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "wall_s": (elapsed / len(rounds), "s",
                   f"mean of {len(rounds)} rounds of {workload.jobs_per_round} jobs"),
        "jobs_per_s": (len(job_times) / elapsed, "1/s", f"{len(job_times)} jobs"),
        "job_p50_ms": (percentile(job_times, 50) * 1e3, "ms", f"p50 of {len(job_times)} jobs"),
        "job_tail_ms": (percentile(job_times, tail) * 1e3, "ms",
                        f"p{tail:g} of {len(job_times)} jobs"),
        "work_per_s": (runner.work / elapsed, "1/s",
                       f"{workload.unit}_per_s, {runner.work} {workload.unit}"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                         "1 process"),
    }


def run_traced(runner: Runner, chipfire, seconds: float) -> dict:
    workload = runner.workload
    tracer = Tracer(chipfire)
    runner.warm_up()
    plain: list[list[tuple[float, int]]] = []
    traced: list[list[tuple[float, int]]] = []
    traced_bytes = 0
    raw = 0.0
    while raw < seconds or not traced:
        plain.append(runner.run_round())
        bytes_before = runner.bytes_out
        runner.tracer = tracer
        tracer.install()
        try:
            traced.append(runner.run_round())
        finally:
            tracer.uninstall()
            runner.tracer = None
        traced_bytes += runner.bytes_out - bytes_before
        raw += sum(s for s, _ in plain[-1] + traced[-1])
    plain_s, traced_s = (list(map(sum, runner.scaled(r))) for r in (plain, traced))
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics = tracer.metrics(len(traced), runner.tags.__getitem__, traced_bytes, overhead)
    table = tracer.layer_table()
    busy = sum(row["self_s"] for row in table.values()) or 1.0
    print(f"per-layer table, {workload.name}, {len(traced)} traced rounds "
          f"(tracing overhead {overhead:.2f}x):")
    print(f"  {'layer':<10} {'calls':>10} {'self_s':>10} {'share':>7} {'errors':>7}")
    for layer in LAYERS:
        row = table[layer]
        print(f"  {layer:<10} {row['calls']:>10} {row['self_s']:>10.4f} "
              f"{100 * row['self_s'] / busy:>6.1f}% {row['errors']:>7}")
    path = OUT / f"spans-{workload.name}-seed{runner.seed}.jsonl"
    tracer.write_spans(path)
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
          f" ({tracer.spans_dropped} beyond the cap counted, not kept)")
    return {name: (value, unit, f"per traced round, {len(traced)} rounds")
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bigpile", "sweep", "bfile", "digits", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chipfire" / "__init__.py").is_file():
        print(f"error: no chipfire package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chipfire
    import chipfire.cli

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        runner = Runner(name, args.seed, chipfire)
        if args.trace:
            metrics = run_traced(runner, chipfire, args.seconds)
        else:
            metrics = run_untraced(runner, args.seconds)
        ratio = runner.failed / runner.attempted
        print(f"{name} (seed {args.seed}): {runner.attempted} jobs, {runner.failed} failed, "
              f"error_ratio {ratio:.4f}")
        runner.report_failures()
        for metric, (value, unit, samples) in metrics.items():
            print(f"  {metric:<34} {value:>14.6g} {unit:<6} ({samples})")
        result["correct"] = result["correct"] and runner.unexpected == 0
        result["attempted"] += runner.attempted
        result["failed"] += runner.failed
        prefix = f"{name}." if args.workload == "all" else ""
        result["metrics"].update({prefix + metric: {"value": value, "unit": unit}
                                  for metric, (value, unit, _) in metrics.items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
