"""Outside-in tracing of chipfire's layers, installed from the benchmark.

The library is not edited.  `Tracer.install` wraps every public function of
each layer module (numerics, formulas, engine, sequences, schizo, cli) and
rebinds the wrapper wherever the package holds the original: module globals
(`formulas` imports `repunit` by name, `schizo` imports `a_seq`) and tuples
in module-level tables (`sequences._GENERATORS` stores `formulas.d0`).
`math.isqrt`, as bound in `schizo`, is wrapped as the span `schizo.isqrt`.

A stack of open spans gives self time: a span's duration minus the time its
child spans cover.  Aggregates cover every traced call; individual spans are
kept in memory up to SPAN_CAP and written out when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("numerics", "formulas", "engine", "sequences", "schizo", "cli")

# functions whose per-call durations are kept for the growth curves
_CURVES = ("formulas.fire_profile", "engine.simulate_layers", "schizo.sqrt_digits")
# the cross-checked entry points, and the routes they compare
_VALUES = ("formulas.d0", "formulas.D_diff")
_ROUTES = ("formulas.d0_formula", "formulas.d0_recursive", "formulas.D_recursive",
           "formulas.D_via_a_seq", "formulas.D_explicit")
_EMITTERS = ("sequences.emit_bfile", "sequences.emit_csv", "sequences.emit_json")
SPAN_CAP = 100_000  # spans kept in memory per run; later ones are only aggregated


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.modules = {layer: sys.modules[f"{package.__name__}.{layer}"]
                        for layer in LAYERS}
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.errors: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.curves: dict[str, list[tuple[object, float]]] = {n: [] for n in _CURVES}
        self.counters = {"engine.node_fires": 0, "sequences.terms": 0}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.job: object = None  # set by the runner before each job
        self._stack: list[list] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[dict, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        for layer, module in self.modules.items():
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._add(obj, f"{layer}.{name}", layer)
        self._add(self.modules["schizo"].isqrt, "schizo.isqrt", "schizo")

    # --- wrapping ------------------------------------------------------------

    def _add(self, fn, name: str, layer: str) -> None:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        for table in (self.calls, self.errors):
            table.append(0)
        for table in (self.self_s, self.total_s):
            table.append(0.0)
        self._wrappers[id(fn)] = (fn, self._wrap(fn, fid, name))

    def _wrap(self, fn, fid: int, name: str):
        clock = time.perf_counter
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, errors, self_s, total_s = self.calls, self.errors, self.self_s, self.total_s
        curve = self.curves.get(name)
        counter = {"engine.simulate": "engine.node_fires",
                   "sequences.generate": "sequences.terms"}.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[fid] += 1
                total_s[fid] += duration
                self_s[fid] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, fid, start, end,
                                  parent[1] if parent else None, tracer.job))
                else:
                    tracer.spans_dropped += 1
                if curve is not None:
                    curve.append((tracer.job, duration))
            if counter is not None:
                tracer.counters[counter] += (len(result.values) if counter == "sequences.terms"
                                             else result.steps)
            return result

        return traced

    def install(self) -> None:
        for module in (self.package, *self.modules.values()):
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if name.startswith("__"):
                    continue
                if self._original(value):
                    self._patch(namespace, name, self._wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if isinstance(entry, tuple) and any(map(self._original, entry)):
                            self._patch(value, key, tuple(
                                self._wrappers[id(e)][1] if self._original(e) else e
                                for e in entry))

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, old = self._patches.pop()
            namespace[key] = old

    def _original(self, value) -> bool:
        entry = self._wrappers.get(id(value))
        return entry is not None and entry[0] is value

    def _patch(self, namespace: dict, key, new) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = new

    # --- results -------------------------------------------------------------

    def _fids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def _sum(self, table, names) -> float:
        return sum(table[f] for f in self._fids(names))

    def layer_table(self) -> dict[str, dict[str, float]]:
        table = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
        for fid, layer in enumerate(self.layer_of):
            row = table[layer]
            row["calls"] += self.calls[fid]
            row["self_s"] += self.self_s[fid]
            row["errors"] += self.errors[fid]
        return table

    def metrics(self, rounds: int, job_tags, bytes_out: int,
                overhead: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round.  job_tags(job) gives a job's tags."""
        out: dict[str, tuple[float, str]] = {}
        for layer, row in self.layer_table().items():
            out[f"{layer}.calls"] = (row["calls"] / rounds, "count")
            out[f"{layer}.self_s"] = (row["self_s"] / rounds, "s")
            out[f"{layer}.errors"] = (row["errors"] / rounds, "count")
        for name in ("numerics.repunit", "numerics.height_index"):
            out[f"{name}.calls"] = (self._sum(self.calls, [name]) / rounds, "count")

        # growth curves: a point per size (piles at k = 2, the deepest, for
        # the d-points) and a log-log slope over n or p fitted to every call
        for name, key, x_key, sizes in (
                ("formulas.fire_profile", "digits", "n", (50, 100, 200)),
                ("engine.simulate_layers", "digits", "n", (50, 100, 200)),
                ("schizo.sqrt_digits", "p", "p", (1000, 10000, 30000))):
            points = [(job_tags(job), seconds) for job, seconds in self.curves[name]]
            points = [(tags, s) for tags, s in points if tags.get(key) in sizes]
            label = "d" if key == "digits" else "p"
            for size in sizes:
                ms = [s * 1e3 for tags, s in points
                      if tags[key] == size and tags.get("k", 2) == 2]
                out[f"{name}.ms.{label}{size}"] = (statistics.median(ms) if ms else 0.0, "ms")
            out[f"{name}.slope"] = (_loglog_slope([(tags[x_key], s) for tags, s in points]),
                                    "1")

        values = self._sum(self.calls, _VALUES)
        routes = self._sum(self.calls, _ROUTES)
        out["formulas.routes_per_value"] = (routes / values if values else 0.0, "ratio")

        fires = self.counters["engine.node_fires"]
        simulate_s = self._sum(self.self_s, ["engine.simulate"])
        out["engine.node_fires"] = (fires / rounds, "count")
        out["engine.us_per_fire"] = (simulate_s / fires * 1e6 if fires else 0.0, "us")

        terms = self.counters["sequences.terms"]
        generate_s = self._sum(self.total_s, ["sequences.generate"])
        out["sequences.terms"] = (terms / rounds, "count")
        out["sequences.us_per_term"] = (generate_s / terms * 1e6 if terms else 0.0, "us")
        out["sequences.emit_s"] = (self._sum(self.total_s, _EMITTERS) / rounds, "s")

        out["schizo.isqrt_s"] = (self._sum(self.total_s, ["schizo.isqrt"]) / rounds, "s")
        out["schizo.convert_s"] = (
            self._sum(self.self_s, ["schizo.sqrt_digits", "schizo.inv_sqrt_digits"]) / rounds,
            "s")
        out["schizo.block_report_s"] = (
            self._sum(self.total_s, ["schizo.block_report"]) / rounds, "s")

        out["cli.bytes_out"] = (bytes_out / rounds, "count")
        out["trace.overhead"] = (overhead, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as sink:
            for span_id, fid, start, end, parent, job in self.spans:
                sink.write(json.dumps({"id": span_id, "name": self.names[fid],
                                       "layer": self.layer_of[fid], "start": start,
                                       "end": end, "parent": parent, "job": job}) + "\n")


def _loglog_slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 without two sizes."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
