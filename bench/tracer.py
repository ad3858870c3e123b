"""Layer tracer for the benchmark, installed on ``nonadd`` from outside.

Modules bind each other's functions with ``from .x import y``, so a public
function has one binding per importing module.  :meth:`Tracer.install`
replaces every such binding (module globals, the ``CONDITIONS`` and
``CAMPAIGNS`` registries, and three methods) with a wrapper that records a
span; :meth:`Tracer.remove` puts every original back.  Spans stay in memory
until :meth:`Tracer.write` is called at the end of the run.

A span's self time is its duration minus the durations of its direct
children.  The library is single-threaded and has no queues, so there is no
waiting time to record.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time

import nonadd
from nonadd.campaigns import CAMPAIGNS
from nonadd.conditions import CONDITIONS
from nonadd.integrals import IntegralResult
from nonadd.measures import MonotoneMeasure
from nonadd.results import CheckResult, RelationVerdict
from nonadd.scenarios import Scenario

# Extended-real arithmetic and per-point mask helpers run inside operator
# evaluation, once per grid cell or point; a span each would swamp the run,
# so their time stays in the caller's self time.
UNTRACED = {
    "nonadd.core": {"is_xreal", "xadd", "xmul", "xinv", "xdiv", "xmin", "xmax",
                    "combine", "vmul", "vinv", "scale_contains", "level_mask_ge",
                    "level_mask_gt", "iter_submasks", "mask_of"},
}


def package_modules() -> list:
    """The package and every submodule except ``__main__`` (which runs the CLI)."""
    mods = [nonadd]
    for info in pkgutil.iter_modules(nonadd.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"nonadd.{info.name}"))
    return mods


def _patched_methods():
    return ((MonotoneMeasure, "table"), (MonotoneMeasure, "__call__"),
            (Scenario, "__init__"))


def binding_snapshot() -> dict:
    """Identity of every binding the tracer may replace, for checking removal."""
    snap = {}
    for mod in package_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = id(value)
    for i, reg in enumerate((CONDITIONS, CAMPAIGNS)):
        for key, value in reg.items():
            snap[(f"registry{i}", key)] = id(value)
    for cls, attr in _patched_methods():
        snap[(cls.__name__, attr)] = id(cls.__dict__[attr])
    return snap


class Tracer:
    """Records spans and counters around calls into the library's layers."""

    def __init__(self):
        # (name, layer, start_s, end_s, parent_index, self_s); -1 = no parent
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.active = False
        self._stack: list = []          # frames [span_index, child_seconds, name]
        self._restore: list = []        # (target, key, original)
        self._verdicts: dict = {}       # id -> object, held so ids stay unique

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        cond_ids = {id(fn): cid for cid, fn in CONDITIONS.items()}
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            skip = UNTRACED.get(mod.__name__, set())
            for key, fn in vars(mod).items():
                if (key.startswith("_") or key in skip or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if id(fn) in cond_ids:
                    name = f"conditions.{cond_ids[id(fn)]}"
                else:
                    name = f"{layer}.{key}"
                wrappers[id(fn)] = self._wrap(fn, layer, name)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._replace(mod, key, value, wrappers[id(value)])
        for registry in (CONDITIONS, CAMPAIGNS):
            for key, value in list(registry.items()):
                if id(value) in wrappers:
                    self._replace(registry, key, value, wrappers[id(value)])
        self._install_methods()
        self.active = True

    def _install_methods(self) -> None:
        tracer = self
        orig_table = MonotoneMeasure.__dict__["table"]
        traced_build = self._wrap(orig_table, "measures", "measures.table_build")

        @functools.wraps(orig_table)
        def table(mu):
            if mu._table is None and tracer.active:
                return traced_build(mu)
            return orig_table(mu)

        orig_call = MonotoneMeasure.__dict__["__call__"]

        @functools.wraps(orig_call)
        def call(mu, mask):
            if tracer.active:
                tracer.counts["measures.mu_call.calls"] += 1
            return orig_call(mu, mask)

        orig_init = Scenario.__dict__["__init__"]
        self._replace(MonotoneMeasure, "table", orig_table, table)
        self._replace(MonotoneMeasure, "__call__", orig_call, call)
        self._replace(Scenario, "__init__", orig_init,
                      self._wrap(orig_init, "scenarios", "scenarios.Scenario"))

    def _replace(self, target, key, original, wrapper) -> None:
        if isinstance(target, dict):
            target[key] = wrapper
        else:
            setattr(target, key, wrapper)
        self._restore.append((target, key, original))

    def remove(self) -> None:
        """Put every original binding back, newest first."""
        self.active = False
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = name
            if name == "measures.check_measure_property":
                prop = args[1] if len(args) > 1 else kwargs.get("prop")
                span = f"measures.check_property.{prop}"
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [len(tracer.spans), 0.0, span]
            tracer.spans.append(None)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                tracer.spans[frame[0]] = (span, layer, t0, t1,
                                          parent[0] if parent else -1,
                                          t1 - t0 - frame[1])
            tracer._observe(span, args, kwargs, result,
                            parent[2] if parent else None)
            return result

        return wrapper

    def _observe(self, span, args, kwargs, result, parent_name) -> None:
        counts = self.counts
        if span == "operators.verify_flags":
            required = args[1] if len(args) > 1 else kwargs["required"]
            counts["operators.flags_requested"] += len(required)
        elif span == "operators.check_operator_property":
            if parent_name == "operators.verify_flags":
                counts["operators.gate_misses"] += 1
        elif span == "measures.table_build":
            counts["measures.table_build.cells"] += 1 << args[0].space.n
        elif span == "campaigns.run_campaign":
            counts["campaigns.trials"] += args[1] if len(args) > 1 else kwargs["trials"]
        if isinstance(result, IntegralResult):
            counts["integrals.results"] += 1
            counts["integrals.exact"] += bool(result.exact)
        elif isinstance(result, (CheckResult, RelationVerdict)):
            if id(result) not in self._verdicts:
                self._verdicts[id(result)] = result
                counts["verdicts"] += 1
                counts["verdicts.sampled"] += result.mode == "sampled"
            if isinstance(result, RelationVerdict) and span.startswith("relations."):
                counts["relations.verdicts"] += 1
                counts["relations.exhaustive"] += result.mode == "exhaustive"

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict:
        """Per-layer aggregates for a traced phase lasting ``wall_s`` seconds."""
        calls = collections.Counter()
        self_ms = collections.defaultdict(float)
        layer_ms = collections.defaultdict(float)
        covered = 0.0
        for name, layer, t0, t1, parent, self_s in self.spans:
            calls[name] += 1
            self_ms[name] += self_s * 1000.0
            layer_ms[layer] += self_s * 1000.0
            if parent < 0:
                covered += t1 - t0

        def grouped(pred):
            keys = [k for k in calls if pred(k)]
            return sum(calls[k] for k in keys), sum(self_ms[k] for k in keys)

        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_ms"] = self_ms[name]
        out["theorems.verify.calls"], out["theorems.verify.self_ms"] = grouped(
            lambda k: k.startswith("theorems.verify_"))
        out["sampling.calls"] = grouped(lambda k: k.startswith("sampling."))[0]
        for layer, ms in layer_ms.items():
            out[f"{layer}.self_ms"] = ms
        c = self.counts
        for key in ("measures.mu_call.calls", "measures.table_build.cells",
                    "operators.flags_requested", "operators.gate_misses",
                    "campaigns.trials"):
            out[key] = c[key]
        out["operators.gate_hit_ratio"] = _ratio(
            c["operators.flags_requested"] - c["operators.gate_misses"],
            c["operators.flags_requested"])
        out["integrals.exact_ratio"] = _ratio(c["integrals.exact"], c["integrals.results"])
        out["integrals.exact_ratio.base"] = c["integrals.results"]
        out["relations.exhaustive_ratio"] = _ratio(c["relations.exhaustive"],
                                                   c["relations.verdicts"])
        out["relations.exhaustive_ratio.base"] = c["relations.verdicts"]
        out["verdicts.sampled_ratio"] = _ratio(c["verdicts.sampled"], c["verdicts"])
        out["verdicts.sampled_ratio.base"] = c["verdicts"]
        out["bench.traced_wall_ms"] = wall_s * 1000.0
        out["bench.unattributed_ms"] = (wall_s - covered) * 1000.0
        out["bench.spans"] = len(self.spans)
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines, one object per span, times in ms from the first span."""
        base = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, layer, t0, t1, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "layer": layer, "parent": parent,
                    "start_ms": (t0 - base) * 1000.0, "end_ms": (t1 - base) * 1000.0,
                    "self_ms": self_s * 1000.0}) + "\n")


def _ratio(num: int, base: int) -> float:
    """num / base, reported as 0 when the base is 0 (the base is printed too)."""
    return num / base if base else 0.0
