"""Span tracing of ``ordmatch`` from outside the package.

``Tracer.install`` replaces each traced public function, method or
classmethod with a wrapper that records one span per call, in every
``ordmatch`` module that holds a reference to it, so calls between
modules are seen too. ``Tracer.uninstall`` puts every original back and
checks that it did. Nothing inside ``src/ordmatch`` is edited.

A span is (name, start, end, parent span, op id). Spans stay in memory
until ``dump``. A function's self time is its span minus its direct
child spans; the run is single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import math
import time
from array import array

import numpy as np

MODULES = ("cli", "harness", "instance", "core", "reductions", "oracle")

# (layer module, attribute path); "Class.attr" traces a method.
TRACED = (
    ("cli", "main"),
    ("harness", "run_trials"),
    ("harness", "report_emit"),
    ("instance", "generate"),
    ("instance", "derive_preferences"),
    ("instance", "load_instance"),
    ("instance", "validate_metric"),
    ("instance", "WeightedInstance.to_dict"),
    ("core", "RandomSource.derived_seed"),
    ("core", "RandomSource.__init__"),
    ("core", "greedy_k_matching"),
    ("core", "hybrid_matching"),
    ("core", "random_k_matching"),
    ("core", "find_undominated"),
    ("core", "matching_weight"),
    ("core", "Matching.from_pairs"),
    ("reductions", "matching_to_tour"),
    ("reductions", "path_completion"),
    ("reductions", "matching_to_clusters"),
    ("reductions", "matching_to_subset"),
    ("reductions", "cluster_weight"),
    ("reductions", "subset_weight"),
    ("reductions", "path_weight"),
    ("reductions", "tour_weight"),
    ("oracle", "opt_matching"),
    ("oracle", "opt_tsp"),
    ("oracle", "opt_densest"),
    ("oracle", "opt_k_sum"),
)

# Reported per-layer names -> the span names summed into each.
EVALUATE = ("reductions.cluster_weight", "reductions.subset_weight",
            "reductions.path_weight", "reductions.tour_weight")
REPORTED = {f"{m}.{a.replace('__init__', 'init')}": (f"{m}.{a}",)
            for m, a in TRACED if f"{m}.{a}" not in EVALUATE}
REPORTED["reductions.evaluate"] = EVALUATE
ORACLES = ("oracle.opt_matching", "oracle.opt_tsp", "oracle.opt_densest", "oracle.opt_k_sum")


def _dp_states(name, args, kwargs) -> int:
    """States an exact oracle visits, computed from n and k (not counted)."""
    n = args[0].n
    k = args[1] if len(args) > 1 else kwargs.get("k")
    if name == "oracle.opt_matching":
        kcap = min(k, n // 2)
        return (1 << n) * (1 if kcap == n // 2 else kcap + 1)
    if name == "oracle.opt_tsp":
        return (1 << (n - 1)) * (n - 1)
    if name == "oracle.opt_densest":
        return math.comb(n, k)
    c = n // k  # opt_k_sum: number of partitions into k parts of size c
    return math.factorial(n) // (math.factorial(c) ** k * math.factorial(k))


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{a}" for m, a in TRACED]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []
        self.op_id = -1
        self.failed = dict.fromkeys(self.names, 0)
        self.dp_states = 0
        self.greedy_seen = {}
        self.greedy_repeats = 0
        self.ranked = set()
        self.rank_repeats = 0
        self._saved = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.greedy_seen = {}

    def _observe(self, name, args, kwargs) -> None:
        if name == "core.greedy_k_matching":
            profile = args[0]
            key = (id(profile), args[1] if len(args) > 1 else kwargs.get("k"))
            if key in self.greedy_seen:
                self.greedy_repeats += 1
            self.greedy_seen[key] = profile  # keeps the id from being reused
        elif name == "instance.derive_preferences":
            digest = hashlib.blake2b(args[0].weights.tobytes(), digest_size=16).digest()
            if digest in self.ranked:
                self.rank_repeats += 1
            self.ranked.add(digest)
        elif name in ORACLES:
            self.dp_states += _dp_states(name, args, kwargs)

    def _wrap(self, name: str, fn):
        tracer = self
        nid = self.names.index(name)
        observed = name in ORACLES or name in ("core.greedy_k_matching",
                                               "instance.derive_preferences")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observed:
                tracer._observe(name, args, kwargs)
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[name] += 1
                raise
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ordmatch.{m}") for m in MODULES}
        holders = [importlib.import_module("ordmatch"), *mods.values()]
        for m, attr in TRACED:
            name = f"{m}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[m], cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, (staticmethod, classmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mods[m], attr)
            new = self._wrap(name, fn)
            for holder in holders:
                if holder.__dict__.get(attr) is fn:
                    self._saved.append((holder, attr, fn))
                    setattr(holder, attr, new)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and check that it was restored."""
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved
               if o.__dict__.get(a) is not orig]
        self._saved = []
        if bad:
            raise RuntimeError(f"tracer left wrapped attributes behind: {bad}")

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self, time_limit: float) -> dict:
        """Per-name calls and self time, plus the counters."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_t, minlength=k)
        oracle_ids = [self.names.index(n) for n in ORACLES]
        oracle_dur = dur[np.isin(a["name"], oracle_ids)]
        greedy_calls = int(calls[self.names.index("core.greedy_k_matching")])
        rank_calls = int(calls[self.names.index("instance.derive_preferences")])
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "spans": len(dur),
            "dp_states": self.dp_states,
            "budget_used_ratio": float(oracle_dur.max()) / time_limit if len(oracle_dur) else 0.0,
            "oracle_failed": sum(self.failed[n] for n in ORACLES),
            "greedy_repeat_ratio": self.greedy_repeats / greedy_calls if greedy_calls else 0.0,
            "rank_repeat_ratio": self.rank_repeats / rank_calls if rank_calls else 0.0,
        }
