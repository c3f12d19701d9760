"""Span tracer for the traced benchmark run.

`install` wraps the public functions of each package module (the layers)
and rebinds every reference the package holds to them, including
`from ... import` copies such as `graphs.spectrum` and the re-exports in
`edgespectra/__init__.py`.  A wrapper records one span per call: name,
start, end, parent span, op id, the exception that ended it, and a few
counts taken from its arguments and result.  Spans stay in memory until
the pass ends.

A span's self time is its duration minus the part of it that child spans
cover.  Calls made from worker threads (the witness7 campaign) have no
parent on their own thread, so they are parented to the op's root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "cliquespec", "certify", "squares", "pell", "graphs", "repcount")

# Public helpers that run once per candidate, subset or loop step inside
# other public functions.  A span per call would cost more than the call,
# so their time stays in their callers' self time, like all of
# edgespectra.triangles.  Generator functions are skipped too: a span
# around one would end before any work is done.
FINE_GRAINED = frozenset({
    "graphs.pair_list",
    "graphs.subset_pair_mask",
    "certify.two_part_witness",
    "repcount.q_form",
})

CATALOGUE_LEVELS = range(2, 9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, t0, t1, parent, op, error, extra]
        self.active = False
        self.op = -1
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self.witness_keys: set = set()  # (n, r) whose witness tables were built

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        self.op, self.root, self.active = op, None, True

    def end_op(self) -> None:
        self.active = False

    def wrap(self, name: str, fn, extra=None):
        tracer = self  # the closure reads the tracer's state at call time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            if parent is None:
                tracer.root = sid
            rec = [sid, name, 0.0, 0.0, parent, tracer.op, None, None]
            tracer.spans.append(rec)
            stack.append(sid)
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if extra is not None:
                rec[7] = extra(tracer, args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Counts taken at the wrapped boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _member_witness(tracer, args, kwargs, result):
    n, r = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "r")
    key = (n, min(max(r, 1), max(n, 1)))  # the key the witness tables use
    cold = key not in tracer.witness_keys
    tracer.witness_keys.add(key)
    return {"cold": cold}


def _canonical_reps(original):
    def extra(tracer, args, kwargs, result):
        n = _arg(args, kwargs, 0, "n")
        # level n augments every class at n - 1 by all 2^(n-1) neighbourhoods
        below = len(original(n - 1)) if n > 1 else 0
        return {"level": n, "classes": len(result), "candidates": below << (n - 1)}
    return extra


_EXTRAS = {
    "cliquespec.spectrum": lambda t, a, k, res: {"mask_bits": res.mask.bit_length()},
    "cliquespec.members": lambda t, a, k, res: {"items": len(res)},
    "cliquespec.member_witness": _member_witness,
    "repcount.rep_histogram": lambda t, a, k, res: {"tuples": res.total_tuples},
    "graphs.arrow": lambda t, a, k, res: {"dedup": bool(k.get("dedup", False))},
    "graphs.compute_Snm": lambda t, a, k, res: {"dedup": bool(k.get("dedup", False))},
}


# ---------------------------------------------------------------------------
# Installing wrappers on every binding
# ---------------------------------------------------------------------------

def _package_namespaces():
    """Every module and class namespace of the package that can hold a binding."""
    for modname, mod in list(sys.modules.items()):
        if modname != "edgespectra" and not modname.startswith("edgespectra."):
            continue
        yield mod
        for obj in list(vars(mod).values()):
            if isinstance(obj, type) and obj.__module__ == modname:
                yield obj


def targets() -> dict[int, tuple[str, object]]:
    """id(original) -> (span name, original) for every traced function."""
    found: dict[int, tuple[str, object]] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"edgespectra.{layer}")
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if attr.startswith("_") or name in FINE_GRAINED or isinstance(obj, type):
                continue
            fn = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if inspect.isgeneratorfunction(fn):
                continue
            found[id(obj)] = (name, obj)
    members = importlib.import_module("edgespectra.cliquespec").EdgeSpectrum.members
    found[id(members)] = ("cliquespec.members", members)
    return found


def install(tracer: Tracer) -> dict[int, tuple[str, object]]:
    """Wrap every traced function and rebind every reference to it."""
    originals = targets()
    wrapped = {}
    for key, (name, obj) in originals.items():
        extra = _canonical_reps(obj) if name == "graphs.canonical_reps" else _EXTRAS.get(name)
        wrapped[key] = tracer.wrap(name, obj, extra)
    for ns in _package_namespaces():
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                setattr(ns, attr, wrapped[id(obj)])
    return originals


def unwrapped_bindings(originals: dict[int, tuple[str, object]]) -> list[str]:
    """Package bindings that still point at an original function."""
    missed = []
    for ns in _package_namespaces():
        for attr, obj in vars(ns).items():
            if id(obj) in originals and originals[id(obj)][1] is obj:
                missed.append(f"{ns.__name__}.{attr}")
    return missed


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced pass
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from one pass's spans.

    For a function F of layer L: F.calls counts its spans, F.s sums the
    durations of those not nested in another span of F, F.self_s sums
    self times.  L.self_s sums the self times of all of L's spans, and
    L.errors counts spans that ended in an exception (one exception that
    crosses three layers counts in each).  harness.self_s is the time of
    the timed calls outside any span, so the layers' self times plus
    harness.self_s equal trace.wall_s, up to trace.unaccounted_s: the
    overlap of spans run at once on worker threads.
    """
    by_id = {s[0]: s for s in spans}
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            kids[s[4]].append((s[2], s[3]))

    def outermost(s) -> bool:
        p = s[4]
        while p is not None:
            if by_id[p][1] == s[1]:
                return False
            p = by_id[p][4]
        return True

    m: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.errors"] = 0
    root_s = 0.0
    for s in spans:
        sid, name, t0, t1, parent, _, error, extra = s
        dur = t1 - t0
        self_s = dur - _covered(kids.get(sid, []))
        layer = name.split(".")[0]
        m[f"{layer}.self_s"] += self_s
        m[f"{layer}.errors"] += error is not None
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += self_s
        m[f"{name}.errors"] += error is not None
        if outermost(s):
            m[f"{name}.s"] += dur
        if parent is None:
            root_s += dur
            m["cli.uncaught"] += error is not None
        extra = extra or {}
        if "mask_bits" in extra:
            m["cliquespec.spectrum.mask_bits"] += extra["mask_bits"]
        if "items" in extra:
            m["cliquespec.members.items"] += extra["items"]
        if extra.get("cold"):
            m["cliquespec.member_witness.cold_s"] += dur
        if "tuples" in extra:
            m["repcount.rep_histogram.tuples"] += extra["tuples"]
        if "dedup" in extra:
            m[f"{name}.{'dedup' if extra['dedup'] else 'labeled'}_s"] += dur
        if "level" in extra and extra["level"] in CATALOGUE_LEVELS:
            key = f"graphs.canonical_reps.n{extra['level']}"
            m[f"{key}.self_s"] += self_s
            m[f"{key}.classes"] = extra["classes"]
            m[f"{key}.candidates"] = extra["candidates"]
    for n in CATALOGUE_LEVELS:
        key = f"graphs.canonical_reps.n{n}"
        cand = m[f"{key}.candidates"]
        m[f"{key}.accept_ratio"] = m[f"{key}.classes"] / cand if cand else 0.0
    m["harness.self_s"] = wall_s - root_s
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    m["trace.unaccounted_s"] = wall_s - m["harness.self_s"] - sum(
        m[f"{layer}.self_s"] for layer in LAYERS)
    return dict(m)
