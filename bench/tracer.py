"""Outside-in tracer for the traced benchmark run.

The program has no tracing of its own.  ``Tracer.install`` replaces meandro
functions and methods where their callers look them up (module attributes
such as ``meandro.cli.evaluate_sum``, class attributes such as
``QLogModel.derivative``) with wrappers that record spans; ``uninstall``
puts the originals back.  A target that no longer exists is skipped and
listed in ``Tracer.missing``, so the benchmark keeps running after the
program is refactored.

Spans are kept in memory.  Layer boundaries called a few hundred times per
pass are stored as full spans (name, start, end, parent, operation id, self
time).  Per-sheet calls (term, derivative, nearest_pole, ...) happen up to
millions of times per pass, so each is folded into its nearest stored
ancestor as a (direct parent, name) -> [calls, seconds, units] entry; that
keeps memory bounded while every count stays exact.  A span's self time is
its duration minus the time its direct children cover; children that ran
in pool threads are merged as intervals.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "parent", "anchor", "start", "child_s", "id", "cross", "agg", "mags")

    def __init__(self, name: str, parent: "_Frame | None"):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.mags = None


class Span:
    """A stored span.  ``agg`` holds the folded per-sheet calls beneath it."""

    __slots__ = ("id", "name", "parent", "parent_name", "op", "start", "end", "self_s", "agg", "extra")

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "parent_name": self.parent_name,
            "op": self.op, "start": self.start, "end": self.end, "self_s": self.self_s,
            "folded": [[p, n, *v] for (p, n), v in self.agg.items()], **self.extra,
        }


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._root: _Frame | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # -- operations ----------------------------------------------------------

    def begin_op(self, name: str) -> None:
        """Open the root span of one benchmark operation on this thread."""
        self.op += 1
        root = self._open(name, None, structural=True, engine=False)
        self._stack().append(root)
        self._root = root

    def end_op(self) -> None:
        root = self._root
        self._stack().pop()
        self._root = None
        self._store(root, _clock(), {})

    # -- frames --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: _Frame | None, structural: bool, engine: bool) -> _Frame:
        frame = _Frame(name, parent)
        if structural:
            frame.id = next(self._ids)
            frame.anchor = frame
            frame.cross = []
            frame.agg = {}
            if engine:
                frame.mags = []
        else:
            frame.anchor = parent.anchor
        frame.start = _clock()
        return frame

    def _close(self, frame: _Frame, end: float, same_thread: bool) -> None:
        parent = frame.parent
        if same_thread:
            parent.child_s += end - frame.start
        else:
            with self._lock:
                parent.cross.append((frame.start, end))

    def _fold(self, frame: _Frame, seconds: float, units: int) -> None:
        anchor = frame.anchor
        key = (frame.parent.name, frame.name)
        if anchor is self._root:
            self._lock.acquire()
        try:
            entry = anchor.agg.get(key)
            if entry is None:
                anchor.agg[key] = [1, seconds, units]
            else:
                entry[0] += 1
                entry[1] += seconds
                entry[2] += units
        finally:
            if anchor is self._root:
                self._lock.release()

    def _store(self, frame: _Frame, end: float, extra: dict) -> None:
        span = Span()
        span.id, span.name, span.op = frame.id, frame.name, self.op
        parent = frame.parent
        span.parent = parent.anchor.id if parent is not None else None
        span.parent_name = parent.name if parent is not None else None
        span.start, span.end = frame.start, end
        span.self_s = end - frame.start - frame.child_s - _union(frame.cross)
        span.agg, span.extra = frame.agg, extra
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, structural: bool, engine: bool = False,
              units: Callable | None = None, magnitude: bool = False,
              after: Callable | None = None, when: Callable | None = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack:
                parent, same_thread = stack[-1], True
            else:
                parent, same_thread = tracer._root, False
                if stack is None:
                    stack = tracer._local.stack = []
            if parent is None or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            frame = tracer._open(name, parent, structural, engine)
            stack.append(frame)
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = _clock()
                stack.pop()
                tracer._close(frame, end, same_thread)
                if structural:
                    tracer._store(frame, end, after(frame, args, result) if after and returned else {})
                else:
                    tracer._fold(frame, end - frame.start, units(args) if units else 0)
            if magnitude and parent.mags is not None:
                parent.mags.append(abs(result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every target that exists; record the ones that do not."""
        self.missing = []
        for target, name, kind, opts in TARGETS:
            path, _, attr = target.rpartition(".")
            owner = _resolve(path)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(target)
                continue
            structural = kind == "span"
            if isinstance(raw, property):
                patched = property(self._wrap(name, raw.fget, structural, **opts))
            else:
                patched = self._wrap(name, raw, structural, **opts)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _resolve(path: str):
    """'pkg.module' or 'pkg.module:Class' -> the module or class, or None."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def _useful_threshold(frame: _Frame, args: tuple, result) -> dict:
    """Count visited sheets whose term exceeds the requested tolerance of the sum."""
    try:
        if frame.name == "series.engine":
            threshold = args[3](result.value)  # tol_fn of _sum_derivative_series
        else:
            threshold = args[3] * abs(result[0])  # rel_tol of _stabilised_series
    except (IndexError, TypeError, AttributeError):
        return {"terms": len(frame.mags)}
    return {"terms": len(frame.mags), "useful": sum(1 for m in frame.mags if m > threshold)}


def _cert_unfitted(args: tuple) -> bool:
    return vars(args[0]).get("_cert") is None


def _points(args: tuple) -> int:
    return len(args[2])


_MODELS = ("MeanderModel", "QLogModel", "ZeroSumPiK", "ZeroSumGeneral")
_FAMILIES = ("RootsOfUnity", "MeanderPoles", "ReciprocalPoles", "ExplicitPoles")

#: (module[:Class].attribute, span name, "span" | "fold", wrapper options).
TARGETS: list[tuple[str, str, str, dict]] = [
    ("meandro.cli._load_config", "cli.load_config", "span", {}),
    ("jsonschema.validate", "cli.validate", "span", {}),
    ("meandro.cli._parallel_map", "cli.map", "span", {}),
    ("meandro.cli.evaluate_sum", "series.evaluate", "span", {}),
    ("meandro.cli.taylor_jet", "series.jet", "span", {}),
    ("meandro.series.taylor_jet", "series.jet", "span", {}),
    ("meandro.series._sum_derivative_series", "series.engine", "span",
     {"engine": True, "after": _useful_threshold}),
    ("meandro.series._stabilised_series", "series.stabilised", "span",
     {"engine": True, "after": _useful_threshold}),
    ("meandro.models:QLogModel.meander_cert", "series.cert_fit", "span", {"when": _cert_unfitted}),
    ("meandro.series:TermSequence.norm_bound", "series.norm_bound", "span", {}),
    ("meandro.models:MeanderModel.norm_bound", "series.norm_bound", "span", {}),
    ("meandro.series.sampled_norm_bound", "series.sampled_bound", "span", {}),
    ("meandro.series:TermSequence.check_pole_clearance", "series.clearance", "fold", {}),
    ("meandro.cli.residual_membership", "geometry.membership", "span", {}),
    ("meandro.geometry.cauchy_radius_check", "geometry.cauchy", "span", {}),
    ("meandro.cli.laurent_coefficients", "polar.laurent", "span", {}),
    ("meandro.polar.laurent_coefficients", "polar.laurent", "span", {}),
    ("meandro.cli.fiber_polar_sum", "polar.fiber", "span", {}),
    ("meandro.cli.gevrey_fit", "gevrey.fit", "span", {}),
    ("meandro.cli.divergence_diagnostic", "gevrey.diagnostic", "span", {}),
    ("meandro.cli.smallest_term_truncation", "gevrey.truncation", "span", {}),
    ("meandro.cli.inclusion_check", "covering.inclusion", "span", {}),
    ("meandro.models.meander_curve", "models.curve", "span", {}),
    ("meandro.covering:PullbackSequence.derivative", "covering.derivative", "fold", {"magnitude": True}),
    ("meandro.covering:_PullbackPoles.nearest_pole", "geometry.nearest_pole", "fold", {}),
    ("meandro.series:TermSequence.term_array", "models.term_array", "fold", {"units": _points}),
    *[(f"meandro.models:{m}.term", "models.term", "fold", {}) for m in _MODELS],
    *[(f"meandro.models:{m}.derivative", "models.derivative", "fold", {"magnitude": True}) for m in _MODELS],
    *[(f"meandro.models:{m}.residue", "models.residue", "fold", {}) for m in _MODELS],
    *[(f"meandro.models:{m}.term_array", "models.term_array", "fold", {"units": _points})
      for m in ("MeanderModel", "QLogModel")],
    *[(f"meandro.geometry:{f}.poles_on_sheet", "geometry.poles_on_sheet", "fold", {}) for f in _FAMILIES],
    *[(f"meandro.geometry:{f}.nearest_pole", "geometry.nearest_pole", "fold", {}) for f in _FAMILIES],
]


class PoolClock:
    """Process CPU time and wall time spent inside the CLI's grid map."""

    TARGET = "meandro.cli._parallel_map"

    def __init__(self):
        self.cpu = self.wall = 0.0
        self._saved = None

    def install(self) -> None:
        path, _, attr = self.TARGET.rpartition(".")
        owner = _resolve(path)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            return
        clock = self

        def timed(*args, **kwargs):
            cpu, wall = time.process_time(), _clock()
            try:
                return raw(*args, **kwargs)
            finally:
                clock.cpu += time.process_time() - cpu
                clock.wall += _clock() - wall

        setattr(owner, attr, timed)
        self._saved = (owner, attr, raw)

    def uninstall(self) -> None:
        if self._saved is not None:
            owner, attr, raw = self._saved
            setattr(owner, attr, raw)
            self._saved = None


def layer_metrics(spans: list[Span], op_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer counters and times of one traced pass."""
    calls: dict[str, int] = defaultdict(int)
    dur: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    folded: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0])
    folded_total: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])
    terms = useful = doublings = 0
    config_s = 0.0
    for span in spans:
        calls[span.name] += 1
        dur[span.name] += span.end - span.start
        self_s[span.name] += span.self_s
        for key, (n, secs, units) in span.agg.items():
            for acc in (folded[key], folded_total[key[1]]):
                acc[0] += n
                acc[1] += secs
                acc[2] += units
        if "useful" in span.extra:
            terms += span.extra["terms"]
            useful += span.extra["useful"]
        if span.name == "polar.laurent":
            evals = sum(n for (_, name), (n, _, _) in span.agg.items() if name == "models.term_array")
            doublings += max(evals - 1, 0)
        if span.name == "cli.validate" and span.parent_name == "cli.load_config":
            config_s += span.end - span.start
    engines = ("series.engine", "series.stabilised")
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli.") and k != "cli.validate")
    return {
        "models.derivative_calls": folded_total["models.derivative"][0],
        "models.derivative_s": folded_total["models.derivative"][1],
        "models.term_calls": folded_total["models.term"][0],
        "models.term_s": folded_total["models.term"][1],
        "models.curve_s": dur["models.curve"],
        "geometry.poles_on_sheet_calls": folded_total["geometry.poles_on_sheet"][0],
        "geometry.nearest_pole_calls": folded_total["geometry.nearest_pole"][0],
        "geometry.nearest_pole_s": folded_total["geometry.nearest_pole"][1],
        "geometry.membership_calls": calls["geometry.membership"],
        "geometry.membership_s": dur["geometry.membership"],
        "geometry.sheets_scanned": folded[("geometry.membership", "geometry.nearest_pole")][0],
        "geometry.cauchy_check_s": dur["geometry.cauchy"],
        "geometry.cauchy_pairs": op_counts.get("geometry.cauchy_pairs", 0),
        "series.sheets_visited": sum(folded[(e, "series.clearance")][0] for e in engines),
        "series.useful_sheet_frac": useful / terms if terms else 0.0,
        "series.sum_calls": sum(calls[e] for e in engines),
        "series.self_s": sum(self_s[e] for e in engines),
        "series.cert_fit_s": dur["series.cert_fit"],
        "series.norm_bound_calls": calls["series.norm_bound"],
        "series.sampled_bound_s": dur["series.sampled_bound"],
        "series.boundary_samples": folded[("series.sampled_bound", "models.term_array")][2],
        "polar.laurent_s": dur["polar.laurent"],
        "polar.fft_nodes": folded[("polar.laurent", "models.term_array")][2],
        "polar.node_doublings": doublings,
        "polar.fiber_s": dur["polar.fiber"],
        "polar.fiber_sheets": folded[("polar.fiber", "models.residue")][0],
        "gevrey.fit_s": dur["gevrey.fit"],
        "gevrey.diagnostic_s": dur["gevrey.diagnostic"],
        "gevrey.truncation_s": dur["gevrey.truncation"],
        "covering.inclusion_calls": calls["covering.inclusion"],
        "covering.inclusion_s": dur["covering.inclusion"],
        "cli.config_s": config_s,
        "cli.self_s": cli_self,
    }

