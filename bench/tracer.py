"""In-memory tracing of calls into the hysterm modules, for the traced run.

Each public function is wrapped where its caller looks it up (for example
``hysterm.solver.laplacian`` rather than ``hysterm.grid.laplacian``), so the
program itself is not edited.  Low-frequency calls become spans with a name,
start, end, parent, thread and repetition id.  High-frequency calls (one per
solver step, per snapshot file or per distance query) are aggregated into
call counts and total/self time instead of one span per call.

Self time is a call's duration minus the time of the traced calls it made on
the same thread.  A function that a later version of the program renames or
removes is skipped; its metrics are then absent from the report.

``Tracer`` runs inside the benchmark's child process; ``layer_metrics`` runs
in the parent and turns the spans and counters of one repetition into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
from time import perf_counter

SPAN = "span"
COUNTER = "counter"

# flops and compulsory bytes per cell, computed from the array sizes:
# the 3-point second difference costs 4 flops per axis plus 1 to accumulate,
# and reads the field once and writes the result once (float64).
LAPLACIAN_FLOPS_PER_CELL_AXIS = 5
# the relay update makes 2 comparisons and 2 selections per cell.
FIELD_UPDATE_OPS_PER_CELL = 4

EVENT_CLASSES = ("gamma_alpha", "gamma_beta", "gamma_v", "gamma_0", "gamma_star")


def _add_laplacian_work(tracer, args, kwargs, result):
    f = args[0]
    tracer.add("grid.laplacian.flops", LAPLACIAN_FLOPS_PER_CELL_AXIS * f.ndim * f.size)
    tracer.add("grid.laplacian.bytes", 2 * f.size * f.itemsize)


def _add_field_update_work(tracer, args, kwargs, result):
    prev, u_new = args[0], args[1]
    tracer.add("relay.field_update.flops", FIELD_UPDATE_OPS_PER_CELL * u_new.size)
    tracer.add(
        "relay.field_update.bytes",
        u_new.size * (u_new.itemsize + prev.itemsize + result.itemsize),
    )


def _add_step_cells(tracer, args, kwargs, result):
    tracer.add("solver.step.cells", args[0].size)


def _add_points_scanned(tracer, args, kwargs, result):
    pts = args[1] if len(args) > 1 else kwargs["S"]
    tracer.add(
        "grid.parabolic_distance.points_scanned",
        pts.shape[0] if hasattr(pts, "shape") else len(pts),
    )


def _add_event_counts(tracer, args, kwargs, result):
    for cls in EVENT_CLASSES:
        events = getattr(result, cls, None)
        if events is not None:
            tracer.add(f"free_boundary.events.{cls}", len(events))


def _add_separation_work(tracer, args, kwargs, result):
    """Level tolerance in use and the computed number of point pairs the
    all-pairs scan compares (points within the tolerance of alpha times
    points within it of beta, two cells away from the spatial boundary)."""
    import numpy as np

    sol = args[0]
    level_tol = args[1] if len(args) > 1 else kwargs.get("level_tol")
    if level_tol is None:
        return
    tracer.set_max("free_boundary.level_tol", float(level_tol))
    margin = 2
    interior = np.zeros(sol.u.shape[1:], dtype=bool)
    interior[tuple(slice(margin, n - margin) for n in interior.shape)] = True
    th = sol.thresholds
    near_a = int(((np.abs(sol.u - th.alpha) <= level_tol) & interior).sum())
    near_b = int(((np.abs(sol.u - th.beta) <= level_tol) & interior).sum())
    tracer.add("free_boundary.separation_pairs", near_a * near_b)


# (layer name, module where the caller looks the function up, attribute,
#  span or counter, extra work recorded after the call)
PATCHES = [
    ("config.load_config", "hysterm.cli", "load_config", SPAN, None),
    ("presets.initial_data", "hysterm.solver", "initial_data", SPAN, None),
    ("solver.run", "hysterm.cli", "solver_run", SPAN, None),
    ("solver.step", "hysterm.solver", "step", COUNTER, _add_step_cells),
    ("grid.laplacian", "hysterm.solver", "laplacian", COUNTER, _add_laplacian_work),
    ("grid.laplacian", "hysterm.free_boundary", "laplacian", COUNTER, _add_laplacian_work),
    ("relay.field_update", "hysterm.solver", "field_update", COUNTER, _add_field_update_work),
    ("reports.save_run", "hysterm.cli", "save_run", SPAN, None),
    ("reports.write_snapshot_csv", "hysterm.reports", "write_snapshot_csv", COUNTER, None),
    ("reports.analyze_run", "hysterm.cli", "analyze_run", SPAN, None),
    ("reports.load_run", "hysterm.reports", "load_run", SPAN, None),
    ("reports.verify_manifest", "hysterm.reports", "verify_manifest", SPAN, None),
    ("reports.read_snapshot_csv", "hysterm.reports", "read_snapshot_csv", COUNTER, None),
    ("free_boundary.classify", "hysterm.reports", "classify", SPAN, _add_event_counts),
    ("free_boundary.write_atlas_csv", "hysterm.reports", "write_atlas_csv", SPAN, None),
    ("free_boundary.separation_check", "hysterm.reports", "separation_check", SPAN, _add_separation_work),
    ("grid.gradient", "hysterm.free_boundary", "gradient", COUNTER, None),
    ("grid.gradient", "hysterm.diagnostics", "gradient", COUNTER, None),
    ("grid.hessian", "hysterm.diagnostics", "hessian", COUNTER, None),
    ("grid.parabolic_distance", "hysterm.diagnostics", "parabolic_distance", COUNTER, _add_points_scanned),
    ("diagnostics.quadratic_growth", "hysterm.diagnostics", "quadratic_growth", SPAN, None),
    ("diagnostics.acf_phi", "hysterm.diagnostics", "acf_phi", SPAN, None),
    ("diagnostics.sign_conditions", "hysterm.diagnostics", "sign_conditions", SPAN, None),
    ("diagnostics.regularity_profile", "hysterm.diagnostics", "regularity_profile", SPAN, None),
    ("cli.sweep.member", "hysterm.cli", "_sweep_child", SPAN, None),
]

_TIMES = (("calls", "count"), ("s", "s"), ("self_s", "s"))


def _timed(*layers, stats=_TIMES) -> list:
    return [(f"{layer}.{stat}", unit) for layer in layers for stat, unit in stats]


# Every per-layer metric, with its unit, in report order.
PER_LAYER = [
    *_timed("config.load_config", "presets.initial_data", stats=_TIMES[:2]),
    *_timed("solver.run"),
    ("solver.step.calls", "count"),
    ("solver.step.self_s", "s"),
    ("solver.step.us_per_call", "us"),
    ("solver.cell_steps_per_s", "1/s"),
    *_timed("grid.laplacian"),
    ("grid.laplacian.flops_per_call", "flop"),
    ("grid.laplacian.bytes_per_call", "B"),
    *_timed("relay.field_update"),
    ("relay.field_update.flops_per_call", "flop"),
    ("relay.field_update.bytes_per_call", "B"),
    *_timed(
        "reports.save_run", "reports.write_snapshot_csv", "reports.analyze_run",
        "reports.load_run", "reports.verify_manifest", "reports.read_snapshot_csv",
    ),
    ("reports.files_written", "count"),
    ("reports.bytes_written", "B"),
    ("reports.bytes_hashed", "B"),
    *_timed("free_boundary.classify", "free_boundary.write_atlas_csv"),
    *[(f"free_boundary.events.{cls}", "count") for cls in EVENT_CLASSES],
    ("grid.parabolic_distance.calls", "count"),
    ("grid.parabolic_distance.s", "s"),
    ("grid.parabolic_distance.points_scanned", "count"),
    *_timed("grid.gradient", "grid.hessian"),
    *_timed(
        "diagnostics.quadratic_growth", "diagnostics.acf_phi",
        "diagnostics.sign_conditions", "diagnostics.regularity_profile",
    ),
    *_timed("free_boundary.separation_check"),
    ("free_boundary.separation_pairs", "count"),
    ("free_boundary.level_tol", "value"),
    ("cli.sweep.members", "count"),
    ("cli.sweep.member_s", "s"),
    ("cli.sweep.parallel_efficiency", "ratio"),
    ("trace.overhead_s", "s"),
]


class _Frame:
    __slots__ = ("id", "parent", "child_s")

    def __init__(self, span_id, parent):
        self.id = span_id
        self.parent = parent
        self.child_s = 0.0


class _CountingHashlib:
    """Stands in for the ``hashlib`` module that ``hysterm.reports`` uses,
    counting the bytes passed to ``sha256``."""

    def __init__(self, real, tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def sha256(self, data=b"", **kwargs):
        self._tracer.add("reports.bytes_hashed", len(data))
        return self._real.sha256(data, **kwargs)


class Tracer:
    """Spans and counters of one repetition, kept in memory."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list = []
        self.counters: dict = {}
        self.values: dict = {}
        self.patched: set = set()
        self.missing: list = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self) -> _Frame:
        stack = self._stack()
        parent = stack[-1].id if stack else self.root
        frame = _Frame(next(self._ids), parent)
        stack.append(frame)
        return frame

    def _pop(self, name, frame, t0, t1, kind) -> None:
        stack = self._stack()
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1].child_s += dur
        if kind == COUNTER:
            with self._lock:
                c = self.counters.setdefault(name, [0, 0.0, 0.0])
                c[0] += 1
                c[1] += dur
                c[2] += dur - frame.child_s
        else:
            self.spans.append({
                "id": frame.id,
                "name": name,
                "start": t0,
                "end": t1,
                "self_s": dur - frame.child_s,
                "parent": frame.parent,
                "thread": threading.current_thread().name,
                "rep": self.rep,
            })

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.values[name] = self.values.get(name, 0) + amount

    def set_max(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name] = max(self.values.get(name, value), value)

    def note_missing(self, what: str) -> None:
        with self._lock:
            if what not in self.missing:
                self.missing.append(what)

    def run_root(self, name: str, fn, *args):
        """Run ``fn`` as a top-level span; calls made on worker threads
        while it runs take it as their parent."""
        frame = self._push()
        self.root = frame.id
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._pop(name, frame, t0, perf_counter(), SPAN)
            self.root = None

    # -- patching ------------------------------------------------------

    def _wrap(self, name, fn, kind, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(name, frame, t0, perf_counter(), kind)
            if extra is not None:
                try:
                    extra(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the program changed the call's signature or result:
                    # the derived count is left out, the call still runs
                    tracer.note_missing(f"{name} counts")
            return result

        return traced

    def install(self) -> None:
        for name, module_name, attr, kind, extra in PATCHES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, fn, kind, extra))
            self.patched.add(name)
        try:
            reports = importlib.import_module("hysterm.reports")
        except ImportError:
            reports = None
        real = getattr(reports, "hashlib", None)
        if real is None or not hasattr(real, "sha256"):
            self.missing.append("hysterm.reports.hashlib")
            return
        reports.hashlib = _CountingHashlib(real, self)
        self.patched.add("reports.bytes_hashed")

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "values": self.values,
            "patched": sorted(self.patched),
            "missing": self.missing,
        }


def layer_metrics(trace: dict, pipeline_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced repetition.

    ``trace`` is ``Tracer.dump()`` plus the file counts the child measured;
    metrics of layers that could not be patched are left out.
    """
    patched = set(trace["patched"])
    values = trace["values"]
    out = {}

    # (calls, total s, self s) per layer, from counters and spans alike
    totals = {name: list(c) for name, c in trace["counters"].items()}
    for span in trace["spans"]:
        t = totals.setdefault(span["name"], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += span["end"] - span["start"]
        t[2] += span["self_s"]

    def stats(layer):
        return totals.get(layer, (0, 0.0, 0.0))

    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in patched and stat in ("calls", "s", "self_s"):
            calls, total, self_s = stats(layer)
            out[name] = {"calls": calls, "s": total, "self_s": self_s}[stat]

    if "solver.step" in patched:
        calls, total, _ = stats("solver.step")
        out["solver.step.us_per_call"] = 1e6 * total / calls if calls else 0.0
        cells = values.get("solver.step.cells", 0)
        out["solver.cell_steps_per_s"] = cells / total if total > 0 else 0.0
    for layer in ("grid.laplacian", "relay.field_update"):
        if layer in patched:
            calls = stats(layer)[0]
            for what in ("flops", "bytes"):
                amount = values.get(f"{layer}.{what}", 0)
                out[f"{layer}.{what}_per_call"] = amount / calls if calls else 0.0
    if "grid.parabolic_distance" in patched:
        out["grid.parabolic_distance.points_scanned"] = values.get(
            "grid.parabolic_distance.points_scanned", 0
        )
    if "free_boundary.classify" in patched:
        for cls in EVENT_CLASSES:
            out[f"free_boundary.events.{cls}"] = values.get(f"free_boundary.events.{cls}", 0)
    if "free_boundary.separation_check" in patched:
        out["free_boundary.separation_pairs"] = values.get("free_boundary.separation_pairs", 0)
        out["free_boundary.level_tol"] = values.get("free_boundary.level_tol", 0.0)
    if "reports.bytes_hashed" in patched:
        out["reports.bytes_hashed"] = values.get("reports.bytes_hashed", 0)
    out["reports.files_written"] = trace["files_written"]
    out["reports.bytes_written"] = trace["bytes_written"]
    if "cli.sweep.member" in patched:
        members, member_s, _ = stats("cli.sweep.member")
        out["cli.sweep.members"] = members
        out["cli.sweep.member_s"] = member_s
        out["cli.sweep.parallel_efficiency"] = (
            member_s / (pipeline_s * workers) if members and pipeline_s > 0 else 0.0
        )
    return out
