"""Span tracing of the simulator's layers, installed from outside.

The traced run wraps public functions of each ``repro`` layer (listed in
:data:`TARGETS`) with timers while one op runs, and removes the wrappers
afterwards; the timed runs install nothing.  Nothing under ``src/`` is
changed: classes get their methods swapped, and module-level functions
are rebound in every ``repro`` module that imported them.

Calls are recorded as a span tree per op.  Repeated calls of the same
function under the same parent span are merged into one span that keeps
the call count, the summed duration (``busy_s``), the first start and
the last end — a per-page function runs hundreds of thousands of times
per op, far too often for one record per call.  A span's self time is
its busy time minus the busy time of its child spans; children that ran
in another process (the ``exec`` worker units) run in parallel, so only
the busiest such process is subtracted.

``exec`` is measured through :class:`TimingRunner`, a
:class:`repro.exec.ParallelRunner` handed to ``run_pressure_family``
through its ``runner=`` parameter.  It wraps each work unit in
:func:`timed_unit`, which times and traces the unit inside the worker
and returns those figures with the result.
"""

from __future__ import annotations

import importlib
import os
import pickle
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.exec.runner import ParallelRunner, WorkUnit
from repro.units import MiB

from perfbench import units

#: (layer, module, attribute) of every call the traced run times.
#: ``Class.method`` targets are swapped on the class; plain function
#: targets are rebound wherever a ``repro`` module imported them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("ksm", "repro.ksm.scanner", "KsmScanner.scan_pages"),
    ("ksm", "repro.ksm.scanner", "KsmScanner.run_for_ms"),
    ("ksm", "repro.ksm.scanner", "KsmScanner.run_until_converged"),
    ("ksm", "repro.ksm.batch", "BatchKsmScanner.scan_pages"),
    ("ksm.index", "repro.ksm.index", "TokenIndex.bulk_set_unstable_fresh"),
    ("ksm.index", "repro.ksm.index", "TokenIndex.set_unstable"),
    ("ksm.index", "repro.ksm.index", "TokenIndex.clear_unstable"),
    ("ksm.index", "repro.ksm.index", "TokenIndex.bulk_lookup"),
    ("ksm.index", "repro.ksm.index", "TokenIndex.set_stable"),
    ("jvm", "repro.jvm.jvm", "JavaVM.startup"),
    ("jvm", "repro.jvm.jvm", "JavaVM.tick"),
    ("guestos", "repro.guestos.kernel", "GuestKernel.boot"),
    ("guestos", "repro.guestos.process", "GuestProcess.write_token"),
    ("guestos", "repro.guestos.process", "GuestProcess.write_tokens"),
    ("guestos", "repro.guestos.process", "GuestProcess.fault_file_pages"),
    ("hypervisor", "repro.hypervisor.kvm", "KvmGuestVm.write_gfn"),
    ("hypervisor", "repro.hypervisor.kvm", "KvmGuestVm.write_gfn_filebacked"),
    ("mem", "repro.mem.physmem", "HostPhysicalMemory.write_token"),
    ("mem", "repro.mem.physmem", "HostPhysicalMemory.map_token"),
    ("mem", "repro.mem.physmem", "HostPhysicalMemory.merge_into"),
    ("mem", "repro.mem.physmem", "HostPhysicalMemory.merge_many"),
    ("sim.rng", "repro.sim.rng", "stable_hash64"),
    ("mem.workingset", "repro.mem.workingset",
     "WorkingSetEstimator.advance_epoch"),
    ("mem.workingset", "repro.mem.workingset",
     "WorkingSetEstimator.hot_count_in_range"),
    ("guestos.thp", "repro.guestos.thp", "ThpManager.tick"),
    ("guestos.thp", "repro.mem.physmem", "HostPhysicalMemory.form_block"),
    ("guestos.thp", "repro.mem.physmem", "HostPhysicalMemory.split_block"),
    ("tiering", "repro.tiering.engine", "TieringEngine.tick"),
    ("core.dump", "repro.core.dump", "collect_system_dump"),
    ("core.accounting", "repro.core.accounting", "owner_oriented_accounting"),
)

#: Classes whose instances are remembered for their end-of-op gauges
#: (KSM counters, copy-on-write breaks, tiering summaries).
CAPTURED = (
    ("ksm", "repro.ksm.scanner", "KsmScanner"),
    ("mem", "repro.mem.physmem", "HostPhysicalMemory"),
    ("tiering", "repro.tiering.engine", "TieringEngine"),
)

#: Every wrapper this module installs carries this attribute.
MARK = "__perfbench_wrapper__"

#: The layers of the per-layer table, in pipeline order.
LAYERS = (
    "op", "phase", "exec", "jvm", "guestos", "hypervisor", "mem", "sim.rng",
    "ksm", "ksm.index", "mem.workingset", "guestos.thp", "tiering",
    "core.dump", "core.accounting",
)


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = units("per_layer")


def _count_inserts(counters, args, result):
    counters["ksm.index.unstable_inserts"] += len(args[1])


def _count_insert(counters, args, result):
    counters["ksm.index.unstable_inserts"] += 1


def _count_promotion(counters, args, result):
    counters["ksm.index.stable_promotions"] += 1


def _count_collapse(counters, args, result):
    if result is not None:
        counters["guestos.thp.collapses"] += 1


def _count_split(counters, args, result):
    if result:
        counters["guestos.thp.splits"] += 1


def _count_frames(counters, args, result):
    counters["core.dump.frames"] += len(result.frame_tokens)


#: Counters updated from a traced call's arguments or result.
HOOKS: Dict[str, Callable] = {
    "TokenIndex.bulk_set_unstable_fresh": _count_inserts,
    "TokenIndex.set_unstable": _count_insert,
    "TokenIndex.set_stable": _count_promotion,
    "HostPhysicalMemory.form_block": _count_collapse,
    "HostPhysicalMemory.split_block": _count_split,
    "collect_system_dump": _count_frames,
}


class Span:
    """All calls of one function under one parent span, merged."""

    __slots__ = ("id", "parent", "name", "layer", "pid", "start", "end",
                 "busy", "count", "children")

    def __init__(self, sid: int, parent: Optional["Span"], name: str,
                 layer: str, pid: int, start: float) -> None:
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.pid = pid
        self.start = start
        self.end = start
        self.busy = 0.0
        self.count = 0
        self.children: Dict[str, "Span"] = {}

    def record(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent.id if self.parent is not None else None,
            "name": self.name,
            "layer": self.layer,
            "pid": self.pid,
            "start": self.start,
            "end": self.end,
            "busy_s": self.busy,
            "count": self.count,
        }


@dataclass
class OpTrace:
    """The spans and counters of one traced op."""

    op: int
    spans: List[dict]
    counters: Dict[str, float]


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def bindings() -> Dict[Tuple[int, str], Any]:
    """Every attribute the tracer may replace, keyed by (owner id, name).

    Used to prove that an untraced run left them all untouched.
    """
    found: Dict[Tuple[int, str], Any] = {}
    for _layer, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        if isinstance(owner, type):
            found[(id(owner), attr)] = vars(owner)[attr]
            continue
        for mod in _repro_modules():
            if attr in vars(mod):
                found[(id(mod), attr)] = vars(mod)[attr]
    for _kind, module, name in CAPTURED:
        cls = getattr(importlib.import_module(module), name)
        found[(id(cls), "__init__")] = vars(cls)["__init__"]
    return found


def wrapped_bindings() -> List[str]:
    """Names of currently installed tracer wrappers (empty when clean)."""
    return sorted(
        getattr(value, MARK)
        for value in bindings().values()
        if hasattr(value, MARK)
    )


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


#: The tracer installed in this process, if any.  Wrappers patch shared
#: classes and modules, so which tracer owns them is process-wide state;
#: a forked worker inherits it and must replace it with its own.
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Installs layer wrappers and records one span tree per op."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._stack: List[Span] = []
        self._next_id = 0
        self._all: List[Span] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(int)
        self.instances: Dict[str, Dict[int, Any]] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        for layer, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            hook = HOOKS.get(path)
            if isinstance(owner, type):
                original = vars(owner)[attr]
                self._patch(owner, attr,
                            self._wrap(original, f"{layer}:{path}", layer,
                                       hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, f"{layer}:{path}", layer, hook)
            for mod in _repro_modules():
                if vars(mod).get(attr) is original:
                    self._patch(mod, attr, wrapper)
        for kind, module, name in CAPTURED:
            cls = getattr(importlib.import_module(module), name)
            self._patch(cls, "__init__",
                        self._capture(vars(cls)["__init__"], kind))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, name: str, layer: str,
              hook: Optional[Callable]) -> Callable:
        stack = self._stack
        counters = self.counters
        child = self._child
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = parent.children.get(name)
            if span is None:
                span = child(parent, name, layer)
            stack.append(span)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span.busy += t1 - t0
                span.count += 1
                span.end = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _capture(self, init: Callable, kind: str) -> Callable:
        seen = self.instances.setdefault(kind, {})

        def wrapper(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            seen[id(obj)] = obj

        setattr(wrapper, MARK, f"{kind}:__init__")
        wrapper.__wrapped__ = init
        return wrapper

    # -- spans -------------------------------------------------------------

    def _child(self, parent: Optional[Span], name: str, layer: str,
               pid: Optional[int] = None,
               start: Optional[float] = None) -> Span:
        span = Span(self._next_id, parent, name, layer,
                    self.pid if pid is None else pid,
                    time.perf_counter() if start is None else start)
        self._next_id += 1
        self._all.append(span)
        if parent is not None:
            parent.children[name] = span
        return span

    def begin_op(self, op: int) -> None:
        """Open the root span of op number ``op``."""
        self._op = op
        self._all.clear()
        self._next_id = 0
        self.counters.clear()
        for seen in self.instances.values():
            seen.clear()
        self._stack[:] = [self._child(None, "op", "op")]
        self._t0 = time.perf_counter()

    def end_op(self) -> OpTrace:
        """Close the op's root span; return its spans and counters."""
        root = self._stack[0]
        root.end = time.perf_counter()
        root.busy = root.end - self._t0
        root.count = 1
        self._harvest()
        trace = OpTrace(
            op=self._op,
            spans=[span.record() for span in self._all],
            counters=dict(self.counters),
        )
        self._stack.clear()
        self._all.clear()
        for seen in self.instances.values():
            seen.clear()
        return trace

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Span]:
        """Time a block as a span under the innermost open span."""
        parent = self._stack[-1]
        span = parent.children.get(name) or self._child(parent, name, layer)
        self._stack.append(span)
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            span.busy += t1 - t0
            span.count += 1
            span.end = t1

    def phase(self, name: str):
        """The ``PhaseProfiler`` hook of ``repro...scenarios.run``."""
        return self.span(f"phase:{name}", "phase")

    def graft(self, unit: "UnitTiming") -> None:
        """Attach a unit timed in a worker under the innermost span."""
        # The unit's own code outside every traced layer is glue, like
        # the op root's; the map span keeps only the dispatch time.
        node = self._child(self._stack[-1], f"exec:unit:{unit.label}", "op",
                           unit.pid, unit.start)
        node.end, node.busy, node.count = unit.end, unit.wall_s, 1
        by_old: Dict[int, Span] = {}
        for rec in unit.spans:
            if rec["parent"] is None:  # the worker's root span
                by_old[rec["id"]] = node
                continue
            span = self._child(by_old[rec["parent"]], rec["name"],
                               rec["layer"], rec["pid"], rec["start"])
            span.end, span.busy, span.count = (
                rec["end"], rec["busy_s"], rec["count"])
            by_old[rec["id"]] = span
        for key, value in unit.counters.items():
            self.counters[key] += value

    def _harvest(self) -> None:
        """Fold the captured instances' end-of-op gauges into counters."""
        add = self.counters
        for scanner in self.instances.get("ksm", {}).values():
            add["ksm.pages_scanned"] += scanner.stats.pages_scanned
            add["ksm.full_scans"] += scanner.stats.full_scans
            add["ksm.merges"] += scanner.stats.merges
        for physmem in self.instances.get("mem", {}).values():
            add["mem.cow_breaks"] += physmem.cow_breaks
        for engine in self.instances.get("tiering", {}).values():
            summary = engine.summary()
            add["tiering.compressed_pages"] += summary.pages_compressed
            add["tiering.balloon_reclaimed_mb"] += (
                summary.balloon_reclaimed_bytes / MiB)
            add["tiering.cold_hints"] += summary.cold_pages_hinted


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a block."""
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


# ----------------------------------------------------------------------
# exec: timing shim and runner
# ----------------------------------------------------------------------


@dataclass
class UnitTiming:
    """How one work unit ran, measured inside the process that ran it."""

    label: str
    pid: int
    start: float
    end: float
    wall_s: float
    cpu_s: float
    pickle_bytes: int
    spans: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class TimedResult:
    value: Any
    timing: UnitTiming


def timed_unit(fn: Callable, args: Tuple, label: str) -> TimedResult:
    """Run ``fn(*args)`` and time it where it runs (module-level, so a
    process pool can pickle it).

    In a worker process the unit is traced there by a fresh tracer,
    replacing one inherited from a forked parent; run in the tracing
    process itself, its calls nest under the parent's spans.
    """
    tracer = None
    active = _ACTIVE
    if active is None or active.pid != os.getpid():
        if active is not None:
            active.uninstall()
        tracer = Tracer()
        tracer.install()
        tracer.begin_op(0)
    pid = os.getpid()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        value = fn(*args)
    finally:
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        trace_data = tracer.end_op() if tracer is not None else None
        if tracer is not None:
            tracer.uninstall()
    timing = UnitTiming(
        label=label, pid=pid, start=t0, end=t1, wall_s=t1 - t0, cpu_s=cpu,
        pickle_bytes=len(pickle.dumps(value)),
    )
    if trace_data is not None:
        timing.spans = trace_data.spans
        timing.counters = trace_data.counters
    return TimedResult(value, timing)


class TimingRunner(ParallelRunner):
    """A :class:`ParallelRunner` that times and traces every unit it maps.

    Passed to ``run_pressure_family(runner=...)``: the map is a span of
    ``tracer`` and each worker's unit trace is grafted under it.
    """

    def __init__(self, jobs: int, tracer: Tracer) -> None:
        super().__init__(jobs=jobs)
        self.tracer = tracer
        self.units: List[UnitTiming] = []
        self.map_s = 0.0

    def map(self, units):
        shimmed = [
            WorkUnit(timed_unit, (unit.fn, unit.args, unit.label),
                     label=unit.label)
            for unit in units
        ]
        with self.tracer.span("exec:ParallelRunner.map", "exec"):
            t0 = time.perf_counter()
            outs = super().map(shimmed)
            self.map_s += time.perf_counter() - t0
            for out in outs:
                if out.timing.pid != self.tracer.pid:
                    self.tracer.graft(out.timing)
        self.units.extend(out.timing for out in outs)
        return [out.value for out in outs]

    def metrics(self) -> Dict[str, float]:
        """The ``exec.*`` figures of everything mapped so far."""
        return exec_metrics(self.units, self.map_s, self.jobs)


def exec_metrics(units: List[UnitTiming], map_s: float,
                 jobs: int) -> Dict[str, float]:
    """``exec.*`` figures of units mapped in ``map_s`` seconds of wall."""
    per_pid: Dict[int, float] = {}
    for unit in units:
        per_pid[unit.pid] = per_pid.get(unit.pid, 0.0) + unit.wall_s
    unit_sum = sum(unit.wall_s for unit in units)
    workers = max(1, min(jobs, len(units)))
    return {
        "exec.units": len(units),
        "exec.map_s": map_s,
        "exec.unit_s_sum": unit_sum,
        "exec.unit_s_max": max((u.wall_s for u in units), default=0.0),
        "exec.unit_cpu_s_sum": sum(u.cpu_s for u in units),
        "exec.dispatch_s": map_s - max(per_pid.values(), default=0.0),
        "exec.pickle_bytes": sum(u.pickle_bytes for u in units),
        "exec.parallel_efficiency": (
            unit_sum / (map_s * workers) if map_s else 0.0),
    }


# ----------------------------------------------------------------------
# Self time and per-layer metrics
# ----------------------------------------------------------------------


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> busy time minus the busy time its children cover.

    Children in the span's own process ran inside it one after another;
    children in other processes ran in parallel with each other, so only
    the busiest other process counts as covered.
    """
    by_parent: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            by_parent.setdefault(span["parent"], []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        same = 0.0
        other: Dict[int, float] = {}
        for child in by_parent.get(span["id"], ()):
            if child["pid"] == span["pid"]:
                same += child["busy_s"]
            else:
                other[child["pid"]] = other.get(child["pid"], 0.0) + (
                    child["busy_s"])
        out[span["id"]] = span["busy_s"] - same - max(other.values(),
                                                      default=0.0)
    return out


def layer_self_times(spans: List[dict]) -> Dict[str, float]:
    """Layer -> summed self time of its spans (every process)."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        out[span["layer"]] = out.get(span["layer"], 0.0) + selfs[span["id"]]
    return out


def _busy(spans: List[dict], name: str) -> Tuple[float, int]:
    busy = sum(s["busy_s"] for s in spans if s["name"] == name)
    count = sum(s["count"] for s in spans if s["name"] == name)
    return busy, count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: OpTrace) -> Dict[str, float]:
    """The per-layer metrics of one traced op (see README.md)."""
    spans = trace.spans
    counters = trace.counters
    selfs = layer_self_times(spans)
    get = lambda key: counters.get(key, 0)  # noqa: E731
    m: Dict[str, float] = {}

    by_id = {s["id"]: s for s in spans}
    ksm_busy = sum(
        s["busy_s"] for s in spans
        if s["layer"] == "ksm" and not _inside(s, by_id, "ksm")
    )
    m["ksm.self_s"] = selfs["ksm"]
    m["ksm.pages_scanned"] = get("ksm.pages_scanned")
    m["ksm.full_scans"] = get("ksm.full_scans")
    m["ksm.ns_per_page"] = _ratio(ksm_busy * 1e9, get("ksm.pages_scanned"))
    m["ksm.merge_yield"] = _ratio(get("ksm.merges"), get("ksm.pages_scanned"))

    clear_s, _ = _busy(spans, "ksm.index:TokenIndex.clear_unstable")
    m["ksm.index.self_s"] = selfs["ksm.index"]
    m["ksm.index.clear_s"] = clear_s
    m["ksm.index.unstable_inserts"] = get("ksm.index.unstable_inserts")
    m["ksm.index.unstable_yield"] = _ratio(
        get("ksm.index.stable_promotions"), get("ksm.index.unstable_inserts"))

    m["jvm.self_s"] = selfs["jvm"]
    write_s, writes = _busy(spans, "guestos:GuestProcess.write_token")
    m["guestos.self_s"] = selfs["guestos"]
    m["guestos.page_writes"] = writes
    m["guestos.ns_per_write"] = _ratio(write_s * 1e9, writes)
    gfn_s, gfns = _busy(spans, "hypervisor:KvmGuestVm.write_gfn")
    fb_s, fbs = _busy(spans, "hypervisor:KvmGuestVm.write_gfn_filebacked")
    m["hypervisor.self_s"] = selfs["hypervisor"]
    m["hypervisor.page_writes"] = gfns + fbs
    mem_s, mem_writes = _busy(spans, "mem:HostPhysicalMemory.write_token")
    m["mem.self_s"] = selfs["mem"]
    m["mem.page_writes"] = mem_writes
    m["mem.ns_per_write"] = _ratio(mem_s * 1e9, mem_writes)
    m["mem.cow_breaks"] = get("mem.cow_breaks")
    _, hashes = _busy(spans, "sim.rng:stable_hash64")
    m["sim.rng.hash_calls"] = hashes
    m["sim.rng.self_s"] = selfs["sim.rng"]

    query_s, queries = _busy(
        spans, "mem.workingset:WorkingSetEstimator.hot_count_in_range")
    m["mem.workingset.self_s"] = selfs["mem.workingset"]
    m["mem.workingset.range_queries"] = queries
    m["mem.workingset.ns_per_query"] = _ratio(query_s * 1e9, queries)
    m["guestos.thp.self_s"] = selfs["guestos.thp"]
    m["guestos.thp.collapses"] = get("guestos.thp.collapses")
    m["guestos.thp.splits"] = get("guestos.thp.splits")
    m["guestos.thp.split_ratio"] = _ratio(
        get("guestos.thp.splits"), get("guestos.thp.collapses"))

    m["tiering.self_s"] = selfs["tiering"]
    m["tiering.compressed_pages"] = get("tiering.compressed_pages")
    m["tiering.balloon_reclaimed_mb"] = get("tiering.balloon_reclaimed_mb")
    m["tiering.cold_hints"] = get("tiering.cold_hints")

    dump_s, _ = _busy(spans, "core.dump:collect_system_dump")
    acct_s, _ = _busy(spans, "core.accounting:owner_oriented_accounting")
    frames = get("core.dump.frames")
    m["core.dump.self_s"] = selfs["core.dump"]
    m["core.dump.frames"] = frames
    m["core.dump.ns_per_frame"] = _ratio(dump_s * 1e9, frames)
    m["core.accounting.self_s"] = selfs["core.accounting"]
    m["core.accounting.ns_per_frame"] = _ratio(acct_s * 1e9, frames)

    for phase in ("build", "warmup", "workload", "tiering", "thp", "scan",
                  "dump", "accounting"):
        m[f"phase.{phase}_s"] = _busy(spans, f"phase:{phase}")[0]
    m["phase.self_s"] = selfs["phase"]
    m["op.self_s"] = selfs["op"]
    return m


def _inside(span: dict, by_id: Dict[int, dict], layer: str) -> bool:
    """True when an ancestor of ``span`` belongs to ``layer``."""
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["layer"] == layer:
            return True
        parent = by_id.get(parent["parent"])
    return False
