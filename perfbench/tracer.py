"""Outside-in tracing: spans and counts around calls into ``repro``.

The tracer never edits the program. It rebinds public entry points
(module functions and class methods) to thin wrappers for the length of
one traced window and restores them afterwards. A function imported by
name into other modules (``from repro.perf.pipeline import
simulated_pass``) is rebound in every loaded ``repro`` module that
holds it, so each call site goes through the wrapper.

Each span is ``[sid, name, start, end, parent, op]``. Spans stay in
memory until the window ends. A span opened on a thread with no open
span of its own (the service's resolver thread) takes the current op's
root span as its parent, so every span of one op nests under it.

Very frequent calls (histogram ``observe``) are counted, never timed:
timing each of them would stretch the run they are meant to explain.
Garbage collections that run inside an op are spans of their own
(``python.gc``), so a collector pause is not charged to the layer it
happened to interrupt.
"""

from __future__ import annotations

import functools
import gc
import itertools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Index of each field in a span record.
SID, NAME, START, END, PARENT, OP = range(6)


class Tracer:
    """Span and counter store for one traced window.

    With ``timing=False`` the wrappers only count: the mode used for
    the deterministic work counters, where no clock is read.
    """

    def __init__(self, timing: bool = True):
        self.timing = timing
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.op = -1
        self._root: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    # ------------------------------------------------------------ stacks

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][NAME] if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    # ---------------------------------------------------------------- ops

    def begin_op(self, op: int) -> None:
        """Open the root span of op ``op`` on the calling thread."""
        self.op = op
        if not self.timing:
            return
        record = [next(self._ids), "op", time.perf_counter(), None, None, op]
        self.spans.append(record)
        self._root = record[SID]
        self._stack().append(record)

    def end_op(self) -> None:
        if not self.timing:
            return
        record = self._stack().pop()
        record[END] = time.perf_counter()
        self._root = None

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection inside an op is a span."""
        if self._root is None:
            return
        stack = self._stack()
        if phase == "start":
            parent = stack[-1][SID] if stack else self._root
            record = [next(self._ids), "python.gc", None, None, parent, self.op]
            self.spans.append(record)
            stack.append(record)
            record[START] = time.perf_counter()
        elif stack and stack[-1][NAME] == "python.gc":
            stack.pop()[END] = time.perf_counter()

    # ------------------------------------------------------------- spans

    def timed(
        self,
        name: str,
        fn: Callable,
        reentrant: bool = True,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``reentrant=False`` skips the span (and ``on_result``) when the
        innermost open span already has this name, so a method that
        calls itself (``Program.execute`` on a null fault plan) is one
        span and one call. ``on_result`` sees each result, to count
        work such as activities simulated.
        """
        calls = name + ".calls"
        timing = self.timing
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not reentrant and stack and stack[-1][NAME] == name:
                return fn(*args, **kwargs)
            self.counts[calls] = self.counts.get(calls, 0.0) + 1.0
            record = [None, name, None, None, None, self.op]
            if timing:
                record[SID] = next(self._ids)
                record[PARENT] = stack[-1][SID] if stack else self._root
                self.spans.append(record)
                record[START] = clock()
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                if timing:
                    record[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(
        self,
        fn: Callable,
        on_call: Callable[["Tracer", tuple, object], None],
    ) -> Callable:
        """Wrap ``fn`` so each call is counted by ``on_call``, not timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_call(self, args, result)
            return result

        return wrapper


class Patches:
    """Rebinds functions and methods; :meth:`restore` undoes every one."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        self._hooks: List[Tuple[list, Callable]] = []

    def hook(self, hooks: list, fn: Callable) -> None:
        """Append ``fn`` to a callback list such as ``gc.callbacks``."""
        hooks.append(fn)
        self._hooks.append((hooks, fn))

    def function(self, module_name: str, attr: str, make: Callable) -> None:
        """Rebind ``module.attr`` everywhere a ``repro`` module holds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(module, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def method(self, cls: type, attr: str, make: Callable) -> None:
        """Rebind a method on the class that defines it."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        for hooks, fn in self._hooks:
            hooks.remove(fn)
        self._hooks.clear()


# ------------------------------------------------------------ self time


def _covered(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """Length of ``[start, end]`` covered by the union of ``children``."""
    total = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start = max(c_start, reach)
        c_end = min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def self_times(spans: Sequence[list]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(parent, []).append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - _covered(span[START], span[END], children.get(span[SID], ()))
        for span in spans
    }


def layer_table(spans: Sequence[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total duration and self time (seconds)."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(
            span[NAME], {"calls": 0.0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += selfs[span[SID]]
    return table


# ------------------------------------------------------------- install


def _count_activities(tracer: Tracer, result) -> None:
    spans, _failure = result
    tracer.count("sim.activities", float(len(spans)))


def _count_meshes(tracer: Tracer, _args, result) -> None:
    tracer.count("experiments.search.meshes_considered", float(len(result)))


def _count_simulated_mesh(tracer: Tracer, _args, result) -> None:
    if result is not None:
        tracer.count("experiments.search.meshes_simulated")


def _count_observe(tracer: Tracer, _args, _result) -> None:
    tracer.count("obs.observe.calls")


def _count_scanned(tracer: Tracer, _args, _result) -> None:
    if tracer.current() == "service.store.neighbor":
        tracer.count("service.store.records_scanned")


#: Module-level functions traced, as (span name, module, attribute).
FUNCTION_SPANS = (
    ("experiments.search", "repro.experiments.common", "best_block_run"),
    ("perf.simulated_pass", "repro.perf.pipeline", "simulated_pass"),
    ("perf.lower_bound", "repro.perf.pipeline", "pass_lower_bound"),
    ("autotuner.slice_search", "repro.autotuner.costmodel", "best_slice_count"),
    ("autotuner.slice_search", "repro.autotuner.costmodel", "best_sliced_slice_count"),
    ("autotuner.estimate", "repro.autotuner.costmodel", "meshslice_estimate"),
    ("autotuner.estimate", "repro.autotuner.costmodel", "sliced_estimate"),
    ("autotuner.estimate", "repro.autotuner.costmodel", "collective_estimate"),
    ("autotuner.tune", "repro.autotuner.search", "tune_model"),
    ("autotuner.tune", "repro.service.warmstart", "warm_tune"),
    ("autotuner.plan", "repro.autotuner.dataflow", "plan_model"),
    ("obs.derive", "repro.obs.derive", "derive_run_metrics"),
    ("sim.simulate", "repro.sim.cluster", "simulate"),
    ("sim.repeat", "repro.sim.program", "repeat_program"),
)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; returns the patches to restore."""
    import repro.experiments.common  # noqa: F401  (load before patching)
    import repro.service.server  # noqa: F401
    from repro.algorithms import algorithm_names, get_algorithm
    from repro.faults.plan import FaultPlan
    from repro.obs.registry import MetricsRegistry
    from repro.service.server import TunerService
    from repro.service.store import PlanStore
    from repro.sim.program import Program

    patches = Patches()
    if tracer.timing:
        patches.hook(gc.callbacks, tracer.on_gc)
    for span, module, attr in FUNCTION_SPANS:
        patches.function(module, attr, functools.partial(tracer.timed, span))
    patches.function(
        "repro.experiments.common",
        "candidate_meshes",
        lambda fn: tracer.counted(fn, _count_meshes),
    )
    patches.function(
        "repro.experiments.common",
        "run_block",
        lambda fn: tracer.counted(fn, _count_simulated_mesh),
    )
    seen = set()
    for name in algorithm_names():
        for cls in type(get_algorithm(name)).__mro__:
            if "build_program" in cls.__dict__:
                if cls not in seen:
                    seen.add(cls)
                    patches.method(
                        cls,
                        "build_program",
                        functools.partial(tracer.timed, "algorithms.build"),
                    )
                break
    patches.method(
        Program,
        "execute",
        lambda fn: tracer.timed(
            "sim.execute", fn, reentrant=False, on_result=_count_activities
        ),
    )
    patches.method(
        FaultPlan, "apply", functools.partial(tracer.timed, "faults.apply")
    )
    patches.method(
        MetricsRegistry,
        "observe",
        lambda fn: tracer.counted(fn, _count_observe),
    )
    for attr, span in (
        ("load", "service.store.load"),
        ("save", "service.store.save"),
        ("nearest_neighbor", "service.store.neighbor"),
    ):
        patches.method(PlanStore, attr, functools.partial(tracer.timed, span))
    patches.method(
        PlanStore, "_read", lambda fn: tracer.counted(fn, _count_scanned)
    )
    patches.method(
        TunerService,
        "_resolve",
        functools.partial(tracer.timed, "service.resolve"),
    )
    return patches
