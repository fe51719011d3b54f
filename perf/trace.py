"""Outside-in tracer: wraps a program's functions without editing them.

The tracer patches class attributes and module globals with timing
wrappers *before any object is built* and restores them afterwards, so
no file under ``src/`` changes and an untraced run executes the
program's own code objects.  Every wrapped call pushes a frame on one
stack; when it returns, its duration is added to the parent frame's
child time, so

    self time = duration - time covered by wrapped callees

and the self times of all frames under a root add up to the root's
duration.  Aggregates ``[calls, inclusive seconds, self seconds]`` are
kept per *key* (``"phynet.port.enqueue"``); a key's layer is everything
before its last dot.  Hot calls only touch their aggregate; coarse
boundaries additionally keep a raw span (id, parent id, trace id, key,
start, end) in memory, capped at :data:`SPAN_CAP`, written out as JSONL
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "Target", "SPAN_CAP"]

#: Raw spans kept in memory; later coarse calls still aggregate.
SPAN_CAP = 200_000

#: One patch: (module path, dotted attribute, aggregate key, keep raw
#: spans, optional ``post(tracer, args, result)`` hook run after the
#: call).  ``"Class.method"`` patches a class attribute; a bare name
#: patches the module global *and* every other loaded ``repro`` module
#: that imported the same function by name.
Target = Tuple[str, str, str, bool, Optional[Callable[..., None]]]


class Tracer:
    """Call aggregates, raw spans and the patches that feed them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: key -> [calls, inclusive seconds, self seconds]
        self.aggregates: Dict[str, List[float]] = {}
        #: (span id, parent span id or None, trace id, key, start, end)
        self.spans: List[Tuple[int, Optional[int], int, str, float,
                               float]] = []
        #: Free-form counters written by ``post`` hooks.
        self.counters: Counter = Counter()
        #: (name, id(object)) -> (object, value): last value of a
        #: cumulative counter read off a live object by a ``post`` hook
        #: (the stored reference keeps the id from being reused).
        self.gauges: Dict[Tuple[str, int], Tuple[Any, float]] = {}
        #: One id per traced workload repeat; every span carries it.
        self.trace_id = 0
        self._stack: List[list] = []   # [start, child seconds, span id]
        self._next_span = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def aggregate(self, key: str) -> List[float]:
        """The ``[calls, inclusive, self]`` cell for ``key``."""
        cell = self.aggregates.get(key)
        if cell is None:
            cell = self.aggregates[key] = [0, 0.0, 0.0]
        return cell

    def wrap(self, func: Callable, key: str, span: bool = False,
             post: Optional[Callable[..., None]] = None) -> Callable:
        """``func`` timed under ``key``; ``span`` keeps a raw span too."""
        cell = self.aggregate(key)
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            frame = [clock(), 0.0, None]
            if span:
                frame[2] = self._next_span
                self._next_span += 1
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
                if post is not None:
                    post(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span and len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[2], self._parent_span(), self.trace_id,
                         key, frame[0], end))

        traced.__wrapped__ = func
        return traced

    def _parent_span(self) -> Optional[int]:
        """Span id of the innermost open frame that keeps a span."""
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, targets: List[Target]) -> None:
        """Patch every target; :meth:`restore` undoes all of it."""
        for module_path, dotted, key, span, post in targets:
            module = importlib.import_module(module_path)
            if "." in dotted:
                class_name, attr = dotted.split(".")
                owner = getattr(module, class_name)
                self._patch(owner, attr,
                            self.wrap(getattr(owner, attr), key, span,
                                      post))
                continue
            original = getattr(module, dotted)
            traced = self.wrap(original, key, span, post)
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, traced)

    def install_engine(self, engine_cls: Any, layer_of: Callable[[str],
                                                                 str]
                       ) -> None:
        """Trace an event engine: scheduling counts, and every callback
        timed under ``<layer>.callback`` where the layer comes from the
        module that owns the callback.

        ``schedule``/``schedule_at`` queue one shared trampoline with
        the real callback as its argument, so no closure is built per
        event and ``cancel`` keeps working on the returned handle.
        """
        counters = self.counters
        invokers: Dict[str, Callable] = {}

        def invoke(callback, args):
            callback(*args)

        def dispatch(callback, args):
            owner = getattr(callback, "__self__", None)
            module = (type(owner).__module__ if owner is not None
                      else getattr(callback, "__module__", None)
                      or "unknown")
            invoker = invokers.get(module)
            if invoker is None:
                invoker = invokers[module] = self.wrap(
                    invoke, layer_of(module) + ".callback")
            invoker(callback, args)

        schedule, schedule_at = engine_cls.schedule, engine_cls.schedule_at
        cancel = engine_cls.cancel

        def traced_schedule(engine, delay, callback, *args):
            counters["engine.scheduled"] += 1
            return schedule(engine, delay, dispatch, callback, args)

        def traced_schedule_at(engine, when, callback, *args):
            counters["engine.scheduled"] += 1
            return schedule_at(engine, when, dispatch, callback, args)

        def traced_cancel(engine, handle):
            counters["engine.cancelled"] += 1
            return cancel(engine, handle)

        self._patch(engine_cls, "schedule", traced_schedule)
        self._patch(engine_cls, "schedule_at", traced_schedule_at)
        self._patch(engine_cls, "cancel", traced_cancel)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def calls(self, key: str) -> int:
        """Calls aggregated under ``key`` (0 when never called)."""
        return int(self.aggregates.get(key, (0, 0.0, 0.0))[0])

    def inclusive(self, key: str) -> float:
        """Seconds inside ``key``, wrapped callees included."""
        return self.aggregates.get(key, (0, 0.0, 0.0))[1]

    def layer_self(self, layer: str) -> float:
        """Self seconds of every key whose layer is ``layer``."""
        return sum(cell[2] for key, cell in self.aggregates.items()
                   if key.rpartition(".")[0] == layer)

    def span_durations(self, key: str) -> List[float]:
        """Durations (seconds) of the raw spans recorded under ``key``."""
        return [end - start for _i, _p, _t, k, start, end in self.spans
                if k == key]

    def gauge(self, name: str, obj: Any, value: float) -> None:
        """Remember ``obj``'s cumulative counter ``name``."""
        self.gauges[(name, id(obj))] = (obj, value)

    def gauge_total(self, name: str) -> float:
        """Sum of gauge ``name`` over every object that reported it."""
        return sum(value for (n, _i), (_obj, value)
                   in self.gauges.items() if n == name)

    def write_spans(self, path: str) -> None:
        """Dump the raw spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, trace_id, key, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "trace": trace_id,
                     "name": key, "start": start, "end": end}) + "\n")
