"""Span tracing from outside the program: wrap each layer's public functions.

The benchmark never edits ``src/``.  A :class:`Tracer` replaces chosen
attributes (a class method, or a function in the module namespace that
calls it) with timing wrappers, and restores the originals on
:meth:`Tracer.uninstall`.  Patch classes before building the objects that
use them, so bound methods captured at construction are wrapped too.

Each wrapped call becomes one span ``[name, start, end, parent, request,
leaf_self]`` kept in memory: ``parent`` is the index of the enclosing
span (or -1), ``request`` the operation or transaction the span serves,
and ``leaf_self`` the self time of aggregated leaves called directly
inside it.  The hottest leaves (``StorageManager.touch``, predicate
``on_view``) are not spans: they are aggregated into a count, a total
and a self time, so tracing them costs one list update per call.

Self time is derived from the spans after the run (:func:`self_times`):
a span's duration minus the duration of its child spans minus the self
time of the leaves directly inside it.  A coroutine function (the
server's ``read_frame``) is traced per resumption slice, so time spent
suspended on the socket is not charged to it.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable

# Span record fields.
NAME, START, END, PARENT, REQUEST, LEAF_SELF = range(6)


class Tracer:
    """In-memory spans and leaf aggregates for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: leaf name -> [calls, total seconds, self seconds]
        self.leaves: dict[str, list] = {}
        #: request id stamped on spans opened while it is set.
        self.request: Any = None
        # Open frames: [span index children attach to, covered seconds].
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.installed = False
        #: leaf time spent outside every span (still attributed to a layer).
        self.top_leaf_seconds = 0.0

    # -- registration ----------------------------------------------------------

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_of: Callable[[tuple, Any], Any] | None = None,
    ) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``request_of(args, result)``, when given, names the request after
        the call returns (a scheduler step only knows which transaction it
        ran once it has run it).
        """
        original = getattr(owner, attr)
        wrapper = self._span_wrapper(original, name, request_of)
        self._patches.append((owner, attr, original, wrapper))

    def async_span(
        self, owner: Any, attr: str, name: str, request_of: Callable[[Any], Any]
    ) -> None:
        """Trace coroutine function ``owner.attr``, one span per slice."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            return _TimedAwait(tracer, name, original(*args, **kwargs), request_of)

        self._patches.append((owner, attr, original, wrapper))

    def leaf(self, owner: Any, attr: str, name: str) -> None:
        """Aggregate calls of ``owner.attr`` instead of recording spans."""
        original = getattr(owner, attr)
        self.leaves.setdefault(name, [0, 0.0, 0.0])
        self._patches.append((owner, attr, original, self._leaf_wrapper(original, name)))

    def install(self) -> None:
        for owner, attr, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, original, __ in self._patches:
            setattr(owner, attr, original)
        self.installed = False

    # -- wrappers --------------------------------------------------------------

    def _enter(self, name: str) -> tuple[list, list]:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        record = [name, 0.0, 0.0, parent, self.request, 0.0]
        frame = [len(self.spans), 0.0]
        self.spans.append(record)
        stack.append(frame)
        return record, frame

    def _exit(self, start: float, end: float, record: list) -> None:
        stack = self._stack
        stack.pop()
        record[START] = start
        record[END] = end
        if stack:
            stack[-1][1] += end - start

    def _span_wrapper(self, fn, name, request_of):
        tracer = self

        def wrapper(*args, **kwargs):
            record, __ = tracer._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(start, perf_counter(), record)
            if request_of is not None:
                record[REQUEST] = request_of(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        tracer = self
        totals = self.leaves[name]
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                own = duration - frame[1]
                totals[0] += 1
                totals[1] += duration
                totals[2] += own
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.top_leaf_seconds += duration
                if parent >= 0:
                    spans[parent][LEAF_SELF] += own

        return wrapper

    # -- output ----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write spans (one JSON array per line) and leaf aggregates."""
        with open(path, "w") as out:
            out.write(json.dumps({"leaves": self.leaves}) + "\n")
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


class _TimedAwait:
    """Await a coroutine, recording each synchronous slice as a span."""

    __slots__ = ("tracer", "name", "coro", "request_of")

    def __init__(self, tracer: Tracer, name: str, coro, request_of) -> None:
        self.tracer = tracer
        self.name = name
        self.coro = coro
        self.request_of = request_of

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        mine: list[list] = []
        value: Any = None
        error: BaseException | None = None
        while True:
            record, __ = tracer._enter(self.name)
            mine.append(record)
            start = perf_counter()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                tracer._exit(start, perf_counter(), record)
                request = self.request_of(stop.value)
                for slice_record in mine:
                    slice_record[REQUEST] = request
                return stop.value
            except BaseException:
                tracer._exit(start, perf_counter(), record)
                raise
            tracer._exit(start, perf_counter(), record)
            try:
                value, error = (yield yielded), None
            except BaseException as exc:  # re-raised inside the coroutine
                value, error = None, exc


def inherit_requests(spans: list[list]) -> None:
    """Give every span without a request id its parent's (parents come first)."""
    for record in spans:
        if record[REQUEST] is None and record[PARENT] >= 0:
            record[REQUEST] = spans[record[PARENT]][REQUEST]


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus child spans minus leaf self time."""
    children = [0.0] * len(spans)
    for record in spans:
        parent = record[PARENT]
        if parent >= 0:
            children[parent] += record[END] - record[START]
    return [
        (record[END] - record[START]) - children[i] - record[LEAF_SELF]
        for i, record in enumerate(spans)
    ]
