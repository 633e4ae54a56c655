"""In-memory span recorder that wraps the program's public entry points
from outside, plus self-time aggregation and Chrome trace export.

Nothing under ``src/`` is changed: :meth:`Tracer.wrap` replaces a
module or class attribute with a timing wrapper and :meth:`Tracer.unwrap`
puts the original back.  A span is ``(id, parent, name, start_ns,
end_ns, thread, request)``; the parent is the innermost open span of
the same thread and the request id is inherited from it unless the
wrapper names one.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: int
    end: int
    thread: int
    request: Optional[int]

    @property
    def dur(self) -> int:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    out: Dict[int, int] = {}
    for s in spans:
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.dur - covered
    return out


def descendants(spans: Iterable[Span], root_ids: Iterable[int]) -> List[Span]:
    """The spans under (and including) the given roots."""
    spans = list(spans)
    by_parent: Dict[int, List[Span]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        by_parent[s.parent].append(s)
    out: List[Span] = []
    todo = [by_id[i] for i in root_ids if i in by_id]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(by_parent.get(s.id, ()))
    return out


def layer_table(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total ms (outermost spans of that name
    only, so recursion is not double counted) and self ms."""
    spans = list(spans)
    selfs = self_times(spans)
    names = {s.id: s.name for s in spans}
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0,
                                        "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[s.id] / 1e6
        if names.get(s.parent) != s.name:
            row["total_ms"] += s.dur / 1e6
    return table


class Tracer:
    """Span recorder; disabled it costs one attribute check per call."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.origin_ns = time.perf_counter_ns()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: The wrapped span names, in the order they were first wrapped.
        self.layers: List[str] = []
        #: id(argument object) -> request id, for ``wrap(request_of=)``.
        self.requests: Dict[int, int] = {}

    # -- recording ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             request: Optional[int] = None) -> Any:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        sid = next(self._ids)
        rid = inherited if request is None else request
        stack.append((sid, rid))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end,
                                   threading.get_ident(), rid))

    def run(self, name: str, fn: Callable, *args,
            request: Optional[int] = None, **kwargs) -> Any:
        """Call ``fn`` inside a span when tracing, plainly otherwise."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self.call(name, fn, args, kwargs, request)

    # -- wrapping the program's entry points -------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             request_of: Optional[Callable[..., Optional[int]]] = None
             ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        Handles plain functions, methods and classmethods.
        ``request_of(*args, **kwargs)`` may name the request a call
        belongs to.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rid = request_of(*args, **kwargs) if request_of else None
            return tracer.call(name, fn, args, kwargs, rid)

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, raw))
        if name not in self.layers:
            self.layers.append(name)

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- queries -----------------------------------------------------
    def roots(self, prefix: str) -> List[Span]:
        return [s for s in self.spans
                if s.parent == 0 and s.name.startswith(prefix)]

    def under(self, prefix: str) -> List[Span]:
        """All spans under the top-level spans named ``prefix*``."""
        return descendants(self.spans, [s.id for s in self.roots(prefix)])

    def during(self, prefix: str) -> List[Span]:
        """The spans under the top-level spans named ``prefix*`` plus
        those other threads started while one of them was open."""
        roots = self.roots(prefix)
        threads = {s.thread for s in roots}
        return self.under(prefix) + [
            s for s in self.spans if s.thread not in threads
            and any(r.start <= s.start < r.end for r in roots)]

    # -- export ------------------------------------------------------
    def chrome_trace(self, path: str, metadata: Optional[dict] = None
                     ) -> int:
        """Write the spans as Chrome trace-event JSON (``ph: X``
        complete events, microsecond timestamps); returns the event
        count.  Perfetto and chrome://tracing open the file."""
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events: List[dict] = []
        for s in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(s.thread, len(tids) + 1)
            args: Dict[str, Any] = {"id": s.id, "parent": s.parent}
            if s.request is not None:
                args["request"] = s.request
            events.append({
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": (s.start - self.origin_ns) / 1e3,
                "dur": s.dur / 1e3, "pid": pid, "tid": tid, "args": args})
        for ident, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "args": {"name": f"thread-{ident}"}})
        doc = {"traceEvents": events, "displayTimeUnit": "ms",
               "otherData": metadata or {}}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return len(events)
