"""Span recording for the traced benchmark run.

The benchmark never edits the program to trace it.  Instead
:func:`install` replaces the public functions and methods listed in
:mod:`layers` with thin wrappers that record one span per call and return
exactly what the original returned (the traced and untraced digests must
agree).  Spans live in memory as flat arrays — a faulted fleet day records
several hundred thousand — and are written out once the run ends.

Self time is a span's duration minus the part its children cover.  Where
several threads are inside spans at the same instant (the serve workers),
that instant is split evenly between their innermost spans: one
interpreter lock, one thread runs Python at a time.  Time inside the
traced window that no span covers is the explicit leftover, so per-name
self times plus leftover add up to the traced wall by construction.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: one recorded call: (span id, parent id or -1, name, start, end, thread)
Span = Tuple[int, int, str, float, float, int]


class Recorder:
    """Collects spans from every thread; parent links follow the call stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.counters: Dict[str, float] = {}
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # one column per span field, appended when a span closes
        self._id = array("q")
        self._parent = array("q")
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._thread = array("q")

    def __len__(self) -> int:
        return len(self._id)

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self._names)
                self._names.append(name)
            return self._name_ids[name]

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name_id: int, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span.

        A call that re-enters the same name (a subclass method calling its
        base through ``super()``) stays inside the outer span.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack and stack[-1][1] == name_id:
            return fn(*args, **kwargs)
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else -1
        stack.append((span_id, name_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self._id.append(span_id)
                self._parent.append(parent)
                self._name.append(name_id)
                self._start.append(start)
                self._end.append(end)
                self._thread.append(threading.get_ident())

    def spans(self) -> List[Span]:
        """Every closed span as a tuple, in closing order."""
        names = self._names
        return [
            (self._id[i], self._parent[i], names[self._name[i]],
             self._start[i], self._end[i], self._thread[i])
            for i in range(len(self._id))
        ]

    def write(self, path: str, origin: float) -> None:
        """Dump every span as gzipped JSON lines, times relative to
        ``origin``: a header line, then ``[id, parent, name, start, end,
        thread]`` per span."""
        threads = {ident: n for n, ident in enumerate(sorted(set(self._thread)))}
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(
                '{"run_id": "%s", "fields": ["id", "parent", "name", '
                '"start_s", "end_s", "thread"]}\n' % self.run_id
            )
            names = self._names
            for i in range(len(self._id)):
                handle.write('[%d, %d, "%s", %.9f, %.9f, %d]\n' % (
                    self._id[i], self._parent[i], names[self._name[i]],
                    self._start[i] - origin, self._end[i] - origin,
                    threads[self._thread[i]],
                ))

    # -- attribution --------------------------------------------------------

    def self_times(
        self, start: float, end: float, waits: FrozenSet[str] = frozenset()
    ) -> Tuple[Dict[str, float], float]:
        """Per-span-name self seconds and the leftover over ``[start, end]``.

        ``sum(self.values()) + leftover == end - start`` up to rounding.
        Self time of a span named in ``waits`` is idle time: it goes to the
        leftover.
        """
        return sweep_self_times(self.spans(), start, end, waits)

    def inclusive(self) -> Dict[str, Tuple[int, float]]:
        """Per span name: (calls, summed duration) — children included."""
        out: Dict[str, Tuple[int, float]] = {}
        names = self._names
        for i in range(len(self._id)):
            name = names[self._name[i]]
            calls, seconds = out.get(name, (0, 0.0))
            out[name] = (calls + 1, seconds + (self._end[i] - self._start[i]))
        return out


def span_problems(spans: List[Span], start: float, end: float) -> List[str]:
    """Problems with a span tree recorded over ``[start, end]``: a span
    outside the window, a child outside its parent's interval or on another
    thread, or a missing parent.  Empty when the tree is sound."""
    by_id = {span[0]: span for span in spans}
    problems = []
    for span_id, parent, name, span_start, span_end, thread in spans:
        if not start <= span_start <= span_end <= end:
            problems.append(f"{name}#{span_id} lies outside the traced window")
        if parent < 0:
            continue
        up = by_id.get(parent)
        if up is None:
            problems.append(f"{name}#{span_id} has unknown parent {parent}")
        elif up[5] != thread or span_start < up[3] or span_end > up[4]:
            problems.append(f"{name}#{span_id} lies outside parent {up[2]}")
    return problems


def _innermost_segments(spans: List[Span]) -> List[Tuple[float, float, str]]:
    """Per thread, the intervals during which each span is innermost."""
    threads: Dict[int, List[Span]] = {}
    for span in spans:
        threads.setdefault(span[5], []).append(span)
    segments: List[Tuple[float, float, str]] = []
    for own in threads.values():
        # starts sort before ends at equal times; ids order nesting (a
        # parent opens before and closes after its children)
        events = sorted(
            [(span[3], 0, span[0], span) for span in own]
            + [(span[4], 1, -span[0], span) for span in own]
        )
        stack: List[Span] = []
        cursor = 0.0
        for when, kind, _, span in events:
            if stack and when > cursor:
                segments.append((cursor, when, stack[-1][2]))
            cursor = when
            if kind == 0:
                stack.append(span)
            else:
                stack.remove(span)
    return segments


def sweep_self_times(
    spans: List[Span], start: float, end: float,
    waits: FrozenSet[str] = frozenset(),
) -> Tuple[Dict[str, float], float]:
    """Self time per span name across threads, plus the uncovered leftover.

    At every instant the threads inside spans share it evenly; an instant
    no thread spends inside a span — or only inside a ``waits`` span — is
    leftover.
    """
    events = []
    for seg_start, seg_end, name in _innermost_segments(spans):
        if name in waits:
            continue
        seg_start, seg_end = max(seg_start, start), min(seg_end, end)
        if seg_end > seg_start:
            events.append((seg_start, 1, name))
            events.append((seg_end, -1, name))
    events.sort(key=lambda event: (event[0], event[1]))
    active: Dict[str, int] = {}
    total_active = 0
    owned: Dict[str, float] = {}
    leftover = 0.0
    cursor = start
    for when, delta, name in events:
        if when > cursor:
            width = when - cursor
            if total_active == 0:
                leftover += width
            else:
                for held, count in active.items():
                    if count:
                        owned[held] = owned.get(held, 0.0) + (
                            width * count / total_active
                        )
            cursor = when
        active[name] = active.get(name, 0) + delta
        total_active += delta
    if end > cursor:
        leftover += end - cursor
    return owned, leftover


# -- installing wrappers ------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + ``attr`` -> span ``name``.

    ``attr`` is ``"func"`` for a module-level function or ``"Class.method"``
    for a method; a method is wrapped on the class and on every subclass
    that overrides it.  ``after`` (optional) sees the call's arguments and
    result to add counters, such as bytes written.
    """

    name: str
    module: str
    attr: str
    after: Optional[Callable[[Recorder, tuple, dict, object], None]] = None


def _wrap(recorder: Recorder, target: Target, original: Callable) -> Callable:
    name_id, after, call = recorder.name_id(target.name), target.after, recorder.call

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = call(name_id, original, args, kwargs)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    return wrapper


def _subclasses(cls: type) -> Iterable[type]:
    seen = set()
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            yield current
            todo.extend(current.__subclasses__())


class Installation:
    """The wrappers :func:`install` put in place; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def install(recorder: Recorder, targets: Iterable[Target]) -> Installation:
    """Wrap every target.  A function is rebound in every loaded ``repro``
    module that imported it by name, so ``from x import f`` callers see the
    wrapper too."""
    done = Installation()
    try:
        for target in targets:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                class_name, method = target.attr.split(".")
                for cls in _subclasses(getattr(module, class_name)):
                    raw = cls.__dict__.get(method)
                    if raw is None:
                        continue
                    if not inspect.isfunction(raw):
                        raise TypeError(f"cannot trace {cls.__name__}.{method}")
                    done.replace(cls, method, _wrap(recorder, target, raw))
                continue
            original = getattr(module, target.attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{target.module}.{target.attr} is not a function")
            wrapper = _wrap(recorder, target, original)
            for name, loaded in list(sys.modules.items()):
                if name.startswith("repro") and loaded is not None:
                    if loaded.__dict__.get(target.attr) is original:
                        done.replace(loaded, target.attr, wrapper)
    except BaseException:
        done.remove()
        raise
    return done
