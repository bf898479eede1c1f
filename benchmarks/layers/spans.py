"""Wall-clock spans recorded from outside the program.

A :class:`Tracer` wraps the layers' public callables where the program
looks them up — a module global such as ``repro.core.optimizer.
blockwise_search`` or a class attribute such as ``BlockedMatrix.matmul`` —
and puts every original object back on :meth:`Tracer.restore`. Nothing
under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent, op]``. Each thread keeps its own
stack of open spans; a span opened on a thread whose stack is empty (the
server's event loop, a pool worker) is parented to the innermost span
open on the thread that most recently started work, which with one
closed-loop caller is the span that handed the work over.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: Identifier of the operation in flight, set by :meth:`operation`.
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Non-empty per-thread stacks, in the order they became non-empty.
        self._active: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _begin(self, name: str) -> list:
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            with self._lock:
                parent = self._active[-1][-1] if self._active else None
                self._active.append(stack)
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        stack.append(record)
        self.spans.append(record)
        return record

    def _end(self, record: list) -> None:
        record[END] = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if not stack:
            with self._lock:
                self._active[:] = [s for s in self._active if s is not stack]

    @contextmanager
    def operation(self, op: int, name: str):
        """The root span of one timed operation."""
        self.op = op
        record = self._begin(name)
        try:
            yield record
        finally:
            self._end(record)

    def wrap(self, function, name: str, on_return=None):
        """``function`` recorded as a span; ``on_return(result, args)``
        runs after the span closes, for counts taken at the boundary."""
        begin, end = self._begin, self._end
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced(*args, **kwargs):
                record = begin(name)
                try:
                    return await function(*args, **kwargs)
                finally:
                    end(record)
        elif on_return is None:
            @functools.wraps(function)
            def traced(*args, **kwargs):
                record = begin(name)
                try:
                    return function(*args, **kwargs)
                finally:
                    end(record)
        else:
            @functools.wraps(function)
            def traced(*args, **kwargs):
                record = begin(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    end(record)
                on_return(result, args)
                return result
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attribute: str, name: str, on_return=None) -> None:
        """Replace ``owner.attribute`` (module global, method, classmethod
        or staticmethod) with its traced twin until :meth:`restore`."""
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            traced = type(original)(
                self.wrap(original.__func__, name, on_return))
        else:
            traced = self.wrap(original, name, on_return)
        self.replace(owner, attribute, traced)

    def replace(self, owner, attribute: str, value) -> None:
        self._patched.append(
            (owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, original) of everything currently replaced."""
        return list(self._patched)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span, in ``self.spans`` order: its duration
        minus the durations of the spans it directly caused."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        own = [record[END] - record[START] for record in self.spans]
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                own[index[id(parent)]] -= record[END] - record[START]
        return own

    def write_jsonl(self, path) -> None:
        index = {id(record): i for i, record in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as out:
            for i, record in enumerate(self.spans):
                parent = record[PARENT]
                out.write(json.dumps({
                    "id": i, "name": record[NAME], "start": record[START],
                    "end": record[END], "op": record[OP],
                    "parent": None if parent is None else index[id(parent)],
                }) + "\n")
