"""In-memory tracing of the package's public functions, from outside it.

A :class:`Tracer` replaces chosen module functions and class methods with
wrappers.  A *span* wrapper records ``[name, phase, start, end, parent]``
per call, so self time (duration minus the children's durations) can be
computed afterwards; a *counter* wrapper only adds calls, seconds and, when
asked, output bytes to per-phase totals, for functions called thousands of
times per window.  Phases (``setup``, ``main``, ``check``) are opened by
the benchmark itself, so a layer's figures can be restricted to the phase
that is being measured.  Functions that no longer exist are recorded as
missing instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.missing: set[str] = set()
        self.phase_name = "none"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans and phases -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase_name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        previous = self.phase_name
        self.phase_name = name
        idx = self._open(f"phase.{name}")
        try:
            yield
        finally:
            self._close(idx)
            self.phase_name = previous

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[(self.phase_name, key)] += value

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, span: bool = True,
             observe=None) -> None:
        """Trace ``owner.attr`` under ``name``.

        ``span=False`` keeps per-phase totals ``name.calls`` and
        ``name.seconds`` instead of a span per call.  ``observe(args,
        result)``, when given, runs after each call (outside the timing) to
        add counters of its own.
        """
        try:
            original = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.add(name)
            return
        fn = getattr(owner, attr)
        tracer = self

        if span:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if observe is not None:
                    observe(args, result)
                return result
        else:
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                tracer.counters[(tracer.phase_name, name + ".seconds")] += \
                    time.perf_counter() - start
                tracer.counters[(tracer.phase_name, name + ".calls")] += 1
                if observe is not None:
                    observe(args, result)
                return result

        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(wrapped))
        else:
            setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading the trace -------------------------------------------------

    def totals(self, phase: str) -> tuple[dict, dict, dict]:
        """Per span name in ``phase``: (call count, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, ph, start, end, _) in enumerate(self.spans):
            if ph != phase or end is None:
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[idx]
        return calls, total, own

    def counter(self, phase: str, key: str) -> float:
        return self.counters.get((phase, key), 0.0)

    def dump(self, path) -> None:
        """Write the spans and counters as JSON (times in seconds from the first span)."""
        origin = self.spans[0][2] if self.spans else 0.0
        spans = [[n, ph, round(s - origin, 7), round((e or s) - origin, 7), p]
                 for n, ph, s, e, p in self.spans]
        counters = [[ph, key, value] for (ph, key), value in sorted(self.counters.items())]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "phase", "start_s", "end_s", "parent"],
                       "spans": spans, "counters": counters,
                       "missing": sorted(self.missing)}, f)
