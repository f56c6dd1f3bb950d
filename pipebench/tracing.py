"""In-memory layer spans for the traced benchmark run.

The benchmark times each layer from outside the program: it replaces
public methods on the objects it builds with timing wrappers.  Nothing
under ``src/`` is instrumented, and the untraced run wraps nothing.

Every span records name, start, end, parent span and iteration (the
closed-loop pass it belongs to).  A layer's self time is its span's
duration minus the time covered by its direct children.  Spans stay in
memory and are exported once, at the end of the run, as a Chrome trace
(Perfetto-loadable) through :func:`repro.telemetry.export.chrome_trace`.
"""

from __future__ import annotations

import json
import time
import types
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    """Span recorder with per-iteration layer totals."""

    def __init__(self):
        #: ``(span_id, name, start_s, end_s, parent_id, iteration,
        #: track)``.
        self.spans: list[tuple] = []
        self.iteration = 0
        #: name -> [calls, busy_s, self_s] for the current iteration,
        #: and over the whole run.
        self.totals: dict[str, list] = {}
        self.cumulative: dict[str, list] = {}
        # Open spans: [span_id, time covered by direct children].
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str, start: float,
              end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], name, start, end,
                           parent[0] if parent is not None else -1,
                           self.iteration, "closed loop"))
        for table in (self.totals, self.cumulative):
            entry = table.get(name)
            if entry is None:
                entry = table[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[1]

    def record(self, name: str, start: float, end: float, parent: int,
               track: str) -> None:
        """Add a span timed elsewhere, such as a run in a worker process."""
        self.spans.append((self._next_id, name, start, end, parent,
                           self.iteration, track))
        self._next_id += 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        frame = self._enter()
        start = _now()
        try:
            yield
        finally:
            self._exit(frame, name, start, _now())

    def timed(self, fn, name: str):
        """``fn`` wrapped so that every call records a ``name`` span."""
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, name, start, _now())
        return wrapper

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time ``obj.attr`` as span ``name`` until :meth:`unwrap_all`.

        Instances get a shadowing attribute, which :meth:`unwrap_all`
        deletes; modules and classes get the original restored.
        """
        original = getattr(obj, attr)
        own = isinstance(obj, (type, types.ModuleType))
        self._patches.append((obj, attr, original, own))
        setattr(obj, attr, self.timed(original, name))

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            obj, attr, original, own = self._patches.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    # -- per-iteration totals -------------------------------------------------

    def next_iteration(self) -> dict[str, list]:
        """Close the current iteration; return its per-layer totals."""
        totals, self.totals = self.totals, {}
        self.iteration += 1
        return totals

    # -- export ---------------------------------------------------------------

    def write_chrome_trace(self, path, name: str) -> None:
        """Write every span as a Chrome trace-event file at ``path``."""
        from repro.telemetry.export import chrome_trace
        from repro.telemetry.hub import Telemetry

        hub = Telemetry(name)
        origin = min((s[2] for s in self.spans), default=0.0)
        for (span_id, span_name, start, end, parent, iteration,
             track) in self.spans:
            hub.span(span_name, (start - origin) * 1e6,
                     (end - origin) * 1e6, track=track, unit="us",
                     wall=True, id=span_id, parent=parent,
                     iteration=iteration)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(hub), handle, separators=(",", ":"))
