"""Span recorder for the benchmark's traced runs.

Spans are recorded around the benchmark's own calls into the library's
public functions (never inside the library).  Each span has a name, a
start, an end, a parent span and the request (explanation) it belongs
to.  Spans stay in memory and are written out once, when the run ends.
With recording disabled, ``span`` returns a shared no-op context, so the
untraced runs that give the end-to-end numbers pay almost nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NO_SPAN = contextlib.nullcontext()


class _Span:
    __slots__ = ("rec", "name", "id", "parent", "start")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.id = rec.next_id
        rec.next_id += 1
        self.parent = rec.open_ids[-1] if rec.open_ids else None
        rec.open_ids.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        rec = self.rec
        rec.open_ids.pop()
        rec.spans.append({
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": end,
            "parent": self.parent,
            "request": rec.request,
        })
        return False


class Recorder:
    """Collects spans while ``enabled``; ``request`` tags the spans of one explanation."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.open_ids: list[int] = []
        self.next_id = 0
        self.request: str | None = None

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def mark(self) -> int:
        """Position in the span list, for selecting the spans recorded after it."""
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"clock": "time.perf_counter seconds", "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time covered by child spans.

    Children of one parent run one after another, so their durations
    never overlap and can simply be summed.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - child_time.get(s["id"], 0.0)
    return dict(out)


def durations(spans: list[dict], name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]
