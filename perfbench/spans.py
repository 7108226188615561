"""In-memory spans around the benchmark's calls into each layer.

A span records a name, start, end and parent.  Names are
``<layer>.<call>`` (``emulator.run``, ``uarch.simulate_batch``...);
the layer is the part before the first dot, and ``bench`` is the
benchmark's own code.  Spans stay in memory and leave the process as
plain dicts when the repetition ends.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Records spans when enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._open: List[int] = []

    def span(self, name: str, **attrs):
        """Context manager timing one call; yields the span's attrs.

        Counts known only after the call can be added to the yielded
        dict; a disabled tracer yields a throwaway one.
        """
        if not self.enabled:
            return nullcontext({})
        return self._record(name, attrs)

    @contextmanager
    def _record(self, name: str, attrs: dict) -> Iterator[dict]:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield attrs
        finally:
            span["end"] = perf_counter()
            self._open.pop()


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Self time per span id: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children count once.
    """
    children: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["id"]] = (end - start) - covered
    return out


def descendants(spans: List[dict], root: int) -> List[dict]:
    """Every span below ``root`` (not including it)."""
    below = {root}
    out = []
    for span in spans:  # parents are always recorded before children
        if span["parent"] in below:
            below.add(span["id"])
            out.append(span)
    return out


def layer_self_seconds(spans: List[dict], root: int) -> Dict[str, float]:
    """Self seconds per layer over the spans below ``root``."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in descendants(spans, root):
        layer = span["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[span["id"]]
    return out
