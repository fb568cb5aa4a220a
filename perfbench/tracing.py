"""Span recording around calls into the program's public functions.

The benchmark measures ``repro`` from outside: it replaces functions and
methods with timing wrappers for the length of a run and puts the
originals back afterwards.  Nothing under ``src/`` knows it is traced.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span (-1 for a root).  Spans are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

_MISSING = object()


class Patches:
    """Attribute replacements that can all be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(current)``; remembers the original.

        ``owner`` is a module or a class.  For a class only what the
        class itself defines is restored, so wrapping an inherited method
        on a subclass leaves the base class untouched.
        """
        current = getattr(owner, attr)
        if inspect.isgeneratorfunction(current):
            raise TypeError(f"{attr} is a generator; a span would end early")
        own = vars(owner).get(attr, _MISSING)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, make(current))

    def undo(self) -> None:
        while self._undo:
            owner, attr, own = self._undo.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


class Tracer:
    """Records nested spans around wrapped calls (single-threaded)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: counters that span ``after`` hooks add to
        self.counters: defaultdict[str, float] = defaultdict(float)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()

    def wrapper(
        self, name: str, after: Callable | None = None
    ) -> Callable[[Callable], Callable]:
        """A ``make`` for :meth:`Patches.replace` recording span ``name``.

        ``after(args, result)`` runs when the call returns, inside the
        span, to update counters such as bytes written.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def make(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                record = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(record)
                try:
                    result = fn(*args, **kwargs)
                    if after is not None:
                        after(args, result)
                    return result
                finally:
                    stack.pop()
                    record[2] = clock()

            return traced

        return make

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: name, start and end in seconds, parent."""
        base = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, round(start - base, 9), round(end - base, 9), parent]
                for name, start, end, parent in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children of one span never overlap (calls nest on one thread), so
    the covered time is the sum of the children's durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def by_name(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a name
    that recurses is not counted twice.
    """
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["self_s"] += own[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
    return totals


def by_group(
    spans: list[list], group_of: Callable[[str], str | None]
) -> dict[str, dict]:
    """Time and nested spans per group, such as a crawl phase.

    ``group_of(name)`` gives the group a span opens, or None.  A span
    belongs to the group of its nearest group-opening ancestor.  Returns
    per group ``{"total_s", "calls": {name: n}, "inner_s": {name: s}}``:
    the group spans' own duration, and the count and summed duration of
    each span name inside.  Group spans must not nest in one another,
    and the summed ``inner_s`` is exact only for names that do not nest
    in themselves.
    """
    owner = [None] * len(spans)
    groups: dict[str, dict] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        key = group_of(name)
        if key is not None:
            owner[index] = key
            entry = groups.setdefault(
                key, {"total_s": 0.0, "calls": {}, "inner_s": {}}
            )
            entry["total_s"] += end - start
            continue
        key = owner[parent] if parent >= 0 else None
        owner[index] = key
        if key is not None:
            entry = groups[key]
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
            entry["inner_s"][name] = (
                entry["inner_s"].get(name, 0.0) + end - start
            )
    return groups
