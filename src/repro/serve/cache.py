"""Bounded LRU cache for rendered API responses.

The serve app caches rendered response bodies keyed on (endpoint, params,
corpus manifest hash): a sealed corpus never changes, so a rendered read
is valid for the lifetime of the corpus and the manifest-hash component
only exists to invalidate entries if an app is ever rebound to a
different corpus.  The serve app owns its counters (hit rate is a
headline benchmark number) and charges different virtual costs for hits
and misses.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.net.http import Response

__all__ = ["RenderCache"]


class RenderCache:
    """LRU map from request key to a rendered master :class:`Response`.

    Entries store the *master* response; callers hand out per-request
    shells around the shared body (the transport mutates ``.elapsed`` on
    whatever it returns).  Counters are plain ints so a load report can
    cite them and a determinism test can compare them across runs.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[tuple, Response] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Response | None:
        """The cached master response, or None (counted as a miss)."""
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return cached

    def put(self, key: tuple, response: Response) -> None:
        """Insert a freshly rendered master response, evicting LRU."""
        self._entries[key] = response
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        """Counters for the status endpoint and load reports."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
