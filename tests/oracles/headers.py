"""The list-scan header map: the reference for ``repro.net.http.Headers``.

Every lookup lowers each stored name in turn.  ``Headers`` keeps the
lower-cased names beside the items instead; for any sequence of
operations the two must answer the same.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

__all__ = ["ListScanHeaders"]


class ListScanHeaders:
    """Same interface as ``Headers``; case-insensitive by scanning."""

    def __init__(self, items: Mapping[str, str] | Iterable[tuple[str, str]] = ()) -> None:
        self._items: list[tuple[str, str]] = []
        if isinstance(items, (dict, Mapping)):
            items = items.items()
        for name, value in items:
            self.add(name, value)

    def add(self, name: str, value: str) -> None:
        self._items.append((name, str(value)))

    def set(self, name: str, value: str) -> None:
        lowered = name.lower()
        if any(n.lower() == lowered for n, _ in self._items):
            self._items = [(n, v) for n, v in self._items if n.lower() != lowered]
        self._items.append((name, str(value)))

    def get(self, name: str, default: str | None = None) -> str | None:
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> list[str]:
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.get(name) is not None

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "ListScanHeaders":
        return ListScanHeaders(self._items)
