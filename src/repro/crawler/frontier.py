"""Crawl frontier: a deduplicating FIFO work queue.

The Dissenter spider discovers each discussion page from many user home
pages; the frontier guarantees each URL is fetched once (which is also
what keeps the per-URL rate limit from ever binding, §3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Hashable, Iterable, TypeVar

__all__ = ["CrawlFrontier"]

T = TypeVar("T", bound=Hashable)


class CrawlFrontier(Generic[T]):
    """FIFO queue in which each item is ever enqueued once.

    Items remain "seen" after being dequeued, so re-adding a completed
    item is a no-op.  ``fail``/``retryable`` support the re-request loop:
    failed items can be re-enqueued explicitly up to a retry budget.
    """

    def __init__(self, items: Iterable[T] = (), max_retries: int = 3):
        self._queue: deque[T] = deque()
        self._seen: set[T] = set()
        self._pending: set[T] = set()   # currently enqueued (not yet popped)
        self._failures: dict[T, int] = {}
        self._max_retries = max_retries
        self.completed = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def add(self, item: T) -> bool:
        """Enqueue if never seen; returns True if enqueued."""
        if item in self._seen:
            return False
        self._seen.add(item)
        self._pending.add(item)
        self._queue.append(item)
        return True

    def add_many(self, items: Iterable[T]) -> int:
        """Enqueue a batch; returns how many were new."""
        return sum(1 for item in items if self.add(item))

    def pop(self) -> T:
        """Dequeue the next item.

        Raises:
            IndexError: the frontier is empty.
        """
        item = self._queue.popleft()
        self._pending.discard(item)
        self.completed += 1
        return item

    def peek(self, n: int = 1) -> list[T]:
        """The next up-to-``n`` items in pop order, without dequeuing.

        The concurrent fetch engine plans a window from this — actual
        pops happen at merge time so a mid-window checkpoint still sees
        the items as queued.
        """
        if n < 0:
            raise ValueError("n must be >= 0")
        return [self._queue[i] for i in range(min(n, len(self._queue)))]

    def fail(self, item: T) -> bool:
        """Record a failure; re-enqueue unless the retry budget is spent.

        Only an item that was actually popped (and not yet re-enqueued)
        may fail; anything else would corrupt the ``completed`` count and
        the retry loop's FIFO expectations.

        Returns True if the item was re-enqueued.

        Raises:
            ValueError: the item was never popped (unknown to the
                frontier, or still waiting in the queue).
        """
        if item not in self._seen or item in self._pending:
            raise ValueError(
                f"fail() on an item that was never popped: {item!r}"
            )
        count = self._failures.get(item, 0) + 1
        self._failures[item] = count
        if count > self._max_retries:
            return False
        self._pending.add(item)
        self._queue.append(item)
        self.completed -= 1   # it will be popped again
        return True

    def permanently_failed(self) -> list[T]:
        """Items that exhausted their retry budget."""
        return [
            item
            for item, count in self._failures.items()
            if count > self._max_retries
        ]

    # ------------------------------------------------------------------
    # Checkpointing (the resumable-crawl runtime serialises the frontier
    # mid-flight: queue order, the seen set, and per-item failure counts).
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """Snapshot the frontier as a JSON-serialisable dict.

        Failure counts are stored as ``[item, count]`` pairs (not a dict)
        so non-string items survive a JSON round trip.  The seen set is
        emitted sorted (by repr, so mixed item types never break the
        sort): raw ``set`` order depends on PYTHONHASHSEED for string
        items, which would make otherwise-identical checkpoints differ
        byte-for-byte between processes.
        """
        return {
            "queue": list(self._queue),
            "seen": sorted(self._seen, key=repr),
            "failures": [[item, count] for item, count in self._failures.items()],
            "max_retries": self._max_retries,
            "completed": self.completed,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CrawlFrontier[T]":
        """Rebuild a frontier from :meth:`to_state` output.

        Raises:
            ValueError: the state dict is malformed.
        """
        try:
            frontier: CrawlFrontier[T] = cls(max_retries=int(state["max_retries"]))
            frontier._queue = deque(state["queue"])
            frontier._seen = set(state["seen"])
            # Invariant: an item is pending iff it sits in the queue.
            frontier._pending = set(state["queue"])
            frontier._failures = {
                item: int(count) for item, count in state["failures"]
            }
            frontier.completed = int(state["completed"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed frontier state: {exc!r}") from exc
        return frontier
