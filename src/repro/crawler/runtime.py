"""The resumable crawl runtime: periodic, atomic checkpoint writing.

The paper's crawl ran for weeks against a live, rate-limited service —
"resumability was survival".  This module supplies the cadence half of
that story: a :class:`Checkpointer` owns a checkpoint file and decides
*when* to snapshot (every N pages and/or every M simulated seconds),
while the crawlers supply *what* to snapshot through a state provider
callback.  Writes are atomic (tmp file + ``os.replace``), so a crawl
killed at any instant leaves either the previous complete checkpoint or
the new one — never a torn file.

Layering:

* a crawler calls :meth:`Checkpointer.set_provider` with a zero-argument
  callable returning its current fields (sub-stage, cursor and, per
  crawler, partial corpus, frontier and stats), then calls
  :meth:`Checkpointer.tick` once per fetched page;
* the pipeline wraps those fields via :meth:`Checkpointer.set_wrapper`
  in its v5 envelope, which also records *which* §3 stage is active,
  references to the artifacts of completed stages and the shared
  client's cookies.

A tick writes only what changed.  The checkpointer also owns the state
file's sidecars (a value written once, :meth:`Checkpointer.sidecar`) and
journals (a list appended to, :meth:`Checkpointer.journal`); a payload
holds their references, obtained through :meth:`Checkpointer.ref` and
:meth:`Checkpointer.journal` while it is built.  Once a state file is
durable, every sidecar or journal it does not reference is deleted, so
the files on disk are always exactly the latest state file plus what it
references.  :meth:`Checkpointer.discard` removes them all.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.crawler.checkpoint import (
    STATE_SUFFIX,
    atomic_write_bytes,
    atomic_write_json,
    encode_json,
    file_ref,
    journal_path,
    journal_record,
    read_journal,
    read_sidecar,
    sidecar_path,
)
from repro.net.clock import Clock

if TYPE_CHECKING:   # the store's segment writer imports the checkpoint module
    from repro.store.corpus import CorpusStore

__all__ = [
    "Checkpointer",
    "load_state",
    "restore_store",
    "resume_checkpointer",
    "snapshot_store",
]

T = TypeVar("T")


@dataclass
class _Sidecar:
    path: Path
    ref: dict


@dataclass
class _Journal:
    path: Path
    digest: "hashlib._Hash"
    size: int = 0
    records: int = 0       # entries of the current list already appended
    generation: int = 0

    def ref(self) -> dict:
        return {
            "sha256": self.digest.hexdigest(),
            "bytes": self.size,
            "records": self.records,
            "generation": self.generation,
        }


class Checkpointer:
    """Periodic atomic checkpoint writer.

    Args:
        path: checkpoint file location.
        every_pages: write after this many :meth:`tick` calls (>= 1).
        every_seconds: also write when this many (simulated) seconds have
            passed since the last write; 0 disables the time trigger.
        clock: time source for the seconds trigger (required when
            ``every_seconds`` > 0).

    ``bytes_written`` counts every byte the checkpointer wrote: state
    files, sidecars and journal appends.
    """

    def __init__(
        self,
        path: str | Path,
        every_pages: int = 25,
        every_seconds: float = 0.0,
        clock: Clock | None = None,
    ) -> None:
        if every_pages < 1:
            raise ValueError("every_pages must be >= 1")
        if every_seconds < 0:
            raise ValueError("every_seconds must be >= 0")
        if every_seconds > 0 and clock is None:
            raise ValueError("a clock is required for the seconds trigger")
        self.path = Path(path)
        self._every_pages = every_pages
        self._every_seconds = every_seconds
        self._clock = clock
        self._pages_since_save = 0
        self._last_save_time = clock.now() if clock is not None else 0.0
        self._provider: Callable[[], dict | None] | None = None
        self._wrapper: Callable[[dict | None], dict | None] | None = None
        self._files: dict[str, _Sidecar | _Journal] = {}
        # Keys referenced by the payload being built, and the files the
        # last durable state file references (None: not swept yet).
        self._referenced: set[str] = set()
        self._durable: set[str] | None = None
        self.saves = 0
        self.ticks = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # State sources.
    # ------------------------------------------------------------------

    def set_provider(self, provider: Callable[[], dict | None] | None) -> None:
        """Install the active crawler's snapshot callback (None clears)."""
        self._provider = provider

    def set_wrapper(
        self, wrapper: Callable[[dict | None], dict | None] | None
    ) -> None:
        """Install a payload wrapper (the pipeline's envelope)."""
        self._wrapper = wrapper

    def _payload(self) -> dict | None:
        inner = self._provider() if self._provider is not None else None
        if self._wrapper is not None:
            return self._wrapper(inner)
        return inner

    # ------------------------------------------------------------------
    # Sidecars and journals.
    # ------------------------------------------------------------------

    def sidecar(self, key: str, value: object) -> None:
        """Write ``value`` once, atomically, as the sidecar of ``key``.

        It replaces any earlier sidecar of ``key``.  Payloads reference
        it through :meth:`ref`.
        """
        data = encode_json(value).encode("utf-8")
        ref = file_ref(data)
        path = sidecar_path(self.path, key, ref["sha256"])
        self.bytes_written += atomic_write_bytes(path, data)
        self._files[key] = _Sidecar(path, ref)

    def read_sidecar(self, key: str, ref: object) -> object:
        """Verify and decode the sidecar of ``key`` a loaded state file references.

        The sidecar is adopted: later payloads reference it through
        :meth:`ref` without writing it again.

        Raises:
            ValueError: the sidecar is missing, truncated or corrupt.
        """
        path, checked, value = read_sidecar(self.path, key, ref)
        self._files[key] = _Sidecar(path, checked)
        return value

    def ref(self, key: str) -> dict:
        """The reference to ``key``'s sidecar or journal, for the payload being built."""
        self._referenced.add(key)
        entry = self._files[key]
        return entry.ref if isinstance(entry, _Sidecar) else entry.ref()

    def journal(
        self,
        key: str,
        records: Sequence[T],
        encode: Callable[[T], object],
        generation: int = 0,
    ) -> dict:
        """Append the records ``key``'s journal lacks; return its reference.

        ``records`` is a list that only grows within a ``generation``:
        the journal holds its first *n* entries, and this call appends
        ``encode`` of the rest.  A list that is replaced by a fresh one
        (a store tail after a seal) passes a new ``generation``; all of
        its records are then appended, after the old ones.  The list is
        always the journal's last ``len(records)`` records.  The append
        is durable before the state file that references it is written.
        A key with no open journal starts an empty one.
        """
        entry = self._files.get(key)
        if not isinstance(entry, _Journal):
            entry = _Journal(journal_path(self.path, key), hashlib.sha256())
            entry.path.write_bytes(b"")
            self._files[key] = entry
        if entry.generation != generation:
            entry.generation = generation
            entry.records = 0
        if len(records) < entry.records:
            raise ValueError(
                f"journal {key!r} holds {entry.records} records of generation "
                f"{generation}, the list now has {len(records)}"
            )
        if entry.records < len(records):
            data = b"".join(
                journal_record(encode(record))
                for record in records[entry.records:]
            )
            with open(entry.path, "ab") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            entry.digest.update(data)
            entry.size += len(data)
            entry.records = len(records)
            self.bytes_written += len(data)
        return self.ref(key)

    def open_journal(self, key: str, ref: object) -> list:
        """Reopen ``key``'s journal at the prefix a loaded state file records.

        Bytes past the prefix — an append whose state file never landed —
        are truncated; later :meth:`journal` calls append after it.
        Returns the journaled list, decoded.

        Raises:
            ValueError: the journal is missing, shorter than its recorded
                prefix, or the prefix fails its sha256 check.
        """
        path, checked, prefix, records = read_journal(self.path, key, ref)
        with open(path, "r+b") as handle:
            handle.truncate(len(prefix))
        self._files[key] = _Journal(
            path, hashlib.sha256(prefix), len(prefix), len(records),
            checked["generation"],
        )
        return records

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` has a sidecar or journal this checkpointer holds."""
        return key in self._files

    # ------------------------------------------------------------------
    # Cadence.
    # ------------------------------------------------------------------

    def tick(self) -> bool:
        """Record one page of progress; write a checkpoint when due.

        Returns True when a checkpoint was written.
        """
        self.ticks += 1
        self._pages_since_save += 1
        due = self._pages_since_save >= self._every_pages
        if not due and self._every_seconds > 0 and self._clock is not None:
            due = (
                self._clock.now() - self._last_save_time >= self._every_seconds
            )
        if due:
            return self.flush()
        return False

    def flush(self) -> bool:
        """Write a checkpoint now (regardless of cadence).

        Returns True when a payload was available and written.  Once the
        state file is durable, sidecars and journals it does not
        reference are deleted: a sidecar must be referenced by the next
        state file written after it.
        """
        self._referenced = set()
        payload = self._payload()
        if payload is None:
            return False
        self.bytes_written += atomic_write_json(self.path, payload)
        live = {self._files[key].path.name for key in self._referenced}
        if live != self._durable or len(self._files) > len(self._referenced):
            self._sweep(live)
            self._durable = live
            self._files = {
                key: entry for key, entry in self._files.items()
                if key in self._referenced
            }
        self.saves += 1
        self._pages_since_save = 0
        if self._clock is not None:
            self._last_save_time = self._clock.now()
        return True

    # ------------------------------------------------------------------
    # Cleanup.
    # ------------------------------------------------------------------

    def _state_files(self) -> list[Path]:
        """Sidecars, journals and leftover tmp files beside the state file."""
        pattern = glob.escape(str(self.path)) + ".*"
        return sorted(
            Path(name) for name in glob.glob(pattern)
            if name.endswith((STATE_SUFFIX, STATE_SUFFIX + ".tmp"))
        )

    def _sweep(self, keep: set[str]) -> None:
        for path in self._state_files():
            if path.name not in keep:
                path.unlink(missing_ok=True)

    def discard(self) -> None:
        """Remove the state file, its sidecars and its journals."""
        self._sweep(set())
        self.path.unlink(missing_ok=True)
        self.path.with_name(self.path.name + ".tmp").unlink(missing_ok=True)
        self._files = {}
        self._durable = None


def resume_checkpointer(checkpointer: Checkpointer | None, what: str) -> Checkpointer:
    """The checkpointer a resume of ``what`` reads its sidecars and journals with.

    Raises:
        ValueError: none was given.
    """
    if checkpointer is None:
        raise ValueError(
            f"resuming a {what} checkpoint needs the Checkpointer of its "
            f"state file"
        )
    return checkpointer


def snapshot_store(checkpointer: Checkpointer, key: str, store: CorpusStore) -> dict:
    """``store.snapshot()`` with its bulk kept out of the state file.

    The lines of each inline sealed segment go to a sidecar, written
    when the segment first appears; the unsealed tail goes to a journal
    whose generation is the sealed-segment count.  A tick then writes
    only the tail lines added since the last one.  :func:`restore_store`
    reverses it.
    """
    payload = store.snapshot()
    for entry in payload["sealed"]:
        lines = entry.get("lines")
        if lines is not None:
            segment_key = f"{key}.{entry['name']}"
            if segment_key not in checkpointer:
                checkpointer.sidecar(segment_key, lines)
            entry["lines"] = checkpointer.ref(segment_key)
    payload["tail"] = checkpointer.journal(
        f"{key}.tail", payload["tail"], str, len(payload["sealed"])
    )
    return payload


def restore_store(
    checkpointer: Checkpointer, key: str, store: CorpusStore, payload: dict
) -> None:
    """Restore a :func:`snapshot_store` payload into ``store``.

    Raises:
        ValueError: a malformed payload, or a sidecar or journal that is
            missing or fails verification.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"store payload must be an object, got {type(payload).__name__}"
        )
    sealed = payload.get("sealed") or []
    if not isinstance(sealed, list) or not all(
        isinstance(entry, dict) for entry in sealed
    ):
        raise ValueError("store payload's sealed segments must be objects")
    restored = dict(payload)
    restored["sealed"] = [
        {**entry, "lines": checkpointer.read_sidecar(
            f"{key}.{entry.get('name')}", entry["lines"]
        )} if "lines" in entry else entry
        for entry in sealed
    ]
    restored["tail"] = checkpointer.open_journal(f"{key}.tail", payload.get("tail"))
    store.restore_payload(restored)


def load_state(path: str | Path) -> dict:
    """Read a checkpoint file's raw JSON payload.

    Raises:
        ValueError: the file is unreadable as a JSON object.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must be a JSON object")
    return payload
