"""The segmented corpus store.

:class:`CorpusStore` is the one corpus type: the interface between the
crawl, score and analyze stages.  It exposes ``users`` / ``urls`` /
``comments`` dicts in first-insertion order and the secondary-index
methods, and adds:

* an **append-only record log**: every ``add_*``/``touch_user`` call
  appends one canonical JSONL line (:mod:`repro.store.codecs`); replaying
  the log rebuilds the dicts bit-identically, because a dict upsert keeps
  the key's original position — exactly the semantics the crawl relies
  on.  Mutations (stage-4 author metadata, shadow labels) are revision
  re-appends, never in-place log edits.
* **size-bounded segments**: every ``segment_records`` lines the write
  buffer seals into an immutable segment.  With a ``store_dir`` the
  segment spills to disk (atomic write + manifest entry) and only its
  (name, count, sha256) reference travels in checkpoints — checkpoint
  cost becomes proportional to progress since the last tick.  Without a
  directory, sealed lines ride inline in the checkpoint payload (same
  format, same determinism).
* **memoised secondary indexes** (``comments_by_url`` / ``by_author`` /
  the active-author set), built once after :meth:`seal` and shared by
  every §4 analysis; before sealing they are computed fresh per call.
* **streaming read views** (:meth:`iter_comments`, :meth:`texts`) so
  scoring no longer materializes every comment text into a list.
* a **columnar projection** (:mod:`repro.store.columns`): every sealed
  segment keeps typed, read-only numpy column arrays in memory, and the
  sealed store exposes the :meth:`column_view` that the vectorized §4
  analyses consume.  With a ``store_dir`` each segment's arrays are also
  written as ``<name>.columns.npz`` (sha256-manifested); nothing reads
  those files back.

The store deliberately does *not* import :mod:`repro.crawler.checkpoint`
payload helpers: a state file carries the snapshot as a plain dict, and
:meth:`restore_payload` reads only the ``STORE_FORMAT_VERSION`` shape.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Iterator

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.store.codecs import (
    decode_line,
    encode_comment,
    encode_url,
    encode_user,
)
from repro.store.columns import ColumnProjector, ColumnView, adopt_columns
from repro.store.segments import (
    SegmentRef,
    hash_lines,
    read_segment,
    segment_name,
    write_manifest,
    write_segment,
)

__all__ = [
    "CorpusStore",
    "SealedCorpusError",
    "STORE_FORMAT_VERSION",
]

#: Version tag of the store snapshot payload.
STORE_FORMAT_VERSION = 3

#: Default records per sealed segment.
DEFAULT_SEGMENT_RECORDS = 4096


class SealedCorpusError(RuntimeError):
    """A write reached a store that has been sealed for analysis."""


class CorpusStore:
    """Append-only, segmented corpus store (see module docstring).

    Args:
        store_dir: spill directory for sealed segments; ``None`` keeps
            sealed segments inline (in memory and in checkpoints).
        segment_records: records per sealed segment (>= 1).
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.users: dict[str, CrawledUser] = {}
        self.urls: dict[str, CrawledUrl] = {}
        self.comments: dict[str, CrawledComment] = {}
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.segment_records = int(segment_records)
        self._projector = ColumnProjector()
        #: every sealed segment's column arrays, by segment name
        self._columns: dict[str, dict] = {}
        #: columnar projection diagnostics (surfaced on report extras)
        self.column_counters = {
            "projected": 0,          # segments projected at seal
            "reused": 0,             # identical file already on disk
            "fallbacks": 0,          # always 0; perfbench still reads it
            "view_cache_hits": 0,    # memoised view served again
        }
        self._refs: list[SegmentRef] = []
        self._inline_segments: dict[str, list[str]] = {}
        self._tail: list[str] = []
        self._sealed = False
        #: memoised post-seal index builds (tests assert == once per view)
        self.index_builds = 0
        self._memo_users_by_author: dict[str, CrawledUser] | None = None
        self._memo_by_url: dict[str, list[CrawledComment]] | None = None
        self._memo_by_author: dict[str, list[CrawledComment]] | None = None
        self._memo_active_ids: set[str] | None = None
        self._memo_active_users: list[CrawledUser] | None = None
        self._memo_view: ColumnView | None = None

    # ------------------------------------------------------------------
    # Write path.
    # ------------------------------------------------------------------

    def _guard(self) -> None:
        # Raised BEFORE any dict mutation: a rejected write must not
        # leak a record into the corpus the log never saw.
        if self._sealed:
            raise SealedCorpusError(
                "corpus store is sealed; mutation after the crawl stage "
                "would invalidate the shared analysis indexes"
            )

    def _append(self, line: str) -> None:
        self._tail.append(line)
        if len(self._tail) >= self.segment_records:
            self._seal_segment()

    def add_user(self, user: CrawledUser) -> None:
        """Record (or upsert) one user; appends a log line."""
        self._guard()
        self.users[user.username] = user
        self._projector.observe_user(user)
        self._append(encode_user(user))

    def add_url(self, url: CrawledUrl) -> None:
        """Record (or upsert) one URL; appends a log line."""
        self._guard()
        self.urls[url.commenturl_id] = url
        self._projector.observe_url(url)
        self._append(encode_url(url))

    def add_comment(self, comment: CrawledComment) -> None:
        """Record (or upsert) one comment; appends a log line."""
        self._guard()
        self.comments[comment.comment_id] = comment
        self._projector.observe_comment(comment)
        self._append(encode_comment(comment))

    def touch_user(self, user: CrawledUser) -> None:
        """Re-append a user whose fields were mutated in place.

        The stage-4 metadata crawl fills ``language``/``permissions``/
        ``view_filters`` on already-recorded users; the revision line
        makes the log self-contained so replay reproduces the mutation.
        """
        self.add_user(user)

    def _take_columns(self, name: str, count: int) -> dict:
        """Drain the projector into segment ``name``'s kept, read-only arrays."""
        arrays = self._projector.take_segment(count)
        for array in arrays.values():
            array.flags.writeable = False
        self._columns[name] = arrays
        return arrays

    def _seal_segment(self) -> None:
        lines, self._tail = self._tail, []
        name = segment_name(len(self._refs) + 1)
        arrays = self._take_columns(name, len(lines))
        if self.store_dir is not None:
            ref = write_segment(self.store_dir, name, lines)
            sha, reused = adopt_columns(self.store_dir, name, arrays)
            ref = replace(ref, columns_sha256=sha)
            self.column_counters["reused" if reused else "projected"] += 1
        else:
            ref = SegmentRef(name=name, count=len(lines), sha256=hash_lines(lines))
            self._inline_segments[name] = lines
            self.column_counters["projected"] += 1
        self._refs.append(ref)
        if self.store_dir is not None:
            write_manifest(self.store_dir, self.segment_records, self._refs)

    def seal(self) -> "CorpusStore":
        """Freeze the store: no further writes; indexes become memoised."""
        self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # ------------------------------------------------------------------
    # Log / segment accounting.
    # ------------------------------------------------------------------

    @property
    def segment_refs(self) -> list[SegmentRef]:
        """References of all sealed segments, in seal order (copy)."""
        return list(self._refs)

    @property
    def tail_records(self) -> int:
        """Unsealed lines currently buffered (the per-tick checkpoint cost)."""
        return len(self._tail)

    # ------------------------------------------------------------------
    # Streaming read views.
    # ------------------------------------------------------------------

    def iter_comments(self) -> Iterator[CrawledComment]:
        return iter(self.comments.values())

    def texts(self) -> Iterator[str]:
        """Every crawled comment text, streamed in corpus order."""
        return (c.text for c in self.comments.values())

    # ------------------------------------------------------------------
    # Secondary indexes (memoised once sealed).
    # ------------------------------------------------------------------

    def users_by_author_id(self) -> dict[str, CrawledUser]:
        if not self._sealed:
            return self._build_users_by_author()
        if self._memo_users_by_author is None:
            self.index_builds += 1
            self._memo_users_by_author = self._build_users_by_author()
        return self._memo_users_by_author

    def _build_users_by_author(self) -> dict[str, CrawledUser]:
        return {u.author_id: u for u in self.users.values()}

    def comments_by_url(self) -> dict[str, list[CrawledComment]]:
        if not self._sealed:
            return self._build_by_url()
        if self._memo_by_url is None:
            self.index_builds += 1
            self._memo_by_url = self._build_by_url()
        return self._memo_by_url

    def _build_by_url(self) -> dict[str, list[CrawledComment]]:
        grouped: dict[str, list[CrawledComment]] = {}
        for comment in self.comments.values():
            grouped.setdefault(comment.commenturl_id, []).append(comment)
        return grouped

    def comments_by_author(self) -> dict[str, list[CrawledComment]]:
        if not self._sealed:
            return self._build_by_author()
        if self._memo_by_author is None:
            self.index_builds += 1
            self._memo_by_author = self._build_by_author()
        return self._memo_by_author

    def _build_by_author(self) -> dict[str, list[CrawledComment]]:
        grouped: dict[str, list[CrawledComment]] = {}
        for comment in self.comments.values():
            grouped.setdefault(comment.author_id, []).append(comment)
        return grouped

    def active_author_ids(self) -> set[str]:
        """Author ids with at least one crawled comment (membership only)."""
        if not self._sealed:
            return {c.author_id for c in self.comments.values()}
        if self._memo_active_ids is None:
            self.index_builds += 1
            self._memo_active_ids = {
                c.author_id for c in self.comments.values()
            }
        return self._memo_active_ids

    def active_users(self) -> list[CrawledUser]:
        """Users with at least one crawled comment, in corpus order."""
        if not self._sealed:
            authors = self.active_author_ids()
            return [u for u in self.users.values() if u.author_id in authors]
        if self._memo_active_users is None:
            self.index_builds += 1
            authors = self.active_author_ids()
            self._memo_active_users = [
                u for u in self.users.values() if u.author_id in authors
            ]
        return self._memo_active_users

    def summary(self) -> dict[str, int]:
        return {
            "users": len(self.users),
            "urls": len(self.urls),
            "comments": len(self.comments),
            "active_users": len(self.active_users()),
        }

    # ------------------------------------------------------------------
    # Checkpoint snapshot / restore.
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The store's checkpoint payload (``STORE_FORMAT_VERSION``).

        It names no directory: a state file is the same wherever the
        crawl ran.  Sealed segments appear as references only when they
        live on disk; inline segments carry their lines (the data must
        live somewhere).  The unsealed tail always rides along, so with a
        ``store_dir`` the store's share of a checkpoint tick is bounded
        by ``segment_records``, not corpus size.  Checkpointing crawlers
        go one step further through
        :func:`repro.crawler.runtime.snapshot_store`, which moves inline
        segment lines into write-once sidecars and the tail into an
        append-only journal, so a tick writes only the lines added since
        the last one.
        """
        sealed = []
        for ref in self._refs:
            entry = ref.to_payload()
            lines = self._inline_segments.get(ref.name)
            if lines is not None:
                entry["lines"] = lines
            sealed.append(entry)
        return {
            "version": STORE_FORMAT_VERSION,
            "segment_records": self.segment_records,
            "sealed": sealed,
            "tail": list(self._tail),
        }

    def restore_payload(self, payload: dict) -> None:
        """Load a :meth:`snapshot` payload into this (empty, unsealed) store.

        Segments without inline lines are read from this store's own
        directory and verified there; their files are not rewritten.

        Raises:
            ValueError: malformed payload, unknown version, a bare
                ``result_to_payload`` corpus document, a segment on disk
                but no ``store_dir`` to read it from, or a sealed
                segment that fails its count/hash verification.
        """
        if self._sealed:
            raise SealedCorpusError("cannot restore into a sealed store")
        if not isinstance(payload, dict):
            raise ValueError(
                f"store payload must be an object, got {type(payload).__name__}"
            )
        if "sealed" not in payload and "users" in payload:
            raise ValueError(
                "store payload is a bare result_to_payload corpus document "
                "(the checkpoint v2 shape), not a v3 store snapshot"
            )
        if payload.get("version") != STORE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported store payload version {payload.get('version')!r}"
            )
        tail = payload.get("tail") or []
        if not isinstance(tail, list):
            raise ValueError(
                f"store payload tail must be a list of lines, "
                f"got {type(tail).__name__}"
            )
        self._reset()
        # Resuming adopts the snapshot's segment size: a chain of
        # kill→resume legs must seal at the same record boundaries as
        # the uninterrupted run, whatever the current CLI flag says.
        self.segment_records = int(payload.get("segment_records", self.segment_records))
        for entry in payload.get("sealed") or []:
            if not isinstance(entry, dict):
                raise ValueError("sealed segment entry must be an object")
            ref = SegmentRef.from_payload(entry)
            raw_lines = entry.get("lines")
            if raw_lines is None:
                if self.store_dir is None:
                    raise ValueError(
                        f"segment {ref.name} lives in a store directory; "
                        f"restore into a store with one (--store-dir)"
                    )
                lines = read_segment(self.store_dir, ref)
            else:
                lines = [str(line) for line in raw_lines]
                if len(lines) != ref.count:
                    raise ValueError(
                        f"inline segment {ref.name} holds {len(lines)} "
                        f"records, reference says {ref.count}"
                    )
                digest = hash_lines(lines)
                if digest != ref.sha256:
                    raise ValueError(
                        f"inline segment {ref.name} content hash mismatch"
                    )
            for line in lines:
                self._apply_line(line)
            arrays = self._take_columns(ref.name, ref.count)
            if self.store_dir is not None:
                if raw_lines is not None:
                    # An inline checkpoint resumed into a --store-dir run:
                    # this store's directory adopts the segment.  A segment
                    # read from that directory was just verified there.
                    write_segment(self.store_dir, ref.name, lines)
                sha, reused = adopt_columns(self.store_dir, ref.name, arrays)
                ref = replace(ref, columns_sha256=sha)
                self.column_counters["reused" if reused else "projected"] += 1
            else:
                self._inline_segments[ref.name] = lines
                self.column_counters["projected"] += 1
                if ref.columns_sha256 is not None:
                    # Inline stores carry no column files; the hash
                    # would dangle in re-snapshots.
                    ref = replace(ref, columns_sha256=None)
            self._refs.append(ref)
        if self.store_dir is not None and self._refs:
            write_manifest(self.store_dir, self.segment_records, self._refs)
        for raw in tail:
            line = str(raw)
            self._apply_line(line)
            self._append(line)

    def _reset(self) -> None:
        self.users.clear()
        self.urls.clear()
        self.comments.clear()
        self._refs = []
        self._inline_segments = {}
        self._tail = []
        self._columns = {}
        self._projector = ColumnProjector()
        self._memo_view = None

    def _apply_line(self, line: str) -> None:
        kind, record = decode_line(line)
        if isinstance(record, CrawledUser):
            self.users[record.username] = record
        elif isinstance(record, CrawledUrl):
            self.urls[record.commenturl_id] = record
        elif isinstance(record, CrawledComment):
            self.comments[record.comment_id] = record
        self._projector.observe(kind, record)

    # ------------------------------------------------------------------
    # Columnar read surface.
    # ------------------------------------------------------------------

    @property
    def projector(self) -> ColumnProjector:
        """The column projector (owns every intern table)."""
        return self._projector

    def column_chunks(self) -> list[dict]:
        """Every sealed segment's kept column arrays, plus the unsealed tail's."""
        chunks = [self._columns[ref.name] for ref in self._refs]
        chunks.append(self._projector.peek_tail())
        return chunks

    def column_view(self) -> ColumnView:
        """The columnar analysis surface of a sealed store.

        Raises:
            ValueError: the store is not sealed yet.
        """
        if not self._sealed:
            raise ValueError(
                "corpus store is not sealed; seal() it before the §4 "
                "analyses read its column view"
            )
        if self._memo_view is None:
            self._memo_view = ColumnView(self)
        else:
            self.column_counters["view_cache_hits"] += 1
        return self._memo_view

    def column_stats(self) -> dict:
        """Projection/cache counters for report extras and benchmarks."""
        return {
            "segments": len(self._refs),
            **self.column_counters,
        }
