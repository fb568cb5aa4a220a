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
  segment also spills typed numpy column arrays
  (``<name>.columns.npz``, sha256-manifested) and the sealed store
  exposes the :meth:`column_view` that the vectorized §4 analyses
  consume.  Column files are derived data, re-projected from the
  verified JSONL when missing or corrupt.  Only the sharded crawl's
  per-shard worker stores are built with ``columns=False``: the merge
  replay projects the final store once.

The store deliberately does *not* import :mod:`repro.crawler.checkpoint`
payload helpers: checkpoint v3 carries the snapshot as a plain dict, and
:meth:`restore_payload` reads only that v3 shape.
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
from repro.store.columns import (
    ColumnProjector,
    ColumnView,
    adopt_columns,
    heal_columns,
    load_columns,
)
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
    "iter_snapshot_lines",
]

#: Version tag of the store snapshot payload (checkpoint format v3).
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
        columns: project sealed segments into columnar ``.npz`` arrays.
            ``False`` is for the sharded crawl's per-shard worker
            stores only; such a store has no :meth:`column_view`.
    """

    def __init__(
        self,
        store_dir: str | Path | None = None,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        columns: bool = True,
    ) -> None:
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.users: dict[str, CrawledUser] = {}
        self.urls: dict[str, CrawledUrl] = {}
        self.comments: dict[str, CrawledComment] = {}
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.segment_records = int(segment_records)
        self.columns = bool(columns)
        self._projector = ColumnProjector() if self.columns else None
        self._inline_columns: dict[str, dict] = {}
        #: columnar projection diagnostics (surfaced on report extras)
        self.column_counters = {
            "projected": 0,          # segments projected at seal
            "reused": 0,             # identical file already on disk
            "loads": 0,              # verified .npz loads into a view
            "fallbacks": 0,          # missing/corrupt file re-projected
            "hash_mismatches": 0,    # re-projection disagreed with manifest
            "view_cache_hits": 0,    # memoised view/chunks served again
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
        self._memo_chunks: list[dict] | None = None
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
        if self._projector is not None:
            self._projector.observe_user(user)
        self._append(encode_user(user))

    def add_url(self, url: CrawledUrl) -> None:
        """Record (or upsert) one URL; appends a log line."""
        self._guard()
        self.urls[url.commenturl_id] = url
        if self._projector is not None:
            self._projector.observe_url(url)
        self._append(encode_url(url))

    def add_comment(self, comment: CrawledComment) -> None:
        """Record (or upsert) one comment; appends a log line."""
        self._guard()
        self.comments[comment.comment_id] = comment
        if self._projector is not None:
            self._projector.observe_comment(comment)
        self._append(encode_comment(comment))

    def touch_user(self, user: CrawledUser) -> None:
        """Re-append a user whose fields were mutated in place.

        The stage-4 metadata crawl fills ``language``/``permissions``/
        ``view_filters`` on already-recorded users; the revision line
        makes the log self-contained so replay reproduces the mutation.
        """
        self.add_user(user)

    def replay_line(self, line: str) -> None:
        """Append one already-encoded log line, upserting its record.

        The sharded crawl engine's deterministic merge streams worker
        log lines (in global record order) into the final store through
        this: the original bytes pass through untouched, so the merged
        segments hash identically to an unsharded run's, and the dict
        upsert keeps first-insertion positions exactly as ``add_*``
        would have.
        """
        self._guard()
        self._apply_line(line)
        self._append(line)

    def _seal_segment(self) -> None:
        lines, self._tail = self._tail, []
        name = segment_name(len(self._refs) + 1)
        arrays = None
        if self._projector is not None:
            arrays = self._projector.take_segment(len(lines))
        if self.store_dir is not None:
            ref = write_segment(self.store_dir, name, lines)
            if arrays is not None:
                sha, reused = adopt_columns(self.store_dir, name, arrays)
                ref = replace(ref, columns_sha256=sha)
                self.column_counters["reused" if reused else "projected"] += 1
        else:
            ref = SegmentRef(name=name, count=len(lines), sha256=hash_lines(lines))
            self._inline_segments[name] = lines
            if arrays is not None:
                self._inline_columns[name] = arrays
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
    def log_records(self) -> int:
        """Total log lines written (sealed + unsealed tail)."""
        return sum(ref.count for ref in self._refs) + len(self._tail)

    @property
    def tail_records(self) -> int:
        """Unsealed lines currently buffered (the per-tick checkpoint cost)."""
        return len(self._tail)

    # ------------------------------------------------------------------
    # Streaming read views.
    # ------------------------------------------------------------------

    def iter_users(self) -> Iterator[CrawledUser]:
        return iter(self.users.values())

    def iter_urls(self) -> Iterator[CrawledUrl]:
        return iter(self.urls.values())

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
    # Checkpoint snapshot / restore (format v3).
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The store's checkpoint-v3 payload.

        Sealed segments appear as references only when they live on
        disk; inline segments carry their lines (the data must live
        somewhere).  The unsealed tail always rides along, so the
        per-tick serialization cost with a ``store_dir`` is bounded by
        ``segment_records``, not corpus size.
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
            "dir": str(self.store_dir) if self.store_dir is not None else None,
            "sealed": sealed,
            "tail": list(self._tail),
        }

    def restore_payload(self, payload: dict) -> None:
        """Load a v3 :meth:`snapshot` payload into this (empty, unsealed) store.

        Raises:
            ValueError: malformed payload, unknown version, a bare
                ``result_to_payload`` corpus document, or a sealed
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
        self._reset()
        # Resuming adopts the snapshot's segment size: a chain of
        # kill→resume legs must seal at the same record boundaries as
        # the uninterrupted run, whatever the current CLI flag says.
        self.segment_records = int(payload.get("segment_records", self.segment_records))
        payload_dir = payload.get("dir")
        for entry in payload.get("sealed") or []:
            if not isinstance(entry, dict):
                raise ValueError("sealed segment entry must be an object")
            ref = SegmentRef.from_payload(entry)
            raw_lines = entry.get("lines")
            if raw_lines is None:
                base = self.store_dir if self.store_dir is not None else payload_dir
                if base is None:
                    raise ValueError(
                        f"segment {ref.name} has no inline lines and the "
                        f"payload names no store directory"
                    )
                lines = read_segment(Path(base), ref)
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
            arrays = None
            if self._projector is not None:
                arrays = self._projector.take_segment(ref.count)
            if self.store_dir is not None:
                # Adopted by this store's directory (covers resuming an
                # inline checkpoint into a --store-dir run).
                write_segment(self.store_dir, ref.name, lines)
                if arrays is not None:
                    sha, reused = adopt_columns(self.store_dir, ref.name, arrays)
                    ref = replace(ref, columns_sha256=sha)
                    self.column_counters[
                        "reused" if reused else "projected"
                    ] += 1
            else:
                self._inline_segments[ref.name] = lines
                if arrays is not None:
                    self._inline_columns[ref.name] = arrays
                    self.column_counters["projected"] += 1
                if ref.columns_sha256 is not None:
                    # Inline stores carry no column files; the hash
                    # would dangle in re-snapshots.
                    ref = replace(ref, columns_sha256=None)
            self._refs.append(ref)
        if self.store_dir is not None and self._refs:
            write_manifest(self.store_dir, self.segment_records, self._refs)
        for raw in payload.get("tail") or []:
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
        self._inline_columns = {}
        self._projector = ColumnProjector() if self.columns else None
        self._memo_chunks = None
        self._memo_view = None

    def _apply_line(self, line: str) -> None:
        kind, record = decode_line(line)
        if isinstance(record, CrawledUser):
            self.users[record.username] = record
        elif isinstance(record, CrawledUrl):
            self.urls[record.commenturl_id] = record
        elif isinstance(record, CrawledComment):
            self.comments[record.comment_id] = record
        if self._projector is not None:
            self._projector.observe(kind, record)

    # ------------------------------------------------------------------
    # Columnar read surface.
    # ------------------------------------------------------------------

    @property
    def projector(self) -> ColumnProjector | None:
        """The column projector (None when built with ``columns=False``)."""
        return self._projector

    def column_chunks(self) -> list[dict]:
        """Per-segment column arrays plus the unsealed tail.

        Spilled segments are hash-verified and memory-mapped; a missing
        or corrupt column file falls back to re-projection from the
        (itself hash-verified) segment JSONL, healing the file on disk
        when the recomputed bytes match the manifest.  Memoised once the
        store is sealed.
        """
        projector = self._projector
        if projector is None:
            raise RuntimeError("store was built with columns=False")
        if self._memo_chunks is not None:
            self.column_counters["view_cache_hits"] += 1
            return self._memo_chunks
        chunks: list[dict] = []
        for index, ref in enumerate(self._refs):
            arrays = self._inline_columns.get(ref.name)
            if arrays is None and self.store_dir is not None:
                arrays = load_columns(self.store_dir, ref)
                if arrays is not None:
                    self.column_counters["loads"] += 1
            if arrays is None:
                lines = self._inline_segments.get(ref.name)
                if lines is None:
                    if self.store_dir is None:
                        raise RuntimeError(
                            f"segment {ref.name} has neither inline lines "
                            f"nor a store directory to read from"
                        )
                    lines = read_segment(self.store_dir, ref)
                arrays = projector.project_lines(lines, index)
                self.column_counters["fallbacks"] += 1
                if self.store_dir is not None and ref.columns_sha256 is not None:
                    healed = heal_columns(
                        self.store_dir, ref.name, arrays, ref.columns_sha256
                    )
                    if not healed:
                        self.column_counters["hash_mismatches"] += 1
            chunks.append(arrays)
        chunks.append(projector.peek_tail())
        if self._sealed:
            self._memo_chunks = chunks
        return chunks

    def column_view(self) -> ColumnView:
        """The columnar analysis surface of a sealed store.

        Raises:
            ValueError: the store is not sealed yet, or was built with
                ``columns=False``.
        """
        if self._projector is None:
            raise ValueError(
                "corpus store was built with columns=False and has no "
                "column view"
            )
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
            "enabled": self._projector is not None,
            "segments": len(self._refs),
            **self.column_counters,
        }


def iter_snapshot_lines(payload: dict) -> Iterator[str]:
    """Stream every log line of a :meth:`CorpusStore.snapshot` payload.

    Sealed segments yield first (in seal order), then the unsealed
    tail — i.e. exact log order.  Inline segments are hash-verified;
    spilled segments are read (and verified) from the payload's ``dir``.
    The sharded merge uses this to consume worker snapshots without
    instantiating a store per shard.

    Raises:
        ValueError: malformed payload, count/hash mismatch, or a
            spilled segment with no directory to read from.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"store payload must be an object, got {type(payload).__name__}"
        )
    if payload.get("version") != STORE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported store payload version {payload.get('version')!r}"
        )
    base = payload.get("dir")
    for entry in payload.get("sealed") or []:
        if not isinstance(entry, dict):
            raise ValueError("sealed segment entry must be an object")
        ref = SegmentRef.from_payload(entry)
        raw_lines = entry.get("lines")
        if raw_lines is None:
            if base is None:
                raise ValueError(
                    f"segment {ref.name} has no inline lines and the "
                    f"payload names no store directory"
                )
            lines = read_segment(Path(base), ref)
        else:
            lines = [str(line) for line in raw_lines]
            if len(lines) != ref.count or hash_lines(lines) != ref.sha256:
                raise ValueError(
                    f"inline segment {ref.name} failed verification"
                )
        yield from lines
    for raw in payload.get("tail") or []:
        yield str(raw)

