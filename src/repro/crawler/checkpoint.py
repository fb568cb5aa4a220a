"""Crawl checkpointing.

The paper's crawl ran for weeks against a live service; resumability was
survival.  Two formats live here:

* **v1** — a finished corpus serialised to a single JSON document
  (:func:`dumps_result` / :func:`loads_result`).  This is the corpus
  interchange format; loading one fills an unsealed
  :class:`~repro.store.CorpusStore`.
* **v3** — a :class:`CrawlCheckpoint` whose partial corpus travels as a
  :meth:`~repro.store.CorpusStore.snapshot` payload: sealed-segment
  references (name + count + sha256, the bytes on disk under
  ``--store-dir``) plus only the unsealed tail — so a checkpoint tick
  costs O(progress since the last tick), not O(corpus).  It is the only
  runtime format read: a v2 document (whose corpus was a full
  ``result_to_payload`` body) is rejected with a ``ValueError`` naming
  its version.

The ``store`` payload stays an opaque dict at this layer;
:meth:`repro.store.CorpusStore.restore_payload` reads it, which keeps
this module free of a module-level ``repro.store`` import.  The
resumable runtime in :mod:`repro.crawler.runtime` drives the cadence.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser

if TYPE_CHECKING:   # the store's segment writer imports this module
    from repro.store.corpus import CorpusStore

__all__ = [
    "CrawlCheckpoint",
    "SHARD_ENVELOPE_VERSION",
    "atomic_write_json",
    "atomic_write_text",
    "coerce_checkpoint",
    "coerce_shard_envelope",
    "dump_checkpoint",
    "dump_result",
    "dumps_result",
    "is_shard_envelope",
    "load_checkpoint",
    "load_result",
    "loads_result",
    "result_from_payload",
    "result_to_payload",
]

_FORMAT_VERSION = 1
_RUNTIME_FORMAT_VERSION = 3

#: Checkpoint format v4: the *sharded* crawl's parent envelope.  It is a
#: coordinator-level document — per-worker state still travels as the
#: v3 :class:`CrawlCheckpoint` payloads this module already defines,
#: wrapped one level down in each worker's own state file — so v4 does
#: not supersede v3; it composes it with the frontier partition spec and
#: the merged store snapshot at the last completed phase boundary.
SHARD_ENVELOPE_VERSION = 4


def result_to_payload(result: CorpusStore) -> dict:
    """Serialise a corpus to a JSON-ready dict (no version field)."""
    return {
        "users": [
            {
                "username": u.username,
                "author_id": u.author_id,
                "display_name": u.display_name,
                "bio": u.bio,
                "commented_url_ids": u.commented_url_ids,
                "language": u.language,
                "permissions": u.permissions,
                "view_filters": u.view_filters,
            }
            for u in result.users.values()
        ],
        "urls": [
            {
                "commenturl_id": u.commenturl_id,
                "url": u.url,
                "title": u.title,
                "description": u.description,
                "upvotes": u.upvotes,
                "downvotes": u.downvotes,
            }
            for u in result.urls.values()
        ],
        "comments": [
            {
                "comment_id": c.comment_id,
                "author_id": c.author_id,
                "commenturl_id": c.commenturl_id,
                "text": c.text,
                "parent_comment_id": c.parent_comment_id,
                "created_at_epoch": c.created_at_epoch,
                "shadow_label": c.shadow_label,
            }
            for c in result.comments.values()
        ],
    }


def result_from_payload(payload: dict) -> CorpusStore:
    """Rebuild a corpus from :func:`result_to_payload` output.

    Records are replayed through the ``add_*`` write path into a fresh,
    unsealed :class:`~repro.store.CorpusStore`; seal it before running
    the §4 analyses.

    Raises:
        ValueError: the payload is not a dict or is missing/mistyping
            required fields.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"checkpoint payload must be an object, got {type(payload).__name__}"
        )
    from repro.store.corpus import CorpusStore

    result = CorpusStore()
    try:
        for entry in payload["users"]:
            user = CrawledUser(
                username=entry["username"],
                author_id=entry["author_id"],
                display_name=entry.get("display_name", ""),
                bio=entry.get("bio", ""),
                commented_url_ids=list(entry.get("commented_url_ids", [])),
                language=entry.get("language"),
                permissions=dict(entry.get("permissions", {})),
                view_filters=dict(entry.get("view_filters", {})),
            )
            result.add_user(user)
        for entry in payload["urls"]:
            url = CrawledUrl(
                commenturl_id=entry["commenturl_id"],
                url=entry["url"],
                title=entry.get("title", ""),
                description=entry.get("description", ""),
                upvotes=int(entry.get("upvotes", 0)),
                downvotes=int(entry.get("downvotes", 0)),
            )
            result.add_url(url)
        for entry in payload["comments"]:
            comment = CrawledComment(
                comment_id=entry["comment_id"],
                author_id=entry["author_id"],
                commenturl_id=entry["commenturl_id"],
                text=entry["text"],
                parent_comment_id=entry.get("parent_comment_id"),
                created_at_epoch=int(entry.get("created_at_epoch", 0)),
                shadow_label=entry.get("shadow_label"),
            )
            result.add_comment(comment)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed checkpoint document: {exc!r}") from exc
    return result


def dumps_result(result: CorpusStore) -> str:
    """Serialise a corpus to a JSON string."""
    payload = {"version": _FORMAT_VERSION, **result_to_payload(result)}
    return json.dumps(payload)


def loads_result(serialized: str) -> CorpusStore:
    """Load a corpus (an unsealed store) from a JSON string.

    Raises:
        ValueError: unknown format version or malformed document (missing
            keys and mistyped payloads are wrapped, never leaked as bare
            ``KeyError``/``TypeError``).
    """
    try:
        payload = json.loads(serialized)
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"checkpoint must be a JSON object, got {type(payload).__name__}"
        )
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {payload.get('version')!r}"
        )
    return result_from_payload(payload)


def dump_result(result: CorpusStore, path: str | Path) -> None:
    """Write a checkpoint file (atomically)."""
    atomic_write_text(path, dumps_result(result))


def load_result(path: str | Path) -> CorpusStore:
    """Read a checkpoint file into an unsealed store."""
    return loads_result(Path(path).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Atomic writes.
# ----------------------------------------------------------------------


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    A reader (or a resumed crawl) never observes a torn file: it sees
    either the previous complete checkpoint or the new one.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def atomic_write_json(path: str | Path, payload: dict) -> None:
    """Serialise ``payload`` and write it atomically."""
    atomic_write_text(path, json.dumps(payload))


# ----------------------------------------------------------------------
# Checkpoint format v3: in-progress crawler state.
# ----------------------------------------------------------------------


@dataclass
class CrawlCheckpoint:
    """One crawler's resumable state at a point in time.

    Attributes:
        crawler: which crawler wrote this ("dissenter", "gab_enum",
            "shadow", "youtube", "social").
        stage: the crawler-specific stage that was active.
        cursor: crawler-specific progress (indices, partial collections)
            — everything in it must be JSON-serialisable.
        store: the partial corpus, when the crawler builds one, as a
            :meth:`repro.store.CorpusStore.snapshot` payload.  Kept as
            an opaque dict here;
            :meth:`repro.store.CorpusStore.restore_payload` reads it.
        frontier: a :meth:`CrawlFrontier.to_state` snapshot, when the
            active stage drains a frontier.
        stats: serialised per-stage progress counters.
        cookies: a :meth:`CookieJar.to_state` snapshot of the client's
            jar (authenticated shadow sessions live here).
    """

    crawler: str
    stage: str
    cursor: dict = field(default_factory=dict)
    store: dict | None = None
    frontier: dict | None = None
    stats: dict | None = None
    cookies: list | None = None

    def to_payload(self) -> dict:
        return {
            "version": _RUNTIME_FORMAT_VERSION,
            "crawler": self.crawler,
            "stage": self.stage,
            "cursor": self.cursor,
            "store": self.store,
            "frontier": self.frontier,
            "stats": self.stats,
            "cookies": self.cookies,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CrawlCheckpoint":
        """Parse a v3 payload.

        Raises:
            ValueError: wrong version (a v2 document included) or
                malformed document.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"runtime checkpoint must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("version")
        if version != _RUNTIME_FORMAT_VERSION:
            raise ValueError(
                f"unsupported runtime checkpoint version {version!r} "
                f"(only v{_RUNTIME_FORMAT_VERSION} is read)"
            )
        raw_store = payload.get("store")
        if raw_store is not None and not isinstance(raw_store, dict):
            raise ValueError(
                f"malformed runtime checkpoint: corpus payload must be "
                f"an object, got {type(raw_store).__name__}"
            )
        try:
            return cls(
                crawler=payload["crawler"],
                stage=payload["stage"],
                cursor=dict(payload.get("cursor") or {}),
                store=raw_store,
                frontier=payload.get("frontier"),
                stats=payload.get("stats"),
                cookies=payload.get("cookies"),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed runtime checkpoint: {exc!r}") from exc


def coerce_checkpoint(resume: "CrawlCheckpoint | dict", crawler: str) -> "CrawlCheckpoint":
    """Accept either a parsed checkpoint or its payload; validate ownership.

    Raises:
        ValueError: the checkpoint belongs to a different crawler or is
            malformed.
    """
    checkpoint = (
        resume
        if isinstance(resume, CrawlCheckpoint)
        else CrawlCheckpoint.from_payload(resume)
    )
    if checkpoint.crawler != crawler:
        raise ValueError(
            f"checkpoint belongs to crawler {checkpoint.crawler!r}, "
            f"cannot resume {crawler!r}"
        )
    return checkpoint


def is_shard_envelope(payload: dict) -> bool:
    """Whether a state-file payload is a sharded (v4) parent envelope.

    The CLI dispatches on this: ``--resume`` over a v4 envelope goes to
    the sharded engine, anything else to the single-process pipeline.
    """
    return (
        isinstance(payload, dict)
        and payload.get("kind") == "sharded"
        and payload.get("version") == SHARD_ENVELOPE_VERSION
    )


def coerce_shard_envelope(payload: dict, shards: int) -> dict:
    """Validate a v4 sharded envelope against the requested worker count.

    Raises:
        ValueError: not a v4 envelope, or it was written by a run with a
            different ``--shards`` value (the frontier partition is a
            function of the worker count, so resuming under a different
            count would re-partition mid-crawl and corrupt the merge
            order).
    """
    if not isinstance(payload, dict) or payload.get("kind") != "sharded":
        raise ValueError("not a sharded checkpoint envelope")
    if payload.get("version") != SHARD_ENVELOPE_VERSION:
        raise ValueError(
            f"unsupported sharded envelope version {payload.get('version')!r}"
        )
    saved = int(payload.get("shards", 0))
    if saved != shards:
        raise ValueError(
            f"envelope was written by a --shards {saved} run; "
            f"cannot resume it with --shards {shards}"
        )
    return payload


def dump_checkpoint(checkpoint: CrawlCheckpoint, path: str | Path) -> None:
    """Write a runtime (v3) checkpoint file atomically."""
    atomic_write_json(path, checkpoint.to_payload())


def load_checkpoint(path: str | Path) -> CrawlCheckpoint:
    """Read a runtime (v3) checkpoint file.

    Raises:
        ValueError: malformed or wrong-version file.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint is not valid JSON: {exc}") from exc
    return CrawlCheckpoint.from_payload(payload)
