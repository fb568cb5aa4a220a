"""Crawl checkpointing.

The paper's crawl ran for weeks against a live service; resumability was
survival.  Two documents live here:

* the **corpus dump** — a finished corpus serialised to a single JSON
  document (:func:`dumps_result` / :func:`loads_result`, version 1).
  This is the corpus interchange format; loading one fills an unsealed
  :class:`~repro.store.CorpusStore`.
* the **state set** of a checkpointed crawl.  Its state file is the
  pipeline's v5 envelope (:meth:`~repro.core.pipeline.
  ReproductionPipeline.stage_crawl`): the active stage, references to
  completed stages' artifacts, the shared client's cookies, and the
  active crawler's own fields — sub-stage, cursor and, per crawler, a
  partial corpus, frontier and stats.  :func:`active_cursor`,
  :func:`cursor_count` and :func:`cursor_strings` validate those
  fields when a crawler resumes.

A state file does not carry everything itself.  Values that stop
changing — a completed stage's artifact, the shadow crawler's baseline
id set — are written once to a **sidecar**, and lists that only grow
are appended to a **journal**; the state file holds a small reference
to each.  Every file of a state set is named after the state file and
ends in ``.state.json``:

* sidecar ``<state>.<key>-<sha256>.state.json`` holds
  ``encode_json(value)``; its reference is ``{"sha256", "bytes"}`` of
  the whole file (:func:`read_sidecar` verifies both);
* journal ``<state>.<key>.journal.state.json`` holds one record per
  line — the byte length of the record's JSON text, a space, the text
  and a newline; its reference is ``{"sha256", "bytes"}`` of the prefix
  the state file vouches for, plus the ``records`` and ``generation``
  of the list it holds (:func:`read_journal`).  Bytes past that prefix
  are an append whose state file never landed; resuming truncates them.

:class:`~repro.crawler.runtime.Checkpointer` owns the I/O on these
files; this module owns their names, framing and verification.

The ``store`` payload stays an opaque dict at this layer;
:meth:`repro.store.CorpusStore.restore_payload` reads it, which keeps
this module free of a module-level ``repro.store`` import.  The
resumable runtime in :mod:`repro.crawler.runtime` drives the cadence.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import TYPE_CHECKING

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser

if TYPE_CHECKING:   # the store's segment writer imports this module
    from repro.store.corpus import CorpusStore

__all__ = [
    "STATE_SUFFIX",
    "active_cursor",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "cursor_count",
    "cursor_strings",
    "dump_result",
    "dumps_result",
    "encode_json",
    "file_ref",
    "is_count",
    "journal_path",
    "journal_record",
    "load_result",
    "loads_result",
    "read_journal",
    "read_sidecar",
    "result_from_payload",
    "result_to_payload",
    "sidecar_path",
]

_FORMAT_VERSION = 1


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


def atomic_write_bytes(path: str | Path, data: bytes) -> int:
    """Write ``data`` to ``path`` atomically (tmp file + ``os.replace``).

    A reader (or a resumed crawl) never observes a torn file: it sees
    either the previous complete checkpoint or the new one.  Returns the
    number of bytes written.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return len(data)


def atomic_write_text(path: str | Path, text: str) -> int:
    """:func:`atomic_write_bytes` of ``text`` in UTF-8."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, payload: object) -> int:
    """Serialise ``payload`` with :func:`encode_json` and write it atomically."""
    return atomic_write_text(path, encode_json(payload))


def encode_json(payload: object) -> str:
    """The JSON text of every checkpoint file: ``json.dumps(payload)``."""
    return json.dumps(payload)


# ----------------------------------------------------------------------
# State-set files: write-once sidecars and append-only journals.
# ----------------------------------------------------------------------

#: Every file of a state set ends in this suffix, so cleanup, users and
#: tree digests can tell checkpoint state from crawl output.
STATE_SUFFIX = ".state.json"

_KEY = re.compile(r"[a-z0-9_-]+(\.[a-z0-9_-]+)*")
_SHA256 = re.compile(r"[0-9a-f]{64}")


def _check_key(key: str) -> str:
    if not isinstance(key, str) or not _KEY.fullmatch(key):
        raise ValueError(f"invalid checkpoint file key {key!r}")
    return key


def file_ref(data: bytes) -> dict:
    """The ``{"sha256", "bytes"}`` reference a state file records for ``data``."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def is_count(value: object) -> bool:
    """Whether ``value`` is a non-negative ``int`` (not a ``bool``)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_ref(ref: object, what: str, counts: tuple[str, ...] = ()) -> dict:
    """Validate a recorded ``{"sha256", "bytes", *counts}`` reference; returns a copy."""
    if (
        not isinstance(ref, dict)
        or not isinstance(ref.get("sha256"), str)
        or not _SHA256.fullmatch(ref["sha256"])
        or not all(is_count(ref.get(name)) for name in ("bytes", *counts))
    ):
        raise ValueError(f"malformed {what} reference {ref!r}")
    return {name: ref[name] for name in ("sha256", "bytes", *counts)}


def sidecar_path(state_path: str | Path, key: str, sha256: str) -> Path:
    """Where the sidecar of ``key`` with content hash ``sha256`` lives."""
    state_path = Path(state_path)
    return state_path.with_name(
        f"{state_path.name}.{_check_key(key)}-{sha256}{STATE_SUFFIX}"
    )


def journal_path(state_path: str | Path, key: str) -> Path:
    """Where the journal of ``key`` lives."""
    state_path = Path(state_path)
    return state_path.with_name(
        f"{state_path.name}.{_check_key(key)}.journal{STATE_SUFFIX}"
    )


def read_sidecar(
    state_path: str | Path, key: str, ref: object
) -> tuple[Path, dict, object]:
    """Read and verify the sidecar ``ref`` names; returns (path, ref, value).

    Raises:
        ValueError: a malformed reference, or a sidecar that is missing,
            of the wrong size, or fails its sha256 check — the message
            names the file.
    """
    checked = _check_ref(ref, f"sidecar {key!r}")
    digest, size = checked["sha256"], checked["bytes"]
    path = sidecar_path(state_path, key, digest)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ValueError(f"checkpoint sidecar {path} is missing") from None
    if len(data) != size:
        raise ValueError(
            f"checkpoint sidecar {path} has {len(data)} bytes, "
            f"its state file recorded {size}"
        )
    if hashlib.sha256(data).hexdigest() != digest:
        raise ValueError(f"checkpoint sidecar {path} fails its sha256 check")
    try:
        return path, checked, json.loads(data)
    except ValueError as exc:
        raise ValueError(f"checkpoint sidecar {path} is not JSON: {exc}") from None


def journal_record(value: object) -> bytes:
    """One journal record: length of the JSON text, a space, the text, a newline."""
    text = encode_json(value).encode("utf-8")
    return b"%d %s\n" % (len(text), text)


def read_journal(
    state_path: str | Path, key: str, ref: object
) -> tuple[Path, dict, bytes, list]:
    """Read and verify the journal prefix ``ref`` vouches for.

    A journal reference is ``{"sha256", "bytes", "records",
    "generation"}``: the hash and length of the prefix, and how many of
    the prefix's last records make up the journaled list (see
    :meth:`~repro.crawler.runtime.Checkpointer.journal`).  Returns
    (path, ref, prefix bytes, those records decoded).  Bytes past the prefix
    are ignored here; the caller truncates them before appending.

    Raises:
        ValueError: a malformed reference, or a journal that is missing,
            shorter than its recorded prefix, whose prefix fails its
            sha256 check, or whose prefix is not whole records — the
            message names the file.
    """
    checked = _check_ref(ref, f"journal {key!r}", ("records", "generation"))
    digest, size = checked["sha256"], checked["bytes"]
    path = journal_path(state_path, key)
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(size)
    except FileNotFoundError:
        raise ValueError(f"checkpoint journal {path} is missing") from None
    if len(prefix) != size:
        raise ValueError(
            f"checkpoint journal {path} has {len(prefix)} bytes, "
            f"shorter than the {size}-byte prefix its state file recorded"
        )
    if hashlib.sha256(prefix).hexdigest() != digest:
        raise ValueError(
            f"checkpoint journal {path} fails the sha256 check of its "
            f"{size}-byte prefix"
        )
    spans = []
    at = 0
    try:
        while at < size:
            space = prefix.index(b" ", at)
            if not prefix[at:space].isdigit():
                raise ValueError("record length is not a decimal number")
            start = space + 1
            end = start + int(prefix[at:space])
            if prefix[end:end + 1] != b"\n":
                raise ValueError("record not newline-terminated")
            spans.append((start, end))
            at = end + 1
        if checked["records"] > len(spans):
            raise ValueError(
                f"{checked['records']} records recorded, {len(spans)} present"
            )
        records = [
            json.loads(prefix[start:end])
            for start, end in spans[len(spans) - checked["records"]:]
        ]
    except ValueError as exc:
        raise ValueError(
            f"checkpoint journal {path} is malformed at byte {at}: {exc}"
        ) from None
    return path, checked, prefix, records


# ----------------------------------------------------------------------
# The active crawler's fields.
# ----------------------------------------------------------------------


def active_cursor(active: object, stages: tuple[str, ...]) -> tuple[str, dict]:
    """The (sub-stage, cursor) of an active crawler's checkpoint fields.

    ``active`` is what a crawler's provider returned: its ``stage``, one
    of ``stages``, its ``cursor`` and, per crawler, ``store``,
    ``frontier`` and ``stats``.

    Raises:
        ValueError: ``active`` is not an object, its stage is not one of
            ``stages``, or its cursor is not an object.
    """
    if not isinstance(active, dict):
        raise ValueError(
            f"active crawler checkpoint must be an object, "
            f"got {type(active).__name__}"
        )
    stage = active.get("stage")
    if stage not in stages:
        raise ValueError(
            f"cannot resume from crawler stage {stage!r} "
            f"(expected one of {list(stages)})"
        )
    cursor = active.get("cursor", {})
    if not isinstance(cursor, dict):
        raise ValueError(
            f"{stage} checkpoint cursor must be an object, "
            f"got {type(cursor).__name__}"
        )
    return stage, cursor


def cursor_count(cursor: dict, key: str) -> int:
    """``cursor[key]`` (0 when absent), checked to be a count.

    Raises:
        ValueError: it is not a non-negative integer.
    """
    value = cursor.get(key, 0)
    if not is_count(value):
        raise ValueError(
            f"checkpoint cursor {key!r} must be a non-negative integer, "
            f"got {value!r}"
        )
    return int(value)


def cursor_strings(cursor: dict, key: str) -> list[str]:
    """``cursor[key]`` (empty when absent), checked to be a list of strings.

    Raises:
        ValueError: it is anything else.
    """
    value = cursor.get(key, [])
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"checkpoint cursor {key!r} must be a list of strings")
    return list(value)
