"""Canonical JSONL codecs for store-persisted records.

One record per line, kind-tagged, compact separators, ASCII-escaped —
so a segment's bytes are a pure function of its records and the
bit-identity tests can compare segments (and their hashes) directly.

Every field of :class:`~repro.crawler.records.CrawledUser`,
:class:`~repro.crawler.records.CrawledUrl` and
:class:`~repro.crawler.records.CrawledComment` must appear in its
``encode_*``/``decode_*`` pair below; the CHK002 project checker in
:mod:`repro.analysis` enforces that at lint time, exactly as CHK001
does for the checkpoint serializers.

Each ``encode_*`` writes its line field by field rather than through
``JSONEncoder.encode`` on a dict, which builds a new C encoder per call;
so are a user's list of URL ids and its permission and view-filter
flags.  The bytes are the same (DESIGN.md §10).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser

__all__ = [
    "decode_comment",
    "decode_line",
    "decode_url",
    "decode_user",
    "encode_comment",
    "encode_record",
    "encode_url",
    "encode_user",
]

# Line tags: which decoder a stored line belongs to.
KIND_USER = "user"
KIND_URL = "url"
KIND_COMMENT = "comment"


# Built once: json.dumps with non-default options builds a new encoder
# per call.  The line encoders fall back to it for any value that is not
# a str, an int or None, and for nested lists and dicts of other shapes
# than a list of str or a dict of str to bool.
_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def _value(value: object) -> str:
    """``_dumps(value)``, with the common scalar types written directly."""
    if type(value) is str:
        return _escape(value)   # what the C encoder writes for a str
    if value is None:
        return "null"
    if type(value) is int:
        return int.__repr__(value)   # a bool is not an int here: "true"
    return _dumps(value)


def _str_list(values: Any) -> str:
    """``_dumps(list(values))``, with a list of exact ``str`` written directly."""
    if type(values) is list:
        for item in values:
            if type(item) is not str:
                break
        else:
            return "[" + ",".join(map(_escape, values)) + "]"
    return _dumps(list(values))


def _flag_dict(flags: Any) -> str:
    """``_dumps(dict(flags))``, with a dict of exact ``str`` to exact
    ``bool`` written directly (in the dict's order, as the encoder does)."""
    if type(flags) is dict:
        parts = []
        for key, value in flags.items():
            if type(key) is not str or type(value) is not bool:
                break
            parts.append(_escape(key) + (":true" if value else ":false"))
        else:
            return "{" + ",".join(parts) + "}"
    return _dumps(dict(flags))


def encode_user(user: CrawledUser) -> str:
    """One ``CrawledUser`` as a canonical JSONL line."""
    v = _value
    return "".join((
        '{"', "kind", '":', _escape(KIND_USER),
        ',"', "username", '":', v(user.username),
        ',"', "author_id", '":', v(user.author_id),
        ',"', "display_name", '":', v(user.display_name),
        ',"', "bio", '":', v(user.bio),
        ',"', "commented_url_ids", '":', _str_list(user.commented_url_ids),
        ',"', "language", '":', v(user.language),
        ',"', "permissions", '":', _flag_dict(user.permissions),
        ',"', "view_filters", '":', _flag_dict(user.view_filters),
        "}",
    ))


def decode_user(payload: dict) -> CrawledUser:
    """Rebuild a ``CrawledUser`` from a decoded line payload."""
    return CrawledUser(
        username=payload["username"],
        author_id=payload["author_id"],
        display_name=payload.get("display_name", ""),
        bio=payload.get("bio", ""),
        commented_url_ids=list(payload.get("commented_url_ids", [])),
        language=payload.get("language"),
        permissions=dict(payload.get("permissions", {})),
        view_filters=dict(payload.get("view_filters", {})),
    )


def encode_url(url: CrawledUrl) -> str:
    """One ``CrawledUrl`` as a canonical JSONL line."""
    v = _value
    return "".join((
        '{"', "kind", '":', _escape(KIND_URL),
        ',"', "commenturl_id", '":', v(url.commenturl_id),
        ',"', "url", '":', v(url.url),
        ',"', "title", '":', v(url.title),
        ',"', "description", '":', v(url.description),
        ',"', "upvotes", '":', v(url.upvotes),
        ',"', "downvotes", '":', v(url.downvotes),
        "}",
    ))


def decode_url(payload: dict) -> CrawledUrl:
    """Rebuild a ``CrawledUrl`` from a decoded line payload."""
    return CrawledUrl(
        commenturl_id=payload["commenturl_id"],
        url=payload["url"],
        title=payload.get("title", ""),
        description=payload.get("description", ""),
        upvotes=int(payload.get("upvotes", 0)),
        downvotes=int(payload.get("downvotes", 0)),
    )


def encode_comment(comment: CrawledComment) -> str:
    """One ``CrawledComment`` as a canonical JSONL line."""
    v = _value
    return "".join((
        '{"', "kind", '":', _escape(KIND_COMMENT),
        ',"', "comment_id", '":', v(comment.comment_id),
        ',"', "author_id", '":', v(comment.author_id),
        ',"', "commenturl_id", '":', v(comment.commenturl_id),
        ',"', "text", '":', v(comment.text),
        ',"', "parent_comment_id", '":', v(comment.parent_comment_id),
        ',"', "created_at_epoch", '":', v(comment.created_at_epoch),
        ',"', "shadow_label", '":', v(comment.shadow_label),
        "}",
    ))


def decode_comment(payload: dict) -> CrawledComment:
    """Rebuild a ``CrawledComment`` from a decoded line payload."""
    return CrawledComment(
        comment_id=payload["comment_id"],
        author_id=payload["author_id"],
        commenturl_id=payload["commenturl_id"],
        text=payload["text"],
        parent_comment_id=payload.get("parent_comment_id"),
        created_at_epoch=int(payload.get("created_at_epoch", 0)),
        shadow_label=payload.get("shadow_label"),
    )


_DECODERS = {
    KIND_USER: decode_user,
    KIND_URL: decode_url,
    KIND_COMMENT: decode_comment,
}


def encode_record(record: object) -> str:
    """Encode any store-persisted record by type.

    Raises:
        TypeError: the record type has no registered codec.
    """
    if isinstance(record, CrawledUser):
        return encode_user(record)
    if isinstance(record, CrawledUrl):
        return encode_url(record)
    if isinstance(record, CrawledComment):
        return encode_comment(record)
    raise TypeError(
        f"no store codec for record type {type(record).__name__}"
    )


def decode_line(line: str) -> tuple[str, object]:
    """Decode one stored line into ``(kind, record)``.

    Raises:
        ValueError: the line is not valid JSON, not an object, carries an
            unknown kind tag, or is missing required fields.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"store line is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"store line must be an object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise ValueError(f"unknown store record kind {kind!r}")
    try:
        return kind, decoder(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed store line: {exc!r}") from exc
