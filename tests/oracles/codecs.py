"""Store line encoders built on ``JSONEncoder.encode`` of a dict.

The reference for :mod:`repro.store.codecs`, whose ``encode_*`` write
each line field by field: for any record the bytes must be equal.
"""

from __future__ import annotations

import json

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser

__all__ = ["encode_comment", "encode_url", "encode_user"]

_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def encode_user(user: CrawledUser) -> str:
    return _dumps({
        "kind": "user",
        "username": user.username,
        "author_id": user.author_id,
        "display_name": user.display_name,
        "bio": user.bio,
        "commented_url_ids": list(user.commented_url_ids),
        "language": user.language,
        "permissions": dict(user.permissions),
        "view_filters": dict(user.view_filters),
    })


def encode_url(url: CrawledUrl) -> str:
    return _dumps({
        "kind": "url",
        "commenturl_id": url.commenturl_id,
        "url": url.url,
        "title": url.title,
        "description": url.description,
        "upvotes": url.upvotes,
        "downvotes": url.downvotes,
    })


def encode_comment(comment: CrawledComment) -> str:
    return _dumps({
        "kind": "comment",
        "comment_id": comment.comment_id,
        "author_id": comment.author_id,
        "commenturl_id": comment.commenturl_id,
        "text": comment.text,
        "parent_comment_id": comment.parent_comment_id,
        "created_at_epoch": comment.created_at_epoch,
        "shadow_label": comment.shadow_label,
    })
