"""Record-dict reference implementations of serve payloads.

``ServeApp`` slices the sealed store's score column through the memoised
URL/author group indexes; the summary functions here score each
comment's text through the score store instead, walking the record-dict
indexes — the path the column slices replaced.  :func:`thread_payload`
builds a thread page as a dict.  Each returns the JSON payload the
matching endpoint serves.
"""

from __future__ import annotations

from repro.core.scoring import ScoreStore
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.serve.api import DEFAULT_ATTRIBUTE, _score_summary
from repro.store import CorpusStore

__all__ = ["summary_url_payload", "summary_user_payload", "thread_payload"]


def summary_url_payload(
    corpus: CorpusStore,
    score_store: ScoreStore,
    commenturl_id: str,
    attribute: str = DEFAULT_ATTRIBUTE,
) -> dict:
    """``/api/summary/url/{commenturl_id}`` over the record dicts."""
    comments = corpus.comments_by_url().get(commenturl_id, [])
    scores = score_store.attribute_values(
        [c.text for c in comments], attribute
    )
    return {
        "commenturl_id": commenturl_id,
        "attribute": attribute,
        **_score_summary(scores),
    }


def summary_user_payload(
    corpus: CorpusStore,
    score_store: ScoreStore,
    username: str,
    attribute: str = DEFAULT_ATTRIBUTE,
) -> dict:
    """``/api/summary/user/{username}`` over the record dicts."""
    user = corpus.users[username]
    comments = corpus.comments_by_author().get(user.author_id, [])
    scores = score_store.attribute_values(
        [c.text for c in comments], attribute
    )
    return {
        "username": username,
        "attribute": attribute,
        **_score_summary(scores),
    }


def thread_payload(
    commenturl_id: str,
    url: CrawledUrl,
    comments: list[CrawledComment],
    page_size: int,
) -> dict:
    """``/api/thread/{commenturl_id}``'s payload, as the dict it once was.

    ``repro.serve.api.thread_json`` writes this dict's ``json.dumps``
    text field by field, from the same arguments.
    """
    page = [
        {
            "comment_id": c.comment_id,
            "author_id": c.author_id,
            "text": c.text,
            "created_at": c.created_at_epoch,
            "reply": bool(c.parent_comment_id),
        }
        for c in comments[:page_size]
    ]
    return {
        "commenturl_id": commenturl_id,
        "url": url.url,
        "title": url.title,
        "upvotes": url.upvotes,
        "downvotes": url.downvotes,
        "total_comments": len(comments),
        "comments": page,
    }
