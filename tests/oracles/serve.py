"""Record-dict reference implementations of the serve toxicity summaries.

``ServeApp`` slices the sealed store's score column through the memoised
URL/author group indexes; these functions score each comment's text
through the score store instead, walking the record-dict indexes — the
path the column slices replaced.  Each returns the JSON payload the
matching endpoint serves.
"""

from __future__ import annotations

from repro.core.scoring import ScoreStore
from repro.serve.api import DEFAULT_ATTRIBUTE, _score_summary
from repro.store import CorpusStore

__all__ = ["summary_url_payload", "summary_user_payload"]


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
