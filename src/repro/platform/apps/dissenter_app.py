"""The dissenter.com origin.

Serves everything the paper's crawler consumed (§3.2):

* ``/user/{username}`` — a user's home page: display name, bio, author-id,
  and the list of commented-upon URLs (as /discussion links).  Existing
  users render a >10 kB page; unknown users a ~150 B error — the response
  size *is* the account-existence signal.
* ``/discussion/{commenturl_id}`` — a URL's comment page: title,
  description, vote counts, and every visible comment/reply with its
  comment-id, author-id and parent-id.
* ``/comment/{comment_id}`` — a single comment's page, including the
  commented-out ``commentAuthor`` JavaScript variable that leaks the
  author's language / permissions / view-filter metadata.
* ``/discussion/begin?url=…`` — URL-submission flow, redirecting to the
  existing comment page for known URLs.

Visibility: NSFW and "offensive" comments appear only to authenticated
sessions whose account enabled the corresponding view filter (§2.2's
shadow overlay).  Sessions are cookie-based (``session=<token>``).

A per-URL rate limit of 10 requests/minute is enforced exactly as the
paper observed — which a breadth-first crawl never trips.
"""

from __future__ import annotations

import json
import random
from html import escape

from repro.net.clock import Clock
from repro.net.http import Request, Response
from repro.net.ratelimit import KeyedRateLimiter
from repro.net.router import App
from repro.platform.apps.html import page, tiny_error
from repro.platform.dissenter import DissenterState
from repro.platform.entities import Comment

__all__ = ["DissenterApp"]

RATE_LIMIT_PER_URL = 10 / 60.0    # 10 requests/minute, per URL (§3.2)


class DissenterApp(App):
    """HTTP application over a :class:`DissenterState`."""

    def __init__(self, state: DissenterState, clock: Clock, session_seed: int = 0):
        super().__init__("dissenter.com")
        self._state = state
        self._clock = clock
        self._sessions: dict[str, tuple[bool, bool]] = {}
        # Seeded, so a same-seed crawl hands out the same session tokens
        # and its checkpointed cookie jars are byte-identical.
        self._session_rng = random.Random(session_seed)
        self._urls_by_id = state.urls.by_id()
        self._comment_index = {c.comment_id.hex: c for c in state.comments}
        self._limiter = KeyedRateLimiter(
            rate=RATE_LIMIT_PER_URL, capacity=10, clock=clock
        )
        self.use(self._rate_limit)
        self.get("/user/{username}")(self._user_page)
        self.get("/discussion/begin")(self._begin_discussion)
        self.get("/discussion/{commenturl_id}")(self._comment_page)
        self.get("/comment/{comment_id}")(self._single_comment_page)

    # ------------------------------------------------------------------
    # Sessions (the paper created authenticated accounts with the NSFW and
    # offensive view preferences enabled to uncover the shadow overlay).
    # ------------------------------------------------------------------

    def create_session(self, nsfw: bool = False, offensive: bool = False) -> str:
        """Provision an authenticated session; returns the cookie token."""
        token = f"{self._session_rng.getrandbits(64):016x}"
        self._sessions[token] = (nsfw, offensive)
        return token

    def _view_prefs(self, request: Request) -> tuple[bool, bool]:
        cookie = request.cookie_header() or ""
        for part in cookie.split(";"):
            name, _, value = part.strip().partition("=")
            if name == "session" and value in self._sessions:
                return self._sessions[value]
        return (False, False)

    # ------------------------------------------------------------------
    # Middleware
    # ------------------------------------------------------------------

    def _rate_limit(self, request: Request) -> Response | None:
        if not self._limiter.try_acquire(request.url):
            retry = self._limiter.wait_time(request.url)
            response = Response(status=429, body=b"rate limited")
            response.headers.set("Retry-After", f"{retry:.0f}")
            return response
        return None

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _user_page(self, request: Request, params: dict[str, str]) -> Response:
        user = self._state.users_by_username.get(params["username"])
        if user is None:
            return Response.html(tiny_error("No such user"), status=404)
        comments = self._state.comments_by_author.get(user.author_id.hex, [])
        seen: set[str] = set()
        url_items: list[str] = []
        for comment in comments:
            url_id = comment.commenturl_id.hex
            if url_id in seen:
                continue
            seen.add(url_id)
            record = self._urls_by_id.get(url_id)
            label = escape(record.url if record else url_id)
            url_items.append(
                f'<li class="commented-url">'
                f'<a href="/discussion/{url_id}">{label}</a></li>'
            )
        body = (
            f'<h1 class="display-name">{escape(user.display_name)}</h1>\n'
            f'<span class="username">@{escape(user.username)}</span>\n'
            f'<meta name="author-id" content="{user.author_id.hex}">\n'
            f'<p class="bio">{escape(user.bio)}</p>\n'
            f'<ul class="commented-urls">\n' + "\n".join(url_items) + "\n</ul>"
        )
        return Response.html(page(f"@{user.username} on Dissenter", body))

    def _render_comment(self, comment: Comment) -> str:
        parent = (
            comment.parent_comment_id.hex if comment.parent_comment_id else ""
        )
        return (
            f'<div class="comment" data-comment-id="{comment.comment_id.hex}" '
            f'data-author-id="{comment.author_id.hex}" '
            f'data-parent-id="{parent}" '
            f'data-created="{int(comment.created_at)}">\n'
            f'<p class="comment-text">{escape(comment.text)}</p>\n'
            f"</div>"
        )

    def _comment_page(self, request: Request, params: dict[str, str]) -> Response:
        record = self._urls_by_id.get(params["commenturl_id"])
        if record is None:
            return Response.html(tiny_error("No such discussion"), status=404)
        nsfw, offensive = self._view_prefs(request)
        visible = self._state.visible_comments(
            record.commenturl_id.hex, nsfw=nsfw, offensive=offensive
        )
        rendered = "\n".join(self._render_comment(c) for c in visible)
        body = (
            f'<h1 class="page-title">{escape(record.title)}</h1>\n'
            f'<p class="page-description">{escape(record.description)}</p>\n'
            f'<meta name="commenturl-id" content="{record.commenturl_id.hex}">\n'
            f'<meta name="target-url" content="{escape(record.url)}">\n'
            f'<span class="votes" data-up="{record.upvotes}" '
            f'data-down="{record.downvotes}"></span>\n'
            f'<span class="comment-count" data-count="{len(visible)}"></span>\n'
            f'<div class="comments">\n{rendered}\n</div>'
        )
        return Response.html(page(record.title or "/watch", body))

    def _single_comment_page(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        comment = self._comment_index.get(params["comment_id"])
        if comment is None:
            return Response.html(tiny_error("No such comment"), status=404)
        nsfw, offensive = self._view_prefs(request)
        if (comment.nsfw and not nsfw) or (comment.offensive and not offensive):
            return Response.html(tiny_error("No such comment"), status=404)
        author = self._state.users_by_author_id.get(comment.author_id.hex)
        replies = [
            c
            for c in self._state.comments_by_url.get(comment.commenturl_id.hex, [])
            if c.parent_comment_id == comment.comment_id
            and (not c.nsfw or nsfw)
            and (not c.offensive or offensive)
        ]
        rendered = "\n".join(
            self._render_comment(c) for c in [comment] + replies
        )
        author_blob = ""
        if author is not None:
            payload = json.dumps([
                {
                    "author_id": author.author_id.hex,
                    "username": author.username,
                    "display_name": author.display_name,
                    "language": author.language,
                    "permissions": author.flags,
                    "filters": author.view_filters,
                }
            ])
            # The real pages carry this as a commented-out JS variable the
            # paper mined for hidden per-user metadata (§3.2).
            author_blob = f"<script>\n// var commentAuthor = {payload};\n</script>"
        body = (
            f'<div class="comments">\n{rendered}\n</div>\n{author_blob}'
        )
        return Response.html(page("Dissenter comment", body))

    def _begin_discussion(self, request: Request, params: dict[str, str]) -> Response:
        target = request.query.get("url", "")
        if not target:
            return Response.html(tiny_error("missing url"), status=400)
        for record in self._state.urls.urls:
            if record.url == target:
                return Response.redirect(
                    f"/discussion/{record.commenturl_id.hex}"
                )
        # Unknown URL: an empty comment page inviting the first comment.
        body = (
            '<h1 class="page-title">New discussion</h1>\n'
            f'<meta name="target-url" content="{escape(target)}">\n'
            '<div class="comments"></div>'
        )
        return Response.html(page("New discussion", body))

