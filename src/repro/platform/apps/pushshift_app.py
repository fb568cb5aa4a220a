"""The Pushshift / Reddit origins (§4.4.1).

Two small services back the Reddit-baseline methodology:

* ``api.pushshift.io`` — ``/reddit/search/comment/?author=<name>&size=<n>``
  returns the account's comments (JSON ``data`` array) plus a metadata
  block with the total count, as the real Pushshift API did.
* ``reddit.com`` — ``/user/{name}/about.json`` existence probe used for
  the username-matching step.
"""

from __future__ import annotations

from repro.net.http import Request, Response
from repro.net.router import App
from repro.platform.reddit import RedditUniverse

__all__ = ["PushshiftApp", "RedditApp"]

MAX_PAGE_SIZE = 100


class PushshiftApp(App):
    """The api.pushshift.io origin.

    Besides the Reddit comment search, the app optionally serves the Gab
    author archive the paper's *first* username-harvesting attempt mined
    (§3.1) — a paginated listing of accounts that have posted on Gab.
    Silent accounts are, by construction, absent from it.
    """

    def __init__(self, reddit: RedditUniverse, gab=None):
        super().__init__("api.pushshift.io")
        self._reddit = reddit
        self._gab_authors: list[str] = []
        if gab is not None:
            self._gab_authors = sorted(
                a.username for a in gab.accounts if a.has_posted
            )
        self.get("/reddit/search/comment/")(self._search_comments)
        self.get("/reddit/search/comment")(self._search_comments)
        self.get("/gab/search/submission/")(self._gab_authors_page)
        self.get("/gab/search/submission")(self._gab_authors_page)

    def _gab_authors_page(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        if request.query.get("agg") != "author":
            return Response.json_response(
                {"error": "only agg=author is archived"}, status=400
            )
        try:
            page = max(1, int(request.query.get("page", "1")))
        except ValueError:
            page = 1
        start = (page - 1) * MAX_PAGE_SIZE
        window = self._gab_authors[start:start + MAX_PAGE_SIZE]
        return Response.json_response({
            "aggs": {"author": [{"key": name} for name in window]},
            "metadata": {"total_results": len(self._gab_authors)},
        })

    def _search_comments(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        author = request.query.get("author", "")
        if not author:
            return Response.json_response(
                {"error": "author parameter required"}, status=400
            )
        account = self._reddit.accounts.get(author)
        if account is None:
            return Response.json_response({"data": [], "metadata": {"total_results": 0}})
        try:
            size = min(MAX_PAGE_SIZE, max(1, int(request.query.get("size", "25"))))
        except ValueError:
            size = 25
        data = [
            {"author": account.username, "body": text, "subreddit": "news"}
            for text in account.comments[:size]
        ]
        return Response.json_response(
            {"data": data, "metadata": {"total_results": account.n_comments}}
        )


class RedditApp(App):
    """The reddit.com origin (existence probes only)."""

    def __init__(self, reddit: RedditUniverse):
        super().__init__("reddit.com")
        self._reddit = reddit
        self.get("/user/{username}/about.json")(self._about)

    def _about(self, request: Request, params: dict[str, str]) -> Response:
        account = self._reddit.accounts.get(params["username"])
        if account is None:
            return Response.json_response(
                {"message": "Not Found", "error": 404}, status=404
            )
        return Response.json_response(
            {
                "kind": "t2",
                "data": {
                    "name": account.username,
                    "comment_karma": account.n_comments,
                },
            }
        )
