"""The gab.com origin.

Implements the two Gab interfaces the paper used:

* ``/api/v1/accounts/{id}`` (§3.1) — JSON account records addressed by the
  integer counter ID; unallocated and deleted IDs return a JSON error.
  Every API response carries ``X-RateLimit-Remaining`` and
  ``X-RateLimit-Reset`` headers, and exceeding the window yields 429 —
  the paper's crawler paced itself off exactly these headers (§3.4).
* ``/api/v1/accounts/{id}/followers`` and ``…/following`` (§3.4) —
  paginated follower lists (``?page=N``, fixed page size), complete
  enumeration guaranteed by pagination.
* ``/users/{username}`` — the profile page; deleted accounts render the
  distinctive "deleted" appearance the paper matched against a
  test-deleted account (§4.1.1).
"""

from __future__ import annotations

import datetime

from repro.net.clock import Clock
from repro.net.http import Request, Response
from repro.net.router import App
from repro.platform.apps.html import page, tiny_error
from repro.platform.entities import GabAccount
from repro.platform.gab import GabUniverse
from repro.platform.socialgraph import SocialGraph

__all__ = ["GabApp", "PAGE_SIZE", "RATE_LIMIT_WINDOW", "RATE_LIMIT_REQUESTS"]

PAGE_SIZE = 80
RATE_LIMIT_WINDOW = 300.0        # seconds
RATE_LIMIT_REQUESTS = 300        # per window


class GabApp(App):
    """HTTP application over the Gab universe and follow graph."""

    def __init__(self, gab: GabUniverse, social: SocialGraph, clock: Clock):
        super().__init__("gab.com")
        self._gab = gab
        self._social = social
        self._clock = clock
        self._window_start = clock.now()
        self._window_used = 0
        self.use(self._rate_limit)
        self.get("/api/v1/accounts/{gab_id}")(self._account)
        self.get("/api/v1/accounts/{gab_id}/followers")(self._followers)
        self.get("/api/v1/accounts/{gab_id}/following")(self._following)
        self.get("/users/{username}")(self._profile_page)

    # ------------------------------------------------------------------
    # Rate limiting: fixed window with header exposure.
    # ------------------------------------------------------------------

    def _rate_limit(self, request: Request) -> Response | None:
        now = self._clock.now()
        if now - self._window_start >= RATE_LIMIT_WINDOW:
            self._window_start = now
            self._window_used = 0
        if self._window_used >= RATE_LIMIT_REQUESTS:
            response = Response(status=429, body=b'{"error":"Throttled"}')
            self._attach_headers(response)
            return response
        self._window_used += 1
        return None

    def _attach_headers(self, response: Response) -> None:
        remaining = max(0, RATE_LIMIT_REQUESTS - self._window_used)
        reset_at = self._window_start + RATE_LIMIT_WINDOW
        response.headers.set("X-RateLimit-Remaining", str(remaining))
        response.headers.set("X-RateLimit-Reset", f"{reset_at:.0f}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _lookup(self, gab_id_raw: str) -> GabAccount | None:
        try:
            gab_id = int(gab_id_raw)
        except ValueError:
            return None
        account = self._gab.by_id.get(gab_id)
        if account is None or account.is_deleted:
            # Deleted accounts disappear from the API just like unallocated
            # IDs — this is what creates the paper's 1,300 orphaned
            # Dissenter users.
            return None
        return account

    def _account_json(self, account: GabAccount) -> dict:
        created = datetime.datetime.fromtimestamp(
            account.created_at, tz=datetime.timezone.utc
        )
        # strftime("%Y-%m-%dT%H:%M:%S.000Z") spelled out: the same text
        # (glibc's %Y does not pad) for about half the cost per account.
        created_at = "%d-%02d-%02dT%02d:%02d:%02d.000Z" % (
            created.year, created.month, created.day,
            created.hour, created.minute, created.second,
        )
        return {
            "id": str(account.gab_id),
            "username": account.username,
            "acct": account.username,
            "display_name": account.display_name,
            "note": account.bio,
            "created_at": created_at,
            "followers_count": self._social.in_degree(account.gab_id),
            "following_count": self._social.out_degree(account.gab_id),
        }

    def _json_error(self, message: str, status: int = 404) -> Response:
        response = Response.json_response({"error": message}, status=status)
        self._attach_headers(response)
        return response

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------

    def _account(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        response = Response.json_response(self._account_json(account))
        self._attach_headers(response)
        return response

    def _paginated_accounts(
        self, request: Request, gab_ids: list[int]
    ) -> Response:
        try:
            page_number = max(1, int(request.query.get("page", "1")))
        except ValueError:
            page_number = 1
        start = (page_number - 1) * PAGE_SIZE
        window = gab_ids[start : start + PAGE_SIZE]
        payload = [
            self._account_json(self._gab.by_id[g])
            for g in window
            if g in self._gab.by_id and not self._gab.by_id[g].is_deleted
        ]
        response = Response.json_response(payload)
        self._attach_headers(response)
        return response

    def _followers(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        ids = sorted(self._social.followers_of(account.gab_id))
        return self._paginated_accounts(request, ids)

    def _following(self, request: Request, params: dict[str, str]) -> Response:
        account = self._lookup(params["gab_id"])
        if account is None:
            return self._json_error("Record not found")
        ids = sorted(self._social.following_of(account.gab_id))
        return self._paginated_accounts(request, ids)

    def _profile_page(self, request: Request, params: dict[str, str]) -> Response:
        account = self._gab.by_username.get(params["username"])
        if account is None:
            return Response.html(tiny_error("No such user"), status=404)
        if account.is_deleted:
            body = '<div class="account-deleted">This account is deleted.</div>'
            return Response.html(page("Gab", body, pad=False))
        body = (
            f'<h1 class="display-name">{account.display_name}</h1>'
            f'<span class="username">@{account.username}</span>'
        )
        return Response.html(page(f"@{account.username}", body))
