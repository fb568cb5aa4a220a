"""The Dissenter read API over a sealed corpus.

:class:`ServeApp` flips the repo's direction of travel: instead of
*crawling* the simulated platform, it serves the crawled corpus back out
as a live read API — comment thread by URL, user page, per-URL and
per-user toxicity summaries, hateful-core membership — mounted as an
:class:`~repro.net.router.App` on the existing loopback transport so
every request runs on the virtual clock.

Three properties matter:

* **Determinism.**  Handlers are pure functions of the sealed corpus and
  the request; virtual render costs are charged per response byte, so a
  seeded load run reproduces latency distributions bit-identically.
* **Caching.**  Rendered responses live in an app-owned LRU
  (:class:`~repro.serve.cache.RenderCache`) keyed on (method, path,
  params, corpus manifest hash).  A sealed corpus never changes, so
  entries never go stale; the manifest-hash component invalidates the
  key space wholesale if an app is ever rebuilt over a different corpus.
* **Rate limiting.**  A per-client :class:`~repro.net.ratelimit.
  KeyedRateLimiter` answers over-budget requests with 429 and a
  ``Retry-After`` whose value is *sufficient* (the ulp-safe
  ``wait_time`` guarantee) and serialized with ``repr`` so it round-
  trips through the header exactly.

Toxicity summaries read the sealed store's column view: the scores
column is sliced via the memoised URL/author group indexes.  The
record-dict summaries they replaced live in ``tests/oracles/``, where a
parity test requires byte-identical JSON bodies — the same oracle
contract the §4 analyses follow.
"""

from __future__ import annotations

import hashlib
import json
import math
from json.encoder import encode_basestring_ascii as _escape
from typing import TYPE_CHECKING

import numpy as np

from repro.net.clock import Clock
from repro.net.http import Request, Response, encode_json
from repro.net.ratelimit import KeyedRateLimiter
from repro.net.router import App
from repro.serve.cache import RenderCache
from repro.store import CorpusStore
from repro.store.columns import columns_of

if TYPE_CHECKING:
    from repro.crawler.records import CrawledComment, CrawledUrl

__all__ = ["ServeApp", "corpus_manifest_hash", "thread_json"]

#: Default Perspective attribute for the summary endpoints (§4.5.1's
#: hateful-core criterion scores SEVERE_TOXICITY medians).
DEFAULT_ATTRIBUTE = "SEVERE_TOXICITY"


def corpus_manifest_hash(corpus: CorpusStore) -> str:
    """A stable identity hash for a corpus's contents.

    The store's snapshot payload is hashed — sealed segment references
    (name, count, sha256, columns hash) plus the unsealed tail.  It names
    no directory, so the same corpus hashes identically wherever its
    segments live.
    """
    payload = corpus.snapshot()
    data = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _score_summary(scores: np.ndarray) -> dict:
    """Count/mean/median/p90/max of one score column slice.

    Quantiles use the ECDF convention (sorted array indexed at
    ``ceil(q * n) - 1``).
    """
    n = int(scores.size)
    if n == 0:
        return {"count": 0, "mean": None, "median": None, "p90": None,
                "max": None}
    ordered = np.sort(scores, kind="stable")

    def quantile(q: float) -> float:
        return float(ordered[max(0, math.ceil(q * n) - 1)])

    return {
        "count": n,
        # ndarray.mean is this sum and division behind a Python-level
        # wrapper that costs more than both on a thread-sized slice.
        "mean": float(np.add.reduce(scores) / n),
        "median": quantile(0.5),
        "p90": quantile(0.9),
        "max": float(ordered[-1]),
    }


def thread_json(
    commenturl_id: str,
    url: CrawledUrl,
    comments: list[CrawledComment],
    page_size: int,
) -> str:
    """The ``/api/thread/{commenturl_id}`` body, written field by field.

    The same text as ``json.dumps`` of the payload dict built in
    ``tests/oracles/serve.py`` (``thread_payload``).  A comment row whose
    ids and text are exact ``str`` and whose timestamp is an exact
    ``int`` is written directly; any other row, and the page header, go
    through the shared encoder as the dict they stand for.
    """
    head = encode_json({
        "commenturl_id": commenturl_id,
        "url": url.url,
        "title": url.title,
        "upvotes": url.upvotes,
        "downvotes": url.downvotes,
        "total_comments": len(comments),
    })
    rows = []
    append = rows.append
    for c in comments[:page_size]:
        comment_id, author_id, text = c.comment_id, c.author_id, c.text
        created = c.created_at_epoch
        reply = bool(c.parent_comment_id)
        if (type(comment_id) is str and type(author_id) is str
                and type(text) is str and type(created) is int):
            # An exact int formats as its repr, as the encoder writes it.
            flag = "true" if reply else "false"
            append(
                f'{{"comment_id": {_escape(comment_id)}, '
                f'"author_id": {_escape(author_id)}, '
                f'"text": {_escape(text)}, '
                f'"created_at": {created}, "reply": {flag}}}'
            )
        else:
            append(encode_json({
                "comment_id": comment_id,
                "author_id": author_id,
                "text": text,
                "created_at": created,
                "reply": reply,
            }))
    return head[:-1] + ', "comments": [' + ", ".join(rows) + "]}"


class ServeApp(App):
    """Read-only Dissenter API over a sealed corpus.

    Args:
        corpus: the sealed corpus to serve (never mutated).
        clock: the serving stack's virtual clock (shared with the
            transport; render costs advance it).
        score_store: shared score store for the toxicity summary
            endpoints; ``None`` makes them answer 503.
        core_members: usernames in the §4.5.1 hateful core.
        diffusion: precomputed hate-diffusion summary payload
            (:meth:`~repro.graph.diffusion.DiffusionReport.to_payload`);
            ``None`` makes ``/api/diffusion/summary`` answer 503.  The
            cascade is a pure function of (corpus, parameters), so the
            bootstrap computes it once and the endpoint just serves the
            frozen payload.
        cache_entries: LRU render-cache capacity.
        rate: per-client token-bucket refill rate (requests/second).
        capacity: per-client burst allowance.
        max_clients: rate-limiter table bound (LRU-evicted above this).
    """

    HOST = "serve.dissenter.local"

    #: Virtual seconds charged per rendered response: a base dispatch
    #: cost plus a per-KiB serialization cost, so heavy threads are
    #: slower than tiny user pages and the latency distribution under
    #: load has real shape.  Cache hits skip rendering and pay only the
    #: (much smaller) lookup cost.
    RENDER_COST_BASE = 0.02
    RENDER_COST_PER_KB = 0.01
    CACHE_HIT_COST = 0.002

    #: Per-thread / per-page caps so no response is unbounded.
    THREAD_PAGE_SIZE = 100
    USER_URLS_LIMIT = 50

    def __init__(
        self,
        corpus: CorpusStore,
        clock: Clock,
        score_store=None,
        core_members: tuple[str, ...] | list[str] = (),
        diffusion: dict | None = None,
        cache_entries: int = 4096,
        rate: float = 5.0,
        capacity: float = 20.0,
        max_clients: int = KeyedRateLimiter.DEFAULT_MAX_KEYS,
    ) -> None:
        super().__init__(self.HOST, deterministic_render=False)
        if not corpus.sealed:
            raise ValueError("ServeApp requires a sealed corpus")
        self._corpus = corpus
        self._clock = clock
        self._scores = score_store
        self._core_sorted = sorted(set(core_members))
        self._core = frozenset(self._core_sorted)
        self._diffusion = diffusion
        self._manifest_hash = corpus_manifest_hash(corpus)
        self._cache = RenderCache(cache_entries)
        self._limiter = KeyedRateLimiter(
            rate=rate, capacity=capacity, clock=clock, max_keys=max_clients
        )
        self._url_index: dict[str, str] | None = None
        self.throttled = 0
        self.use(self._rate_limit)
        self.get("/api/status")(self._status)
        self.get("/api/thread/{commenturl_id}")(self._thread)
        self.get("/api/url")(self._url_lookup)
        self.get("/api/user/{username}")(self._user_page)
        self.get("/api/summary/url/{commenturl_id}")(self._summary_url)
        self.get("/api/summary/user/{username}")(self._summary_user)
        self.get("/api/core")(self._core_listing)
        self.get("/api/core/{username}")(self._core_membership)
        self.get("/api/diffusion/summary")(self._diffusion_summary)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def manifest_hash(self) -> str:
        return self._manifest_hash

    @property
    def cache(self) -> RenderCache:
        return self._cache

    @property
    def limiter(self) -> KeyedRateLimiter:
        return self._limiter

    # ------------------------------------------------------------------
    # Rate limiting (middleware: always runs, never cached).
    # ------------------------------------------------------------------

    def _client_key(self, request: Request) -> str:
        return request.headers.get("X-Client-Id") or "anonymous"

    def _rate_limit(self, request: Request) -> Response | None:
        key = self._client_key(request)
        if self._limiter.try_acquire(key):
            return None
        self.throttled += 1
        retry = self._limiter.wait_time(key)
        response = Response(status=429, body=b"rate limited")
        # repr round-trips the float exactly, so a client that sleeps
        # float(header) gets the full ulp-safe wait_time guarantee.
        response.headers.set("Retry-After", repr(retry))
        return response

    # ------------------------------------------------------------------
    # Render caching (the routing half of dispatch).
    # ------------------------------------------------------------------

    def render(self, request: Request) -> Response:
        parts = request.parts
        method = request.method
        path = parts.path or "/"
        if path == "/api/status":
            # Live counters: caching would freeze them.
            return self.route(request, method, path)
        # A URL without a query (or with a bare "?") has the key an
        # empty query parses to: most requests skip the parse.
        key = (
            method,
            path,
            tuple(sorted(request.query.items())) if parts.query else (),
            self._manifest_hash,
        )
        master = self._cache.get(key)
        if master is not None:
            self._clock.advance(self.CACHE_HIT_COST)
            return self._shell(master, "HIT", request)
        master = self.route(request, method, path)
        self._clock.advance(
            self.RENDER_COST_BASE
            + self.RENDER_COST_PER_KB * len(master.body) / 1024.0
        )
        self._cache.put(key, master)
        return self._shell(master, "MISS", request)

    def _shell(
        self, master: Response, disposition: str, request: Request
    ) -> Response:
        """A per-request response around the shared cached body.

        The transport mutates ``.elapsed``/``.url`` on what it returns,
        so cache entries must never be handed out directly.  No handler
        sets ``X-Cache``, so it is appended, not replaced.
        """
        headers = master.headers.copy()
        headers.add("X-Cache", disposition)
        return Response(
            status=master.status,
            headers=headers,
            body=master.body,
            url=request.url,
        )

    # ------------------------------------------------------------------
    # Handlers.
    # ------------------------------------------------------------------

    def _status(self, request: Request, params: dict[str, str]) -> Response:
        corpus = self._corpus
        payload = {
            "manifest_hash": self._manifest_hash,
            "corpus": {
                "users": len(corpus.users),
                "urls": len(corpus.urls),
                "comments": len(corpus.comments),
            },
            "scores": self._scores is not None,
            "core_size": len(self._core),
            "cache": self._cache.stats(),
            "ratelimit": {
                "clients": len(self._limiter),
                "created": self._limiter.created,
                "evictions": self._limiter.evictions,
                "throttled": self.throttled,
            },
        }
        return Response.json_response(payload)

    def _thread(self, request: Request, params: dict[str, str]) -> Response:
        cid = params["commenturl_id"]
        url = self._corpus.urls.get(cid)
        if url is None:
            return Response.json_response({"error": "unknown url id"}, 404)
        comments = self._corpus.comments_by_url().get(cid, [])
        return Response.json_text(
            thread_json(cid, url, comments, self.THREAD_PAGE_SIZE)
        )

    def _url_lookup(self, request: Request, params: dict[str, str]) -> Response:
        target = request.query.get("url")
        if not target:
            return Response.json_response(
                {"error": "missing url parameter"}, 400
            )
        if self._url_index is None:
            # First-insertion order: later re-appends of the same URL
            # string keep the original id, like every other store index.
            index: dict[str, str] = {}
            for record in self._corpus.urls.values():
                index.setdefault(record.url, record.commenturl_id)
            self._url_index = index
        cid = self._url_index.get(target)
        if cid is None:
            return Response.json_response({"error": "unknown url"}, 404)
        return Response.json_response(
            {"url": target, "commenturl_id": cid}
        )

    def _user_page(self, request: Request, params: dict[str, str]) -> Response:
        username = params["username"]
        user = self._corpus.users.get(username)
        if user is None:
            return Response.json_response({"error": "unknown user"}, 404)
        comments = self._corpus.comments_by_author().get(user.author_id, [])
        commented: list[str] = []
        seen: set[str] = set()
        for comment in comments:
            if comment.commenturl_id not in seen:
                seen.add(comment.commenturl_id)
                commented.append(comment.commenturl_id)
                if len(commented) >= self.USER_URLS_LIMIT:
                    break
        payload = {
            "username": user.username,
            "display_name": user.display_name,
            "author_id": user.author_id,
            "comment_count": len(comments),
            "commented_urls": commented,
            "first_comment_at": (
                min(c.created_at_epoch for c in comments) if comments else None
            ),
            "last_comment_at": (
                max(c.created_at_epoch for c in comments) if comments else None
            ),
        }
        return Response.json_response(payload)

    # -- toxicity summaries --------------------------------------------

    def _summary_unavailable(self) -> Response:
        return Response.json_response(
            {"error": "no score store attached"}, 503
        )

    def _summary_url(self, request: Request, params: dict[str, str]) -> Response:
        if self._scores is None:
            return self._summary_unavailable()
        cid = params["commenturl_id"]
        if cid not in self._corpus.urls:
            return Response.json_response({"error": "unknown url id"}, 404)
        attribute = request.query.get("attribute", DEFAULT_ATTRIBUTE)
        view = columns_of(self._corpus)
        try:
            ordinal = view.tables.url_ids.lookup(cid)
            if ordinal is None:
                scores = np.asarray([], dtype=float)
            else:
                order, offsets = view.url_comment_order()
                rows = order[offsets[ordinal]:offsets[ordinal + 1]]
                scores = view.attribute_scores(self._scores, attribute)[rows]
        except KeyError:
            return Response.json_response(
                {"error": f"unknown attribute {attribute!r}"}, 400
            )
        payload = {
            "commenturl_id": cid,
            "attribute": attribute,
            **_score_summary(scores),
        }
        return Response.json_response(payload)

    def _summary_user(self, request: Request, params: dict[str, str]) -> Response:
        if self._scores is None:
            return self._summary_unavailable()
        username = params["username"]
        user = self._corpus.users.get(username)
        if user is None:
            return Response.json_response({"error": "unknown user"}, 404)
        attribute = request.query.get("attribute", DEFAULT_ATTRIBUTE)
        view = columns_of(self._corpus)
        try:
            ordinal = view.tables.authors.lookup(user.author_id)
            if ordinal is None:
                scores = np.asarray([], dtype=float)
            else:
                order, offsets = view.author_comment_order()
                rows = order[offsets[ordinal]:offsets[ordinal + 1]]
                scores = view.attribute_scores(self._scores, attribute)[rows]
        except KeyError:
            return Response.json_response(
                {"error": f"unknown attribute {attribute!r}"}, 400
            )
        payload = {
            "username": username,
            "attribute": attribute,
            **_score_summary(scores),
        }
        return Response.json_response(payload)

    # -- hateful core ---------------------------------------------------

    def _core_listing(self, request: Request, params: dict[str, str]) -> Response:
        return Response.json_response(
            {"size": len(self._core_sorted), "members": self._core_sorted}
        )

    def _core_membership(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        username = params["username"]
        return Response.json_response(
            {"username": username, "member": username in self._core}
        )

    # -- hate diffusion ---------------------------------------------------

    def _diffusion_summary(
        self, request: Request, params: dict[str, str]
    ) -> Response:
        if self._diffusion is None:
            return Response.json_response(
                {"error": "no diffusion summary attached"}, 503
            )
        return Response.json_response(self._diffusion)
