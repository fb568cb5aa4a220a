"""The youtube.com / youtu.be origins (§3.3).

The metadata the paper needed (video title, uploader, availability,
comment-section status) "resides in large blocks of JavaScript", which is
why the authors used Selenium.  These origins reproduce that structure:

* the static ``<title>`` is just "YouTube" — an HTML-title scraper learns
  nothing (exactly the "/watch" + empty-description failure Dissenter's
  own parser exhibits);
* the real metadata sits in a ``var ytInitialData = {...};`` script blob
  that only a JS-executing (render-mode) client extracts;
* ``youtu.be`` short links redirect to the canonical watch URL.
"""

from __future__ import annotations

import json
from urllib.parse import urlsplit

from repro.net.http import Request, Response
from repro.net.router import App
from repro.platform.apps.html import page, tiny_error
from repro.platform.entities import YouTubeItem
from repro.platform.youtube_site import YouTubeUniverse

__all__ = ["YouTubeApp", "YouTuBeApp"]

_UNAVAILABLE_MESSAGES = {
    "unavailable": "Video unavailable",
    "private": "This video is private.",
    "terminated": (
        "This video is no longer available because the YouTube account "
        "associated with this video has been terminated."
    ),
    "hate_removed": (
        "This video has been removed for violating YouTube's policy on "
        "hate speech."
    ),
}


def _blob_for(item: YouTubeItem) -> dict:
    if item.is_active:
        return {
            "status": "OK",
            "kind": item.kind,
            "videoDetails": {
                "title": item.title,
                "author": item.owner,
                "commentsDisabled": item.comments_disabled,
            },
        }
    return {
        "status": "ERROR",
        "kind": item.kind,
        "reason": item.status,
        "message": _UNAVAILABLE_MESSAGES.get(item.status, "Video unavailable"),
    }


class YouTubeApp(App):
    """The youtube.com origin."""

    def __init__(self, youtube: YouTubeUniverse):
        super().__init__("youtube.com")
        self._items = youtube.items
        # Index by path+query so lookups ignore the scheme variants the
        # URL universe contains.
        self._by_path: dict[str, YouTubeItem] = {}
        for url, item in youtube.items.items():
            parts = urlsplit(url)
            host = parts.netloc.lower()
            if host in ("youtube.com", "www.youtube.com"):
                key = parts.path + ("?" + parts.query if parts.query else "")
                self._by_path[key] = item
            elif host == "youtu.be":
                # Short links redirect here; serve them at the canonical
                # watch path.
                self._by_path[f"/watch?v={parts.path.lstrip('/')}"] = item
        self.get("/{rest...}")(self._serve)

    def _serve(self, request: Request, params: dict[str, str]) -> Response:
        parts = urlsplit(request.url)
        key = parts.path + ("?" + parts.query if parts.query else "")
        item = self._by_path.get(key)
        if item is None:
            return Response.html(tiny_error("Not found"), status=404)
        blob = json.dumps(_blob_for(item))
        body = (
            '<div id="player"></div>\n'
            f"<script>var ytInitialData = {blob};</script>"
        )
        # The static title is deliberately generic: the useful data is in
        # the JS blob only.
        return Response.html(page("YouTube", body))


class YouTuBeApp(App):
    """The youtu.be short-link origin: redirects to youtube.com."""

    def __init__(self, youtube: YouTubeUniverse):
        super().__init__("youtu.be")
        self._by_code: dict[str, str] = {}
        for url in youtube.items:
            parts = urlsplit(url)
            if parts.netloc.lower() == "youtu.be":
                code = parts.path.lstrip("/")
                self._by_code[code] = url
        self.get("/{code}")(self._redirect)

    def _redirect(self, request: Request, params: dict[str, str]) -> Response:
        code = params["code"]
        if code not in self._by_code:
            return Response.html(tiny_error("Not found"), status=404)
        return Response.redirect(
            f"https://youtube.com/watch?v={code}", permanent=True
        )
