"""Tests for the HTTP message model."""

from collections import OrderedDict
from urllib.parse import parse_qsl, urlsplit

import pytest

from repro.net.errors import HTTPStatusError
from repro.net.http import Headers, Request, Response, url_with_params


class TestHeaders:
    def test_case_insensitive_get(self):
        h = Headers({"Content-Type": "text/html"})
        assert h.get("content-type") == "text/html"
        assert "CONTENT-TYPE" in h

    def test_set_replaces_all(self):
        h = Headers()
        h.add("X-Thing", "1")
        h.add("X-Thing", "2")
        h.set("x-thing", "3")
        assert h.get_all("X-Thing") == ["3"]

    def test_multi_value_preserved(self):
        h = Headers()
        h.add("Set-Cookie", "a=1")
        h.add("Set-Cookie", "b=2")
        assert h.get_all("set-cookie") == ["a=1", "b=2"]

    def test_default_value(self):
        assert Headers().get("missing", "fallback") == "fallback"

    def test_copy_independent(self):
        h = Headers({"A": "1"})
        c = h.copy()
        c.set("A", "2")
        assert h.get("A") == "1"


class TestRequest:
    def test_parses_parts(self):
        r = Request("get", "https://example.com/path/sub?x=1&y=2")
        assert r.method == "GET"
        assert r.host == "example.com"
        assert r.path == "/path/sub"
        assert r.query == {"x": "1", "y": "2"}
        assert r.scheme == "https"

    def test_root_path_default(self):
        assert Request("GET", "https://example.com").path == "/"

    @pytest.mark.parametrize("url", [
        "https://example.com",
        "https://example.com/",
        "http://example.com/a/../b/./c",
        "https://example.com//double//slash",
        "https://example.com/path?",
        "https://example.com/?a=1&a=2&b=",
        "https://example.com/p?q=%20x+y&empty&k=v=w",
        "https://example.com:8443/port/path?x=1#frag",
        "https://Dissenter.COM/User/Alice?Sort=NEW",
        "http://[::1]:8080/ipv6",
        "https://user:pw@gab.com/api/v1/accounts/1",
    ])
    def test_properties_equal_urlsplit(self, url):
        request = Request("GET", url)
        parts = urlsplit(url)
        assert request.parts == parts
        assert request.host == parts.netloc.lower()
        assert request.path == (parts.path or "/")
        assert request.scheme == parts.scheme
        assert request.query == dict(
            parse_qsl(parts.query, keep_blank_values=True)
        )

    def test_reassigned_url_is_parsed_again(self):
        request = Request("GET", "https://a.com/one?x=1")
        assert request.host == "a.com"
        request.url = "http://B.org:81/two?y=2"
        assert request.host == "b.org:81"
        assert request.path == "/two"
        assert request.query == {"y": "2"}
        assert request.scheme == "http"
        assert request.parts == urlsplit(request.url)

    def test_headers_from_any_mapping(self):
        assert list(Headers(OrderedDict([("A", "1"), ("B", "2")]))) == [
            ("A", "1"), ("B", "2"),
        ]
        assert list(Headers([("A", "1"), ("A", "2")])) == [
            ("A", "1"), ("A", "2"),
        ]

    def test_rejects_relative_url(self):
        with pytest.raises(ValueError):
            Request("GET", "/relative/only")

    def test_rejects_odd_scheme(self):
        with pytest.raises(ValueError):
            Request("GET", "ftp://example.com/x")

    def test_url_with_params_appends(self):
        assert url_with_params("https://e.com/p", {"a": 1}) == "https://e.com/p?a=1"
        assert (
            url_with_params("https://e.com/p?x=1", {"a": "b"})
            == "https://e.com/p?x=1&a=b"
        )
        assert url_with_params("https://e.com/p", None) == "https://e.com/p"


class TestResponse:
    def test_size_reflects_body_bytes(self):
        r = Response(status=200, body=b"x" * 1234)
        assert r.size == 1234

    def test_text_and_json(self):
        r = Response.json_response({"a": [1, 2]})
        assert r.json() == {"a": [1, 2]}
        assert r.headers.get("Content-Type") == "application/json"

    def test_html_constructor(self):
        r = Response.html("<p>hi</p>")
        assert r.status == 200
        assert "text/html" in r.headers.get("Content-Type")

    def test_raise_for_status(self):
        assert Response(status=200).raise_for_status().status == 200
        with pytest.raises(HTTPStatusError):
            Response(status=404, url="https://x.com").raise_for_status()

    def test_redirect_helpers(self):
        r = Response.redirect("/target")
        r.url = "https://example.com/src"
        assert r.is_redirect()
        assert r.redirect_target() == "https://example.com/target"

    def test_permanent_redirect_status(self):
        assert Response.redirect("/x", permanent=True).status == 301

    def test_ok_range(self):
        assert Response(status=200).ok
        assert Response(status=302).ok
        assert not Response(status=404).ok
        assert not Response(status=503).ok

    def test_reason_phrases(self):
        assert Response(status=429).reason == "Too Many Requests"
        assert Response(status=299).reason == "Unknown"
