"""Tests for the cookie jar."""

from repro.net.cookies import Cookie, CookieJar, parse_set_cookie


class TestParseSetCookie:
    def test_basic(self):
        c = parse_set_cookie("session=abc123", "example.com")
        assert c.name == "session" and c.value == "abc123"
        assert c.domain == "example.com" and c.path == "/"

    def test_attributes(self):
        c = parse_set_cookie(
            "id=42; Domain=.example.com; Path=/app; Secure", "other.com"
        )
        assert c.domain == ".example.com"
        assert c.path == "/app"

    def test_malformed_raises(self):
        import pytest
        with pytest.raises(ValueError):
            parse_set_cookie("noequalsign", "example.com")


class TestCookieMatching:
    def test_exact_domain(self):
        c = Cookie("a", "1", "example.com")
        assert c.matches("example.com", "/")
        assert not c.matches("other.com", "/")

    def test_subdomain_matches_parent(self):
        c = Cookie("a", "1", "example.com")
        assert c.matches("api.example.com", "/")

    def test_suffix_not_fooled(self):
        c = Cookie("a", "1", "example.com")
        assert not c.matches("notexample.com", "/")

    def test_path_prefix(self):
        c = Cookie("a", "1", "example.com", path="/app")
        assert c.matches("example.com", "/app/page")
        assert not c.matches("example.com", "/other")


class TestCookieJar:
    def test_set_and_header(self):
        jar = CookieJar()
        jar.set_simple("session", "tok", "dissenter.com")
        header = jar.cookie_header_for("https://dissenter.com/user/a")
        assert header == "session=tok"

    def test_no_cross_domain_leakage(self):
        jar = CookieJar()
        jar.set_simple("session", "tok", "dissenter.com")
        assert jar.cookie_header_for("https://gab.com/api") is None

    def test_replacement_by_name_domain_path(self):
        jar = CookieJar()
        jar.set_simple("s", "old", "e.com")
        jar.set_simple("s", "new", "e.com")
        assert jar.cookie_header_for("https://e.com/") == "s=new"
        assert len(jar) == 1

    def test_ingest_response(self):
        jar = CookieJar()
        jar.ingest_response("https://e.com/login", ["sid=xyz; Path=/"])
        assert jar.get("sid", "e.com").value == "xyz"

    def test_clear_domain_scoped(self):
        jar = CookieJar()
        jar.set_simple("a", "1", "e.com")
        jar.set_simple("b", "2", "other.com")
        jar.clear("e.com")
        assert jar.cookie_header_for("https://e.com/") is None
        assert jar.cookie_header_for("https://other.com/") == "b=2"

    def test_clear_all(self):
        jar = CookieJar()
        jar.set_simple("a", "1", "e.com")
        jar.clear()
        assert len(jar) == 0

    def test_multiple_cookies_joined(self):
        jar = CookieJar()
        jar.set_simple("a", "1", "e.com")
        jar.set_simple("b", "2", "e.com")
        header = jar.cookie_header_for("https://e.com/")
        assert set(header.split("; ")) == {"a=1", "b=2"}


def test_cookie_header_for_parsed_parts_matches_url():
    from urllib.parse import urlsplit

    jar = CookieJar()
    assert jar.cookie_header_for(urlsplit("https://e.com/")) is None
    jar.set_simple("s", "1", "e.com")
    for url in ("https://e.com/", "https://sub.E.com/x?y=1", "https://f.com/"):
        assert jar.cookie_header_for(urlsplit(url)) == jar.cookie_header_for(url)
