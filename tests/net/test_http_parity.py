"""Parity of the HTTP layer's fast paths with the general code they skip.

* :func:`repro.net.http.split_url` splits plain http(s) URLs with one
  regex match and must equal ``urllib.parse.urlsplit`` on every input.
* :class:`repro.net.http.Headers` indexes lower-cased names and must
  answer like the list-scan map in ``tests/oracles/headers.py`` after
  any sequence of operations.
"""

from urllib.parse import urlsplit

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.http import Headers, Request, split_url
from tests.oracles.headers import ListScanHeaders

# Characters that move urlsplit's cuts or send a URL down its slow path.
_URL_CHARS = st.sampled_from(
    list("aZ09.-_~%+=&;!$'()*,")
    + list("/?#:@[]")
    + [" ", "\t", "\n", "\r", "\x00", "\x1f", "\x7f"]
    + ["é", "℀", "＃", "\U0001f600"]
)
_SCHEMES = st.sampled_from(
    ["http://", "https://", "HTTP://", "Https://", "http:", "http:/",
     "https:///", "ftp://", "//", "", " http://", "\thttps://"]
)


@st.composite
def urls(draw):
    scheme = draw(_SCHEMES)
    host = draw(st.sampled_from(
        ["gab.com", "Dissenter.COM", "user:pw@gab.com", "gab.com:8443",
         "[::1]:8080", "[::1", "::1]", "", "ex ample.com", "bücher.de"]
    ))
    tail = draw(st.text(_URL_CHARS, max_size=30))
    return scheme + host + tail


def _outcome(split, url):
    try:
        return split(url)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=400)
@given(urls())
def test_split_url_equals_urlsplit(url):
    assert _outcome(split_url, url) == _outcome(urlsplit, url)


@settings(max_examples=200)
@given(st.text(max_size=40))
def test_split_url_equals_urlsplit_on_any_text(url):
    assert _outcome(split_url, url) == _outcome(urlsplit, url)


def test_split_url_edge_cases():
    for url in [
        "https://gab.com:8443/api?x=1#f",
        "https://gab.com?q",          # a query with no path
        "https://gab.com#frag?x",     # "?" inside the fragment
        "https://gab.com/p?a?b#c#d",  # "?" in the query, "#" in the fragment
        "https://gab.com/[x]?[y]#[z]",
        "http://[::1]:8080/ipv6",
        "https://gab.com/a b",
        "HTTPS://gab.com/",
        "https://gab.com/é",
        "https://",
    ]:
        assert split_url(url) == urlsplit(url), url


@given(urls())
def test_request_parts_equal_urlsplit(url):
    try:
        expected = urlsplit(url)
    except ValueError:
        return
    if expected.scheme not in ("http", "https") or not expected.netloc:
        return
    request = Request("GET", url)
    assert request.parts == expected
    assert request.host == expected.netloc.lower()


_NAMES = st.sampled_from(
    ["Cookie", "cookie", "COOKIE", "Set-Cookie", "set-cookie", "X-A",
     "x-a", "Accept", "ß", "SS", "İ", "i̇"]
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _NAMES, st.text(max_size=3)),
        st.tuples(st.just("set"), _NAMES, st.text(max_size=3)),
        st.tuples(st.just("copy"), st.just(""), st.just("")),
    ),
    max_size=12,
)


@settings(max_examples=300)
@given(st.lists(st.tuples(_NAMES, st.text(max_size=3)), max_size=4), _OPS)
def test_headers_answer_like_the_list_scan(initial, ops):
    fast, oracle = Headers(initial), ListScanHeaders(initial)
    for op, name, value in ops:
        if op == "copy":
            fast, oracle = fast.copy(), oracle.copy()
        else:
            getattr(fast, op)(name, value)
            getattr(oracle, op)(name, value)
        assert list(fast) == list(oracle)
        assert len(fast) == len(oracle)
        for probe in ["Cookie", "set-cookie", "X-A", "ß", "ss", "i̇", "Missing"]:
            assert fast.get(probe) == oracle.get(probe)
            assert fast.get(probe, "d") == oracle.get(probe, "d")
            assert fast.get_all(probe) == oracle.get_all(probe)
            assert (probe in fast) == (probe in oracle)
    assert (3 in fast) == (3 in oracle)


def test_headers_copy_is_independent():
    original = Headers({"A": "1"})
    clone = original.copy()
    clone.set("a", "2")
    clone.add("B", "3")
    assert list(original) == [("A", "1")]
    assert original.get("b") is None
    assert clone.get("A") == "2"
