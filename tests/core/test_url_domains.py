"""One URL split answers the TLD, registrable domain and query.

``repro.net.http.split_domains`` gives ``tld_of`` and
``second_level_domain`` from one ``urlsplit`` (or ``split_url``), and
the column projector reads the query from the same split.  The oracle in
``tests/oracles/urls.py`` splits once per question; for any URL (ports,
composite suffixes, IPv6 literals, upper-case hosts and schemes,
non-http schemes, arbitrary text) the answers or the error are equal.
"""

from urllib.parse import urlsplit

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.urls import second_level_domain, tld_of
from repro.net.http import split_domains, split_url
from repro.store.columns import ColumnProjector
from tests.oracles import urls as oracle

_SCHEME = st.sampled_from(["http", "https", "HTTP", "Https", "ftp", "file",
                           "mailto", "javascript", ""])
_LABEL = st.sampled_from(["bbc", "www", "example", "co", "uk", "com", "a",
                          "Example", "WWW", "news", "xn--bcher-kva", ""])
_SUFFIX = st.sampled_from(["", ".com", ".org", ".co.uk", ".org.uk", ".ac.uk",
                           ".co.nz", ".com.au", ".CO.UK", ".uk", ".de", "."])
_HOST = st.one_of(
    st.builds(lambda labels, suffix: ".".join(labels) + suffix,
              st.lists(_LABEL, max_size=3), _SUFFIX),
    st.sampled_from(["[::1]", "[2001:db8::1]", "[::1", "::1]", "127.0.0.1",
                     "localhost", "LOCALHOST.COM", "bücher.de", "user:pw@host.com",
                     "co.uk", ".co.uk"]),
)
_PORT = st.sampled_from(["", ":80", ":8080", ":", ":x"])
_REST = st.sampled_from(["", "/", "/page/1", "/a?b=1", "/a?b=1&c=2", "?x&y&z",
                         "/p#frag&x", "/p?q=1#f", "/ a", "/é?x=1&y=2"])
_URL = st.one_of(
    st.builds(lambda scheme, host, port, rest: f"{scheme}://{host}{port}{rest}",
              _SCHEME, _HOST, _PORT, _REST),
    st.builds(lambda scheme, rest: f"{scheme}:{rest}", _SCHEME, _REST),
    st.text(max_size=40),
)


def _outcome(answer, url):
    try:
        return answer(url)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _projected(url):
    projector = ColumnProjector()
    tld, domain, scheme, multi = projector._derive_url_meta(url)
    return (
        projector.tlds.values[tld] if tld >= 0 else None,
        projector.domains.values[domain] if domain >= 0 else None,
        projector.schemes.values[scheme],
        bool(multi),
    )


@settings(max_examples=600)
@given(_URL)
def test_one_split_gives_the_per_question_answers(url):
    expected = _outcome(lambda u: (oracle.tld_of(u), oracle.second_level_domain(u)), url)
    assert _outcome(lambda u: (tld_of(u), second_level_domain(u)), url) == expected
    assert _outcome(lambda u: split_domains(urlsplit(u)), url) == expected
    assert _outcome(lambda u: split_domains(split_url(u)), url) == expected
    assert _outcome(_projected, url) == _outcome(oracle.url_meta, url)


def test_named_cases():
    cases = {
        "https://www.bbc.co.uk/news": (".uk", "bbc.co.uk"),
        "http://EXAMPLE.COM:8080/x": (".com", "example.com"),
        "https://co.uk/": (".uk", "co.uk"),
        "https://.co.uk/": (".uk", None),
        "https://a.b.example.com.au/": (".au", "example.com.au"),
        "http://[::1]:80/": (None, None),
        "ftp://example.com/": (None, None),
        "HTTPS://Example.Org/": (".org", "example.org"),
        "https://localhost/": (None, None),
        "not a url": (None, None),
    }
    for url, expected in cases.items():
        assert split_domains(split_url(url)) == expected, url
        assert (oracle.tld_of(url), oracle.second_level_domain(url)) == expected, url
