"""The home-page seek parses what the plain regexes parse.

``parse_user_page`` finds its five fields by literal prefix
(``_PrefixedPattern``: a one-character find for the first ``"``, then
``str.find`` and ``regex.match``), which skips the page's quote-free
style block.  On rendered home pages and on seeded mutations of them —
fields cut, duplicated or moved, prefixes without a match — every
pattern's ``search``/``finditer`` and the parsed user must equal the
plain regexes' (``tests/oracles/page_patterns.py``).
"""

import numpy as np
import pytest

from repro.crawler import parsing
from repro.net import HttpClient
from tests.oracles import page_patterns

PAGES = 60
MUTANTS_PER_PAGE = 20

# Text a mutation may insert: prefixes alone or cut short, closers,
# quotes and quote-free style filler.
INSERTS = [
    *(getattr(parsing, name).prefix for name in page_patterns.USER_PAGE_PATTERNS),
    '<meta name="author-id" content="XYZ">',
    '<li class="commented-url"><a href="/discussion/',
    '<span class="username">', "</span>", "</h1>", "</p>", '">', '"',
    "\n", "é", ".c0001 { margin: 1px; padding: 1px; color: #0a0b0c; }\n",
]


@pytest.fixture(scope="module")
def home_pages(small_world, small_origins):
    client = HttpClient(small_origins.transport)
    users = small_world.dissenter.users[:PAGES]
    pages = []
    for user in users:
        response = client.get(f"https://dissenter.com/user/{user.username}")
        assert response.status == 200
        pages.append(response.text)
    return pages


def _signature(match):
    return None if match is None else (match.span(), match.groups())


def _assert_parity(body: str) -> None:
    for name, original in page_patterns.USER_PAGE_PATTERNS.items():
        seek = getattr(parsing, name)
        assert _signature(seek.search(body)) == _signature(original.search(body))
        assert [_signature(m) for m in seek.finditer(body)] == [
            _signature(m) for m in original.finditer(body)
        ]
    assert parsing.parse_user_page(body) == page_patterns.parse_user_page(body)


def _mutate(body: str, rng: np.random.Generator) -> str:
    for _ in range(int(rng.integers(1, 5))):
        a, b = sorted(int(i) for i in rng.integers(0, len(body) + 1, size=2))
        kind = int(rng.integers(0, 4))
        if kind == 0:       # cut a span
            body = body[:a] + body[b:]
        elif kind == 1:     # duplicate a span
            body = body[:b] + body[a:b] + body[b:]
        elif kind == 2:     # insert a fragment
            body = body[:a] + INSERTS[int(rng.integers(0, len(INSERTS)))] + body[a:]
        else:               # move a span to the front
            body = body[a:b] + body[:a] + body[b:]
    return body


def test_rendered_home_pages_parse_like_the_plain_regexes(home_pages):
    with_urls = 0
    for body in home_pages:
        user = parsing.parse_user_page(body)
        assert user is not None
        with_urls += bool(user.commented_url_ids)
        _assert_parity(body)
    assert with_urls > 0


def test_mutated_home_pages_parse_like_the_plain_regexes(home_pages):
    rng = np.random.default_rng(24)
    for body in home_pages:
        for _ in range(MUTANTS_PER_PAGE):
            _assert_parity(_mutate(body, rng))


def test_pages_without_fields_parse_to_none():
    for body in ("", '"', "<style>x</style>", '<span class="username">@a</span>'):
        assert parsing.parse_user_page(body) is None
        assert page_patterns.parse_user_page(body) is None
