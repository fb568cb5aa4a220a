"""The discussion-page seek finds what ``regex.search`` finds.

``repro.crawler.parsing`` locates its URL-level fields and comment
blocks by their literal prefixes (a one-character find for the first
``"``, then ``str.find`` and ``regex.match``) instead of letting the
regex engine walk the page's style block.  On any page, including pages
where a prefix first appears without a match, the result must equal the
original patterns' ``search``/``finditer``
(``tests/oracles/page_patterns.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler import parsing
from tests.oracles.page_patterns import PAGE_PATTERNS

HEX = "0123456789abcdef" * 2
COMMENT = (
    f'<div class="comment" data-comment-id="{HEX[:24]}" '
    f'data-author-id="{HEX[4:28]}" data-parent-id="" '
    'data-created="155">\n<p class="comment-text">hi "there"</p>'
)
# Page fragments: whole fields, prefixes cut short or followed by text
# the rest of the pattern rejects, the closers, and filler with and
# without quotes.
FRAGMENTS = [
    '<h1 class="page-title">T</h1>',
    '<h1 class="page-title">',
    "</h1>",
    '<p class="page-description">D</p>',
    '<p class="page-description">',
    "</p>",
    f'<meta name="commenturl-id" content="{HEX[:24]}">',
    '<meta name="commenturl-id" content="XYZ">',
    f'<meta name="commenturl-id" content="{HEX[:23]}">',
    '<meta name="target-url" content="https://e.com/?a=1">',
    '<meta name="target-url" content="unterminated\n',
    '<span class="votes" data-up="3" data-down="4">',
    '<span class="votes" data-up="x" data-down="4">',
    '<span class="votes" data-up="',
    COMMENT,
    COMMENT[:60],
    COMMENT.replace("155", "x"),
    '<div class="comment" data-comment-id="',
    '"', '="', "<", ">", "\n", " ",
    ".c0001 { margin: 1px; padding: 1px; color: #0a0b0c; }\n",
    "<style>", "</style>", "é",
]


def _signature(match):
    return None if match is None else (match.span(), match.groups())


@settings(max_examples=400)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14))
def test_seek_equals_regex_search(pieces):
    body = "".join(pieces)
    for name, original in PAGE_PATTERNS.items():
        seek = getattr(parsing, name)
        assert _signature(seek.search(body)) == _signature(original.search(body))
        assert [_signature(m) for m in seek.finditer(body)] == [
            _signature(m) for m in original.finditer(body)
        ]


@given(st.text(max_size=60))
def test_seek_equals_regex_search_on_any_text(body):
    for name, original in PAGE_PATTERNS.items():
        seek = getattr(parsing, name)
        assert _signature(seek.search(body)) == _signature(original.search(body))


@pytest.mark.parametrize("name", sorted(PAGE_PATTERNS))
def test_prefix_first_seen_without_a_match(name):
    # Each field's prefix appears first cut short, before a quote-free
    # filler, then again in a form its pattern rejects, then for real.
    # (Title and description are DOTALL up to a closer: their first
    # prefix matches through to the later closer, as search() does.)
    good = {
        "_TITLE_RE": '<h1 class="page-title">T</h1>',
        "_DESCRIPTION_RE": '<p class="page-description">D</p>',
        "_COMMENTURL_ID_RE": f'<meta name="commenturl-id" content="{HEX[:24]}">',
        "_TARGET_URL_RE": '<meta name="target-url" content="u">',
        "_VOTES_RE": '<span class="votes" data-up="3" data-down="4">',
        "_COMMENT_RE": COMMENT,
    }[name]
    prefix = getattr(parsing, name).prefix
    filler = ".c0001 { margin: 1px; }\n" * 50
    body = prefix + "\n" + filler + prefix + "!" + good + good
    original = PAGE_PATTERNS[name]
    seek = getattr(parsing, name)
    assert original.search(body) is not None
    assert _signature(seek.search(body)) == _signature(original.search(body))
    assert [_signature(m) for m in seek.finditer(body)] == [
        _signature(m) for m in original.finditer(body)
    ]
