"""The unrolled close-tag patterns match what the lazy ones match.

``repro.crawler.parsing`` reads a title, a description, a display name,
a bio and each comment text up to its close tag with an unrolled group
(``[^<]*(?:<(?!/p>)[^<]*)*`` before ``</p>``) instead of DOTALL
``(.*?)</p>``.  On arbitrary text around the opening prefix (``<``,
``</``, cut-short and nested close tags, missing closers, newlines,
non-ASCII) ``search`` and ``finditer`` must return the same spans and
groups as the lazy originals in ``tests/oracles/page_patterns.py``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crawler import parsing
from tests.oracles.page_patterns import PAGE_PATTERNS, USER_PAGE_PATTERNS

HEX = "0123456789abcdef" * 2
COMMENT_HEAD = (
    f'<div class="comment" data-comment-id="{HEX[:24]}" '
    f'data-author-id="{HEX[4:28]}" data-parent-id="" '
    'data-created="155">\n<p class="comment-text">'
)
# Text near a close tag: the tags whole, cut short, doubled or nested,
# other tags, newlines and non-ASCII.
NEAR_CLOSERS = [
    "<", "</", "</p", "</p>", "</h", "</h1", "</h1>", "</p >", "</h1 x",
    "<</p>", "<</h1>", "<//p>", "</</p>>", "<p>", "</h2>", "</span>",
    "p>", "/p>", "h1>", ">", "/", "\n", "\r\n", " ", "x", "é", "日本",
    "\u2028", "\u00a0", "&amp;",
]


def _texts(prefix):
    """Arbitrary text, mostly opening with ``prefix`` after a short lead."""
    piece = st.one_of(
        st.sampled_from([prefix, *NEAR_CLOSERS]),
        st.text(max_size=6),
    )
    return st.tuples(
        st.text(max_size=4), st.booleans(), st.lists(piece, max_size=24)
    ).map(lambda t: t[0] + (prefix if t[1] else "") + "".join(t[2]))


def _signature(match):
    return None if match is None else (match.span(), match.groups())


def _assert_same(name, lazy, body):
    unrolled = getattr(parsing, name)
    assert _signature(unrolled.search(body)) == _signature(lazy.search(body))
    assert [_signature(m) for m in unrolled.finditer(body)] == [
        _signature(m) for m in lazy.finditer(body)
    ]
    # The compiled regex on its own, without the prefix seek.
    assert _signature(unrolled.regex.search(body)) == _signature(lazy.search(body))


@settings(max_examples=300)
@given(_texts(COMMENT_HEAD))
@example(COMMENT_HEAD + "a</p x</p>")
def test_comment_re(body):
    _assert_same("_COMMENT_RE", PAGE_PATTERNS["_COMMENT_RE"], body)


@settings(max_examples=300)
@given(_texts('<h1 class="page-title">'))
@example('<h1 class="page-title">' + "a</h1 x</h1>")
def test_title_re(body):
    _assert_same("_TITLE_RE", PAGE_PATTERNS["_TITLE_RE"], body)


@settings(max_examples=300)
@given(_texts('<p class="page-description">'))
@example('<p class="page-description">' + "a</p x</p>")
def test_description_re(body):
    _assert_same("_DESCRIPTION_RE", PAGE_PATTERNS["_DESCRIPTION_RE"], body)


@settings(max_examples=300)
@given(_texts('<h1 class="display-name">'))
@example('<h1 class="display-name">' + "a</h1 x</h1>")
def test_display_name_re(body):
    _assert_same("_DISPLAY_NAME_RE", USER_PAGE_PATTERNS["_DISPLAY_NAME_RE"], body)


@settings(max_examples=300)
@given(_texts('<p class="bio">'))
@example('<p class="bio">' + "a</p x</p>")
def test_bio_re(body):
    _assert_same("_BIO_RE", USER_PAGE_PATTERNS["_BIO_RE"], body)


def test_a_long_text_run_with_stray_tags():
    # A 135,000-character comment with a "<" every 100 characters, as
    # the planted mega-comment's length, and no closer until the end.
    text = ("y" * 99 + "<") * 1350
    body = COMMENT_HEAD + text + "</p>" + COMMENT_HEAD + "tail"
    _assert_same("_COMMENT_RE", PAGE_PATTERNS["_COMMENT_RE"], body)
    assert parsing._COMMENT_RE.search(body).group(5) == text
