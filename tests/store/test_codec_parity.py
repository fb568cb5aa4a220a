"""The field-by-field line encoders write the bytes ``JSONEncoder`` wrote.

``repro.store.codecs.encode_*`` build each JSONL line from per-field
escapes instead of encoding a dict; ``tests/oracles/codecs.py`` keeps
the dict form.  Any record, well-typed or not, must give equal lines
(or the same error).
"""

import enum
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.store import codecs
from tests.oracles import codecs as oracle

# Text that exercises every escape: lone surrogates, C0 controls, DEL,
# U+2028/U+2029, quotes and backslashes, non-BMP characters.
_TEXT = st.text(
    st.one_of(
        st.characters(min_codepoint=0, max_codepoint=0x10FFFF),
        st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", " ",
                         " ", '"', "\\", "/", "é", "\U0001f600"]),
    ),
    max_size=20,
)
# What a field may hold if a caller breaks the annotation: the old dict
# encoder accepted all of these, so the new one must write them the same.
_ANY = st.one_of(
    _TEXT,
    st.none(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(), max_size=3),
)
_OPTIONAL_TEXT = st.one_of(st.none(), _TEXT)


def _outcome(encode, record):
    try:
        return encode(record)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__,)


@settings(max_examples=300)
@given(
    st.builds(
        CrawledComment,
        comment_id=st.one_of(_TEXT, _ANY),
        author_id=_TEXT,
        commenturl_id=_TEXT,
        text=st.one_of(_TEXT, _ANY),
        parent_comment_id=_OPTIONAL_TEXT,
        created_at_epoch=_ANY,
        shadow_label=st.one_of(st.none(), st.sampled_from(["nsfw", "offensive"]), _TEXT),
    )
)
def test_encode_comment_matches_dict_encoder(comment):
    assert _outcome(codecs.encode_comment, comment) == _outcome(
        oracle.encode_comment, comment
    )


@settings(max_examples=200)
@given(
    st.builds(
        CrawledUrl,
        commenturl_id=_TEXT,
        url=st.one_of(_TEXT, st.none()),
        title=_TEXT,
        description=_ANY,
        upvotes=_ANY,
        downvotes=st.integers(),
    )
)
def test_encode_url_matches_dict_encoder(url):
    assert _outcome(codecs.encode_url, url) == _outcome(oracle.encode_url, url)


@settings(max_examples=200)
@given(
    st.builds(
        CrawledUser,
        username=_TEXT,
        author_id=st.one_of(_TEXT, st.none()),
        display_name=_TEXT,
        bio=_ANY,
        commented_url_ids=st.lists(_TEXT, max_size=3),
        language=_OPTIONAL_TEXT,
        permissions=st.dictionaries(_TEXT, st.booleans(), max_size=3),
        view_filters=st.dictionaries(_TEXT, _ANY, max_size=3),
    )
)
def test_encode_user_matches_dict_encoder(user):
    assert _outcome(codecs.encode_user, user) == _outcome(oracle.encode_user, user)


class _Str(str):
    pass


class _Flag(enum.IntEnum):
    OFF = 0
    ON = 1


# encode_user writes a list of exact str and a dict of exact str to
# exact bool itself and hands every other shape to the encoder: these
# cover both sides of that test and its edges.
_KEY = st.one_of(
    _TEXT,
    _TEXT.map(_Str),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.tuples(st.integers()),
)
_FLAG = st.one_of(
    st.booleans(),
    st.none(),
    st.integers(min_value=0, max_value=1),
    st.sampled_from(list(_Flag)),
    _TEXT,
    _TEXT.map(_Str),
    st.floats(),
)
_FLAGS = st.one_of(
    st.dictionaries(_TEXT, st.booleans(), max_size=4),
    st.dictionaries(_TEXT, _FLAG, max_size=4),
    st.dictionaries(_KEY, _FLAG, max_size=4),
    st.dictionaries(_TEXT, st.booleans(), max_size=4).map(OrderedDict),
    st.just({}),
)
_URL_IDS = st.one_of(
    st.lists(_TEXT, max_size=4),
    st.lists(_TEXT, max_size=4).map(tuple),
    st.lists(st.one_of(_TEXT, _TEXT.map(_Str), st.integers(), st.none(),
                       st.booleans()), max_size=4),
    st.just([]),
    st.just(()),
)


@settings(max_examples=400)
@given(
    st.builds(
        CrawledUser,
        username=_TEXT,
        author_id=_TEXT,
        commented_url_ids=_URL_IDS,
        language=_OPTIONAL_TEXT,
        permissions=_FLAGS,
        view_filters=_FLAGS,
    )
)
def test_encode_user_container_shapes_match_dict_encoder(user):
    assert _outcome(codecs.encode_user, user) == _outcome(oracle.encode_user, user)


def test_encode_user_container_edges():
    cases = [
        ([], {}, {}),
        ((), {}, {}),
        (["é\ud800", "\x00"], {"é": True, "\u2028": False}, {"a": False}),
        ([_Str("a"), 1, None], {1: True, None: False}, {True: True}),
        (["a"], {"pro": 1}, {"nsfw": _Flag.ON}),
        (["a"], {"vote": True, "pro": None}, {"nsfw": False, "x": "y"}),
        (["a"], {"vote": True, "pro": 0.5}, {"nsfw": True, "off": 0}),
        (["a"], {_Str("k"): True}, OrderedDict(z=True, a=False)),
    ]
    for ids, permissions, filters in cases:
        user = CrawledUser("u", "a", commented_url_ids=ids,
                           permissions=permissions, view_filters=filters)
        assert codecs.encode_user(user) == oracle.encode_user(user), (ids, permissions)


def test_encoded_lines_decode_back():
    comment = CrawledComment("c" * 24, "a" * 24, "u" * 24, "\ud800   \x00 é",
                             None, 10**30, "nsfw")
    kind, decoded = codecs.decode_line(codecs.encode_comment(comment))
    assert kind == "comment" and decoded == comment


def test_integer_past_the_digit_limit_fails_alike():
    comment = CrawledComment("c", "a", "u", "t", None, 10**5000, None)
    assert _outcome(codecs.encode_comment, comment) == ("ValueError",)
    assert _outcome(oracle.encode_comment, comment) == ("ValueError",)
