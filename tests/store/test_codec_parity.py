"""The field-by-field line encoders write the bytes ``JSONEncoder`` wrote.

``repro.store.codecs.encode_*`` build each JSONL line from per-field
escapes instead of encoding a dict; ``tests/oracles/codecs.py`` keeps
the dict form.  Any record, well-typed or not, must give equal lines
(or the same error).
"""

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


def test_encoded_lines_decode_back():
    comment = CrawledComment("c" * 24, "a" * 24, "u" * 24, "\ud800   \x00 é",
                             None, 10**30, "nsfw")
    kind, decoded = codecs.decode_line(codecs.encode_comment(comment))
    assert kind == "comment" and decoded == comment


def test_integer_past_the_digit_limit_fails_alike():
    comment = CrawledComment("c", "a", "u", "t", None, 10**5000, None)
    assert _outcome(codecs.encode_comment, comment) == ("ValueError",)
    assert _outcome(oracle.encode_comment, comment) == ("ValueError",)
