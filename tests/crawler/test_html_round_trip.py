"""HTML round-trip fuzzing between the Dissenter origin and the parser.

Whatever bytes a user put in a comment or bio, the origin must escape
them into valid HTML and the crawler's parser must recover them exactly.
A mismatch would silently corrupt the toxicity analyses downstream.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crawler.parsing import parse_comment_page, parse_user_page
from repro.net import HttpClient, LoopbackTransport, VirtualClock
from repro.platform.apps.dissenter_app import DissenterApp
from repro.platform.dissenter import DissenterState
from repro.platform.entities import Comment, CommentUrl, DissenterUser
from repro.platform.ids import ObjectIdFactory
from repro.platform.urlgen import UrlUniverse


def _single_comment_state(text: str, bio: str) -> DissenterState:
    """A minimal hand-built world: one user, one URL, one comment."""
    ids = ObjectIdFactory(seed=1)
    user = DissenterUser(
        author_id=ids.mint(1_552_000_000),
        gab_id=10,
        username="fuzzuser",
        display_name="Fuzz User",
        created_at=1_552_000_000.0,
        bio=bio,
        flags={"canPost": True},
        view_filters={"nsfw": False},
    )
    url = CommentUrl(
        commenturl_id=ids.mint(1_552_000_100),
        url="https://example.com/article",
        title="A title", description="A description",
        category="news", bias="not-ranked",
        first_seen=1_552_000_100.0, upvotes=1, downvotes=2,
    )
    comment = Comment(
        comment_id=ids.mint(1_552_000_200),
        author_id=user.author_id,
        commenturl_id=url.commenturl_id,
        created_at=1_552_000_200.0,
        text=text,
    )
    universe = UrlUniverse(
        urls=[url],
        weights=np.asarray([1.0]),
        language_hints={},
        protocol_duplicate_pairs=0,
        trailing_slash_duplicate_pairs=0,
    )
    return DissenterState(users=[user], comments=[comment], urls=universe)


def _serve(state: DissenterState) -> HttpClient:
    clock = VirtualClock()
    transport = LoopbackTransport(clock=clock)
    transport.register(DissenterApp(state, clock))
    return HttpClient(transport)


# Text that survives HTML round-trip: any printable content.  Leading and
# trailing whitespace is normalised by HTML rendering, so the strategy
# strips it; interior runs of whitespace collapse is NOT performed by the
# origin (it escapes, it does not prettify), so interior content is free.
_comment_text = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),   # no surrogates/control chars
    ),
    min_size=1,
    max_size=300,
).map(str.strip).filter(bool)


class TestHtmlRoundTripFuzz:
    @settings(max_examples=40, deadline=None)
    @given(text=_comment_text)
    def test_comment_text_round_trips(self, text):
        state = _single_comment_state(text=text, bio="plain bio")
        client = _serve(state)
        cid = state.urls.urls[0].commenturl_id.hex
        response = client.get(f"https://dissenter.com/discussion/{cid}")
        _url, comments = parse_comment_page(response.text)
        assert len(comments) == 1
        assert comments[0].text == text

    @settings(max_examples=25, deadline=None)
    @given(bio=_comment_text)
    def test_bio_round_trips(self, bio):
        state = _single_comment_state(text="hello", bio=bio)
        client = _serve(state)
        response = client.get("https://dissenter.com/user/fuzzuser")
        user = parse_user_page(response.text)
        assert user is not None
        assert user.bio == bio

    def test_html_injection_neutralised(self):
        hostile = '<script>alert(1)</script> <div class="comment">fake</div>'
        state = _single_comment_state(text=hostile, bio="x")
        client = _serve(state)
        cid = state.urls.urls[0].commenturl_id.hex
        body = client.get(f"https://dissenter.com/discussion/{cid}").text
        # The raw tags never appear unescaped...
        assert "<script>alert(1)</script>" not in body
        # ...and the parser recovers exactly one comment with the original
        # text intact.
        _url, comments = parse_comment_page(body)
        assert len(comments) == 1
        assert comments[0].text == hostile
