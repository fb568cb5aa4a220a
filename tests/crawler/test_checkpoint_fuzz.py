"""Property-based round-trip fuzzing of the crawl checkpoint format."""

from hypothesis import given, settings, strategies as st

from repro.crawler.checkpoint import dumps_result, loads_result
from repro.crawler.records import (
    CrawledComment,
    CrawledUrl,
    CrawledUser,
)
from repro.store import CorpusStore

_hex24 = st.integers(0, 2**96 - 1).map(lambda n: f"{n:024x}")
_text = st.text(max_size=120)


@st.composite
def crawl_results(draw) -> CorpusStore:
    result = CorpusStore()
    n_users = draw(st.integers(0, 4))
    author_ids = []
    for i in range(n_users):
        author_id = draw(_hex24)
        author_ids.append(author_id)
        user = CrawledUser(
            username=f"user{i}_{draw(st.integers(0, 999))}",
            author_id=author_id,
            display_name=draw(_text),
            bio=draw(_text),
            commented_url_ids=draw(st.lists(_hex24, max_size=3)),
            language=draw(st.sampled_from([None, "en", "de"])),
            permissions={"canPost": draw(st.booleans())},
            view_filters={"nsfw": draw(st.booleans())},
        )
        result.add_user(user)
    n_urls = draw(st.integers(0, 3))
    url_ids = []
    for _ in range(n_urls):
        url_id = draw(_hex24)
        url_ids.append(url_id)
        result.add_url(CrawledUrl(
            commenturl_id=url_id,
            url=draw(_text),
            title=draw(_text),
            description=draw(_text),
            upvotes=draw(st.integers(0, 1000)),
            downvotes=draw(st.integers(0, 1000)),
        ))
    if author_ids and url_ids:
        for _ in range(draw(st.integers(0, 5))):
            comment_id = draw(_hex24)
            result.add_comment(CrawledComment(
                comment_id=comment_id,
                author_id=draw(st.sampled_from(author_ids)),
                commenturl_id=draw(st.sampled_from(url_ids)),
                text=draw(_text),
                parent_comment_id=draw(st.sampled_from([None] + [comment_id])),
                created_at_epoch=draw(st.integers(0, 2**31)),
                shadow_label=draw(
                    st.sampled_from([None, "nsfw", "offensive"])
                ),
            ))
    return result


class TestCheckpointFuzz:
    @settings(max_examples=60, deadline=None)
    @given(result=crawl_results())
    def test_round_trip_lossless(self, result):
        restored = loads_result(dumps_result(result))
        assert restored.users == result.users
        assert restored.urls == result.urls
        assert restored.comments == result.comments

    @settings(max_examples=30, deadline=None)
    @given(result=crawl_results())
    def test_double_round_trip_stable(self, result):
        once = dumps_result(result)
        twice = dumps_result(loads_result(once))
        assert once == twice
