"""Every serve response, byte for byte: one digest over a fixed request list.

The request list walks every route of :class:`~repro.serve.api.ServeApp`
twice (a cold cache, then a warm one) over the synthetic store plus a few
threads whose texts hold quotes, backslashes, control characters,
non-ASCII and lone surrogates, and one thread past the page cap.  It
covers 404s (unknown ids, unknown routes, a POST), the missing-parameter
and unknown-attribute 400s, the no-score-store and no-diffusion 503s,
throttled 429s, ``/api/status`` before and after, a reordered query and a
bare trailing ``?``.  The sha256 over (status, header items, body) of
every response is pinned: a faster request path must serve the same
bytes, the same ``X-Cache`` dispositions and the same ``Retry-After``
values.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import ScoreStore
from repro.crawler.records import CrawledComment, CrawledUrl
from repro.net.http import Request, Response
from repro.perspective.models import PerspectiveModels
from repro.serve import ServeApp
from repro.serve.api import thread_json
from repro.store import CorpusStore

from tests.oracles.serve import thread_payload
from tests.serve.conftest import build_synthetic_store, get, mount

BASE = f"https://{ServeApp.HOST}"

#: sha256 over every response of ``_responses()`` (see ``_digest``).
GOLDEN = "9712e0c2ff6a045f468684d33f0d18001ff4be15882054d800931796e9798928"

ODD_TEXTS = (
    'she said "no" and left',
    "back\\slash \\n not a newline",
    "ctl \x00\x01\x08\x0b\x0c\x1f\x7f \t\n\r end",
    "café naïve Ünïcödé 日本語    \U0001f600",
    "lone \ud800 high and \udfff low",
    "\ud83d\ude00 a surrogate pair written as two escapes",
    "",
    "/slashes/ & <html> 'single'",
)

#: Comments on the long thread: more than ``THREAD_PAGE_SIZE``.
LONG_THREAD = 130

DIFFUSION = {"seeds": 3, "reached": [4, 9, 16], "share": 0.125, "label": "é"}


def build_byte_gate_store(odd_texts: bool = False) -> CorpusStore:
    """The synthetic store's records plus a long and an empty thread.

    ``odd_texts`` adds the odd-text thread.  The Perspective models hash
    texts as UTF-8, which a lone surrogate cannot be, so a store that
    holds them is served without a score store.
    """
    synthetic = build_synthetic_store()
    store = CorpusStore(segment_records=128)
    for user in synthetic.users.values():
        store.add_user(user)
    for url in synthetic.urls.values():
        store.add_url(url)
    for comment in synthetic.comments.values():
        store.add_comment(comment)
    store.add_url(CrawledUrl(
        commenturl_id="0101feed",
        url="https://long.example/thread",
        title="Long thread",
        description="",
        upvotes=0,
        downvotes=3,
    ))
    for n in range(LONG_THREAD):
        store.add_comment(CrawledComment(
            comment_id=f"{n:05x}10ad",
            author_id=f"{n % 17:04x}beef",
            commenturl_id="0101feed",
            text=f"long thread comment {n}",
            parent_comment_id=None,
            created_at_epoch=1_570_000_000 - n,
            shadow_label=None,
        ))
    # A URL nobody commented on: an empty thread and an empty summary.
    store.add_url(CrawledUrl(
        commenturl_id="0102feed",
        url="https://empty.example/",
        title="",
        description="",
        upvotes=0,
        downvotes=0,
    ))
    if odd_texts:
        store.add_url(CrawledUrl(
            commenturl_id="0100feed",
            url="https://odd.example/päge?q=\"x\"",
            title='Odd "title" \\ ünï \ud83d',
            description="",
            upvotes=7,
            downvotes=0,
        ))
        for n, text in enumerate(ODD_TEXTS):
            store.add_comment(CrawledComment(
                comment_id=f"{n:05x}0dd",
                author_id=f"{n % 5:04x}beef",
                commenturl_id="0100feed",
                text=text,
                parent_comment_id=("" if n % 3 == 0 else
                                   f"{n - 1:05x}0dd" if n % 3 == 1 else None),
                created_at_epoch=1_560_000_000 + n,
                shadow_label=None,
            ))
    return store.seal()


@pytest.fixture(scope="module")
def gate():
    """The byte-gate store and a score store primed over its texts."""
    store = build_byte_gate_store()
    scores = ScoreStore(PerspectiveModels())
    scores.prime(store.texts())
    return store, scores


@pytest.fixture(scope="module")
def odd_store():
    return build_byte_gate_store(odd_texts=True)


def _paths(store: CorpusStore) -> list[str]:
    """The fixed request list (paths relative to the serve host)."""
    paths = ["/api/status"]
    paths += [f"/api/thread/{cid}" for cid in store.urls]
    paths += [
        "/api/thread/nope",
        "/api/thread/0001feed?",
        "/api/thread/0001feed?a=1&b=2",
        "/api/thread/0001feed?b=2&a=1",
        "/api/thread/0001feed?a=1&b=3",
        "/api/thread/0001feed?a=1&a=2",
        "/api/thread/0001feed?a=2",
        "/api/thread/",
        "/api/url?url=https%3A%2F%2Fexample-3.com%2Fpage",
        "/api/url?url=https%3A%2F%2Fnowhere.example%2F",
        "/api/url",
        "/api/url?",
        "/api/url?url=",
        "/api/url?url=nope&url=https%3A%2F%2Fexample-4.com%2Fpage",
    ]
    paths += [f"/api/user/{name}" for name in store.users]
    paths += ["/api/user/ghost", "/api/user/user%2D001"]
    paths += [f"/api/summary/url/{cid}" for cid in list(store.urls)[:6]]
    paths += [
        "/api/summary/url/0101feed?attribute=TOXICITY",
        "/api/summary/url/0102feed",
        "/api/summary/url/nope",
        "/api/summary/url/0003feed?attribute=OBSCENE",
        "/api/summary/url/0003feed?attribute=BOGUS",
        "/api/summary/url/0003feed?attribute=",
    ]
    paths += [f"/api/summary/user/{name}" for name in list(store.users)[:6]]
    paths += [
        "/api/summary/user/ghost",
        "/api/summary/user/user-004?attribute=ATTACK_ON_AUTHOR",
        "/api/summary/user/user-004?x=1&attribute=ATTACK_ON_AUTHOR",
        "/api/summary/user/user-004?attribute=ATTACK_ON_AUTHOR&x=1",
        "/api/summary/user/user-001?attribute=BOGUS",
        "/api/core",
        "/api/core/user-001",
        "/api/core/user-002",
        "/api/core/ghost",
        "/api/diffusion/summary",
        "/api/missing",
        "/api/status?verbose=1",
        "/",
    ]
    return paths


def _responses(
    store: CorpusStore, scores, odd: CorpusStore
) -> list[tuple[str, Response]]:
    """Every response to the request list, in order, from fresh apps."""
    out: list[tuple[str, Response]] = []
    paths = _paths(store)

    _, transport, _ = mount(store, scores, diffusion=DIFFUSION)
    # One client id per request keeps these under the default limiter;
    # the tight app below is the one that throttles.
    for _ in range(2):   # cold, then warm
        for path in paths:
            response = get(transport, f"{BASE}{path}", client=f"c{len(out)}")
            out.append((path, response))
    post = Request(method="POST", url=f"{BASE}/api/core")
    post.headers.set("X-Client-Id", "test")
    out.append(("POST /api/core", transport.send(post)))
    anonymous = Request(method="GET", url=f"{BASE}/api/core")
    out.append(("anonymous /api/core", transport.send(anonymous)))
    out.append(("/api/status", get(transport, f"{BASE}/api/status")))

    _, bare, _ = mount(odd, score_store=None)
    for path in _paths(odd) + [
        "/api/thread/0100feed",
        "/api/url?url=https%3A%2F%2Fodd.example%2Fp%C3%A4ge%3Fq%3D%22x%22",
    ]:
        out.append((path, get(bare, f"{BASE}{path}", client=f"c{len(out)}")))

    _, tight, _ = mount(store, scores, rate=2.0, capacity=3.0)
    for n in range(8):
        path = f"/api/thread/{n % 3:04x}feed"
        out.append((path, get(tight, f"{BASE}{path}", client="hammer")))
    out.append(("/api/status", get(tight, f"{BASE}/api/status")))
    return out


def _digest(responses: list[tuple[str, Response]]) -> str:
    """sha256 over each response's status, header items and body."""
    digest = hashlib.sha256()
    for _, response in responses:
        head = [str(response.status)]
        head += [f"{name}: {value}" for name, value in response.headers]
        frame = "\n".join(head).encode("utf-8")
        digest.update(len(frame).to_bytes(4, "big") + frame)
        digest.update(len(response.body).to_bytes(4, "big") + response.body)
    return digest.hexdigest()


def test_every_response_matches_pinned_digest(gate, odd_store):
    responses = _responses(*gate, odd_store)
    statuses = {response.status for _, response in responses}
    assert statuses == {200, 400, 404, 429, 503}
    assert _digest(responses) == GOLDEN


def test_thread_bodies_equal_the_oracle_payload(odd_store):
    store = odd_store
    _, transport, _ = mount(store)
    by_url = store.comments_by_url()
    for cid, url in store.urls.items():
        response = get(transport, f"{BASE}/api/thread/{cid}")
        payload = thread_payload(cid, url, by_url.get(cid, []),
                                 ServeApp.THREAD_PAGE_SIZE)
        assert response.body == json.dumps(payload).encode("utf-8")
    long_thread = json.loads(get(transport, f"{BASE}/api/thread/0101feed").body)
    assert len(long_thread["comments"]) == ServeApp.THREAD_PAGE_SIZE
    assert long_thread["total_comments"] == LONG_THREAD
    odd = json.loads(get(transport, f"{BASE}/api/thread/0100feed").body)
    assert [c["text"] for c in odd["comments"]] == [
        json.loads(json.dumps(text)) for text in ODD_TEXTS
    ]


class TestQueryKey:
    def test_reordered_query_shares_one_cache_entry(
        self, synthetic_store, synthetic_scores
    ):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        path = f"{BASE}/api/summary/user/user-004"
        first = get(transport, f"{path}?x=1&attribute=OBSCENE")
        second = get(transport, f"{path}?attribute=OBSCENE&x=1")
        assert first.headers.get("X-Cache") == "MISS"
        assert second.headers.get("X-Cache") == "HIT"
        assert first.body == second.body
        assert len(app.cache) == 1

    def test_different_query_gets_its_own_entry(
        self, synthetic_store, synthetic_scores
    ):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        path = f"{BASE}/api/summary/user/user-004"
        get(transport, f"{path}?x=1&attribute=OBSCENE")
        other = get(transport, f"{path}?x=2&attribute=OBSCENE")
        assert other.headers.get("X-Cache") == "MISS"
        assert len(app.cache) == 2

    def test_bare_question_mark_is_the_query_free_key(
        self, synthetic_store, synthetic_scores
    ):
        _, transport, app = mount(synthetic_store, synthetic_scores)
        get(transport, f"{BASE}/api/thread/0001feed")
        bare = get(transport, f"{BASE}/api/thread/0001feed?")
        assert bare.headers.get("X-Cache") == "HIT"
        assert len(app.cache) == 1


# Text that exercises every escape: lone surrogates, C0 controls, DEL,
# U+2028/U+2029, quotes and backslashes, non-BMP characters.
_TEXT = st.text(
    st.one_of(
        st.characters(min_codepoint=0, max_codepoint=0x10FFFF),
        st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", "\u2028",
                         "\u2029", '"', "\\", "/", "é", "\U0001f600"]),
    ),
    max_size=20,
)


class _Label(str):
    """A ``str`` subclass: not an exact ``str``, so never on the fast path."""


class _Count(int):
    """An ``int`` subclass, likewise."""


# What a field may hold if a caller breaks the annotation: the dict
# payload encoded (or refused) any of these, and the direct writer must
# write the same text (or raise the same error).
_ANY = st.one_of(
    _TEXT,
    _TEXT.map(_Label),
    st.none(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.integers().map(_Count),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(_TEXT, st.integers(), max_size=2),
    st.just(b"bytes"),   # not JSON: both must raise the same error
)
_COMMENTS = st.lists(
    st.builds(
        CrawledComment,
        comment_id=st.one_of(_TEXT, _ANY),
        author_id=st.one_of(_TEXT, _ANY),
        commenturl_id=_TEXT,
        text=st.one_of(_TEXT, _ANY),
        parent_comment_id=st.one_of(st.none(), _TEXT, st.integers()),
        created_at_epoch=st.one_of(st.integers(), _ANY),
        shadow_label=st.none(),
    ),
    max_size=8,
)


def _outcome(encode, *args):
    try:
        return encode(*args)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__,)


@settings(max_examples=300)
@given(
    commenturl_id=_TEXT,
    url=st.builds(CrawledUrl, commenturl_id=_TEXT, url=st.one_of(_TEXT, _ANY),
                  title=st.one_of(_TEXT, _ANY), description=_TEXT,
                  upvotes=_ANY, downvotes=st.one_of(st.integers(), _ANY)),
    comments=_COMMENTS,
    page_size=st.integers(min_value=0, max_value=10),
)
def test_thread_json_matches_the_dict_payload(
    commenturl_id, url, comments, page_size
):
    assert _outcome(
        thread_json, commenturl_id, url, comments, page_size
    ) == _outcome(
        lambda *args: json.dumps(thread_payload(*args)),
        commenturl_id, url, comments, page_size,
    )
