"""The crawl-wide discussion-page parse memo (§3 crawl, DESIGN §8).

``stage_crawl`` shares one memo between the baseline comment-page
phase, the re-request loop and both shadow passes, so each distinct 200
discussion body is parsed once per crawl.  The memo is keyed by the
body's length and SHA-256 digest and holds no body, and it has no size
bound: a crawl that cycles through more pages than any fixed table
would hold still parses each page once.  The memo must be invisible in
the output: the dump, the spilled segments and the manifest match a
crawl whose memo never hits, at any connection count.
"""

import dataclasses

import pytest

import repro.core.pipeline as pipeline_mod
import repro.crawler.parsing as parsing
from repro.core.pipeline import ReproductionPipeline
from repro.crawler.checkpoint import dumps_result
from repro.crawler.parsing import PageParseMemo
from repro.crawler.shadow import ShadowCrawler
from repro.net import HttpClient
from repro.net.http import Response
from repro.net.transport import LoopbackTransport
from repro.platform.apps import build_origins
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from tests.oracles.parse_memo import NeverHitParseMemo

# Seed 0 at scale 0.002: the baseline fetches 1,068 discussion pages and
# each shadow pass fetches them again; 129 of those re-fetches carry
# hidden comments, so their bodies are new.
DISTINCT_200_BODIES = 1197
ALL_200_FETCHES = 3 * 1068


@pytest.fixture(scope="module")
def world_0002():
    config = WorldConfig(scale=0.002, seed=0)
    return config, build_world(config)


def _crawl(world_0002, tmp_path, monkeypatch, memo_cls=PageParseMemo,
           connections=1):
    """One spilled stage_crawl; returns its bytes and what it observed."""
    config, world = world_0002
    monkeypatch.setattr(pipeline_mod, "PageParseMemo", memo_cls)

    parsed: list[str] = []
    real_parse = parsing.parse_comment_page

    def counted_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(parsing, "parse_comment_page", counted_parse)

    bodies: set[bytes] = set()
    real_send = LoopbackTransport.send

    def recording_send(transport, request, *args, **kwargs):
        response = real_send(transport, request, *args, **kwargs)
        if request.path.startswith("/discussion/") and response.status == 200:
            bodies.add(response.body)
        return response

    monkeypatch.setattr(LoopbackTransport, "send", recording_send)

    baselines: list[set[str]] = []
    real_uncover = ShadowCrawler.uncover

    def watched_uncover(crawler, result, *args, **kwargs):
        baselines.append(set(result.comments))
        return real_uncover(crawler, result, *args, **kwargs)

    monkeypatch.setattr(ShadowCrawler, "uncover", watched_uncover)

    store_dir = tmp_path / f"{memo_cls.__name__}-{connections}"
    pipeline = ReproductionPipeline(
        config, world=world, connections=connections,
        store_dir=str(store_dir), segment_records=256,
    )
    artifacts = pipeline.stage_crawl()
    monkeypatch.undo()
    files = {
        path.relative_to(store_dir): path.read_bytes()
        for path in sorted(store_dir.rglob("*"))
        if path.is_file()
    }
    return {
        "dump": dumps_result(artifacts.corpus),
        "files": files,
        "parsed": parsed,
        "bodies": bodies,
        "baseline": baselines[0],
        "corpus": artifacts.corpus,
        "memo": artifacts.shadow_crawler.parse_memo,
    }


@pytest.fixture(scope="module")
def memo_run(world_0002, tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _crawl(world_0002, tmp_path_factory.mktemp("memo"), monkeypatch)


@pytest.fixture(scope="module")
def oracle_run(world_0002, tmp_path_factory):
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _crawl(
            world_0002, tmp_path_factory.mktemp("oracle"), monkeypatch,
            memo_cls=NeverHitParseMemo,
        )


def test_each_distinct_200_body_is_parsed_once(memo_run, oracle_run):
    assert len(memo_run["bodies"]) == DISTINCT_200_BODIES
    assert len(memo_run["parsed"]) == DISTINCT_200_BODIES
    assert len(set(memo_run["parsed"])) == DISTINCT_200_BODIES
    # The oracle parses every 200 fetch.
    assert len(oracle_run["parsed"]) == ALL_200_FETCHES


def test_baseline_comments_never_gain_a_shadow_label(memo_run):
    comments = memo_run["corpus"].comments
    assert memo_run["baseline"]
    assert all(comments[cid].shadow_label is None for cid in memo_run["baseline"])
    hidden = [c for c in comments.values() if c.shadow_label is not None]
    assert hidden and not memo_run["baseline"] & {c.comment_id for c in hidden}


def test_memo_is_invisible_in_dump_segments_and_manifest(memo_run, oracle_run):
    assert memo_run["dump"] == oracle_run["dump"]
    assert memo_run["files"] == oracle_run["files"]
    assert any(path.name.endswith(".jsonl") for path in memo_run["files"])
    assert any("manifest" in path.name for path in memo_run["files"])


def test_memo_is_dropped_when_the_crawl_stage_returns(memo_run):
    assert len(memo_run["memo"]) == 0


def test_connections_keep_bytes_and_parse_count(
    world_0002, tmp_path, monkeypatch, memo_run
):
    # Four jobs per fetch window: a page can now hit the memo entry a
    # job earlier in the same window wrote.
    run = _crawl(world_0002, tmp_path, monkeypatch, connections=4)
    assert run["dump"] == memo_run["dump"]
    assert run["files"] == memo_run["files"]
    assert len(run["parsed"]) == DISTINCT_200_BODIES


def _synthetic_page(n: int) -> Response:
    """A small, distinct 200 discussion page with one comment."""
    url_id = f"{n:024x}"
    body = (
        f'<meta name="commenturl-id" content="{url_id}">'
        f'<h1 class="page-title">Page {n}</h1>'
        f'<div class="comment" data-comment-id="{n + 1:024x}" '
        f'data-author-id="{n + 2:024x}" data-parent-id="" '
        f'data-created="{n}">\n<p class="comment-text">text {n} &amp; more</p>'
    )
    return Response(status=200, body=body.encode("utf-8"))


def test_a_cyclic_scan_parses_each_page_once(monkeypatch):
    # Two passes over more distinct pages than a table cleared wholesale
    # at 8,192 entries would hold: such a table is emptied during the
    # first pass and never hits in the second (20,000 parses).
    pages = [_synthetic_page(n) for n in range(10_000)]
    parsed = []
    real_parse = parsing.parse_comment_page

    def counted_parse(text):
        parsed.append(text)
        return real_parse(text)

    monkeypatch.setattr(parsing, "parse_comment_page", counted_parse)
    memo = PageParseMemo()
    first = [memo.parse(page) for page in pages]
    second = [memo.parse(page) for page in pages]
    assert len(parsed) == 10_000
    assert len(memo) == 10_000
    assert all(a is b for a, b in zip(first, second))
    assert first[7].url.commenturl_id == f"{7:024x}"
    assert first[7].comments[0].text == "text 7 & more"


def _bytes_in(value):
    """Every ``bytes`` object reachable from ``value``'s containers."""
    if isinstance(value, bytes):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _bytes_in(item)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _bytes_in(getattr(value, item.name))


def test_memo_holds_no_page_body(world_0002):
    _config, world = world_0002
    client = HttpClient(build_origins(world).transport)
    memo = PageParseMemo()
    bodies = []
    for record in world.dissenter.urls.urls[:200]:
        response = client.get(
            f"https://dissenter.com/discussion/{record.commenturl_id.hex}"
        )
        if response.status == 200:
            bodies.append(response.body)
            memo.parse(response)
    assert len(memo) == len(set(bodies)) > 100
    for key, page in memo._pages.items():
        held = [*_bytes_in(key), *_bytes_in(page)]
        # The key's one bytes object is the 32-byte digest; the parse
        # holds none.
        assert [len(item) for item in held] == [32]
        assert not any(item in bodies for item in held)
