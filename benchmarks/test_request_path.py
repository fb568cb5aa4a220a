"""Request path: host µs per message on the §3 crawl's hot paths.

The §3 crawl is a long run of small messages: one Gab accounts-API
probe per ID (§3.1), one ``dissenter.com/user/<name>`` probe per Gab
account, mostly a ~150-byte 404 (§3.2's size test), one JSONL line per
stored comment and one parse per distinct discussion page.  This bench
times each of them at scale 0.002, seed 0 (the ``reproduce`` world):

* a Gab probe: the whole §3.1 sweep through ``GabEnumerator``, divided
  by the IDs probed;
* a detect 404 probe: ``HttpClient.get_or_none`` on every enumerated
  Gab name that has no Dissenter account;
* a comment encode: ``encode_comment`` on every crawled comment, next
  to the ``JSONEncoder`` dict form in ``tests/oracles/codecs.py``; the
  lines must be byte-identical;
* a discussion-page parse: ``parse_comment_page`` on every distinct
  200 discussion page, and the five URL-level seeks on their own next
  to the original ``regex.search`` patterns in
  ``tests/oracles/page_patterns.py``.

``BEFORE_US`` holds the same bench's numbers for the code before the
HTTP, codec and seek fast paths (commit bd830db, same 2-CPU host).  The
host's speed drifts by tens of percent over minutes, so the rounds
interleave every measurement and each figure is its best round; one
run's figures can still sit well off the median, and there is no
timing assert.  The in-run comparisons (the
dict encoder, the original regexes) are the steadier ratios.
"""

import os
import time

from benchmarks._report import RECORD, record
from repro.core.pipeline import ReproductionPipeline
from repro.crawler import parsing
from repro.crawler.gab_enum import GabEnumerator
from repro.platform.config import WorldConfig
from repro.platform.world import build_world
from repro.store.codecs import encode_comment
from tests.oracles import codecs as oracle_codecs
from tests.oracles.page_patterns import PAGE_PATTERNS

SCALE = 0.002
SEED = 0
ROUNDS = 10

#: Host µs per message at bd830db: the median of three runs of this
#: bench there.
BEFORE_US = {
    "gab_probe": 71.7,
    "detect_404_probe": 16.3,
    "comment_encode": 5.63,
    "page_parse": 113.7,
    "page_url_fields": 34.7,
}

_URL_FIELDS = ("_TITLE_RE", "_DESCRIPTION_RE", "_COMMENTURL_ID_RE",
               "_TARGET_URL_RE", "_VOTES_RE")


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def test_request_path_per_message_costs():
    config = WorldConfig(scale=SCALE, seed=SEED, baseline_sample_cap=1000)
    world = build_world(config)

    # Inputs: the sweep's names, the crawl's comments and its distinct
    # 200 discussion pages.
    pipeline = ReproductionPipeline(world=world)
    sweep = GabEnumerator(pipeline.client).enumerate(max_id=world.gab.max_id)
    dissenter = world.dissenter.users_by_username
    probe_urls = [f"https://dissenter.com/user/{name}"
                  for name in sweep.usernames() if name not in dissenter]
    pipeline = ReproductionPipeline(world=world)
    comments = list(pipeline.stage_crawl().corpus.iter_comments())
    lines = [encode_comment(c) for c in comments]
    assert lines == [oracle_codecs.encode_comment(c) for c in comments]
    pages = []
    for url in sorted({c.commenturl_id for c in comments}):
        response = pipeline.client.get(f"https://dissenter.com/discussion/{url}")
        if response.status == 200:
            pages.append(response.text)
    seeks = [getattr(parsing, name) for name in _URL_FIELDS]
    originals = [PAGE_PATTERNS[name] for name in _URL_FIELDS]
    detect_client = ReproductionPipeline(world=world).client

    def sweep_once(enumerator):
        assert enumerator.enumerate(max_id=world.gab.max_id) == sweep

    def probe():
        for url in probe_urls:
            response = detect_client.get_or_none(url)
            assert response is not None and response.status == 404

    def encode(encoder):
        for comment in comments:
            encoder(comment)

    def parse():
        for body in pages:
            parsing.parse_comment_page(body)

    def search_fields(patterns):
        for body in pages:
            for pattern in patterns:
                pattern.search(body)

    # Rounds interleave every measurement, so a slow spell of the host
    # lands on all of them; each keeps its best round.
    best: dict[str, float] = {}
    for _ in range(ROUNDS):
        enumerator = GabEnumerator(ReproductionPipeline(world=world).client)
        seconds = {
            "gab_probe": _timed(lambda: sweep_once(enumerator)) / sweep.ids_probed,
            "detect_404_probe": _timed(probe) / len(probe_urls),
            "comment_encode": _timed(lambda: encode(encode_comment)) / len(comments),
            "dict_encode": _timed(lambda: encode(oracle_codecs.encode_comment))
            / len(comments),
            "page_parse": _timed(parse) / len(pages),
            "page_url_fields": _timed(lambda: search_fields(seeks)) / len(pages),
            "regex_search": _timed(lambda: search_fields(originals)) / len(pages),
        }
        for key, value in seconds.items():
            best[key] = min(best.get(key, value), value)
    us = {key: value * 1e6 for key, value in best.items()}

    def line(label, key, note=""):
        before, after = BEFORE_US[key], us[key]
        return (f"{label:<34s} before={before:>7.2f} us  after={after:>7.2f} us"
                f"  ({before / after:.2f}x){note}")

    record(
        "request_path",
        "Request path — host µs per message on the §3 crawl hot paths",
        [
            line("Gab account probe (§3.1 sweep)", "gab_probe",
                 f"  [{sweep.ids_probed:,} IDs]"),
            line("detect 404 probe (/user/<name>)", "detect_404_probe",
                 f"  [{len(probe_urls):,} probes]"),
            line("comment encode", "comment_encode",
                 f"  [{len(comments):,} comments; dict encoder in this run:"
                 f" {us['dict_encode']:.2f} us; lines identical]"),
            line("discussion-page parse", "page_parse",
                 f"  [{len(pages):,} pages]"),
            line("  of which the 5 URL-level seeks", "page_url_fields",
                 f"  [regex.search in this run: {us['regex_search']:.2f} us]"),
        ],
        context={"scale": SCALE, "seed": SEED, "rounds": ROUNDS,
                 "cpus": os.cpu_count()},
        write=RECORD,
    )
