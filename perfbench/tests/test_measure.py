"""Tests of the benchmark's metric helpers, failure accounting and spans.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import SERVE_TAGS, serve_tag  # noqa: E402
from measure import (  # noqa: E402
    Tally,
    beyond,
    distribution,
    is_probe_url,
    quantile_at,
    serve_failures,
)
from tracing import Patches, Tracer, by_group, by_name, self_times  # noqa: E402


# -- median and tail ---------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    d = distribution(range(1, 1001))
    assert d.count == 1000
    assert d.p50 == 500
    assert (d.tail_q, d.tail) == (99.0, 990)
    assert d.tail_label == "p99"
    assert beyond(1000, 99.0) == 10
    assert beyond(1000, 99.9) == 1


def test_tail_steps_down_the_ladder_with_fewer_samples():
    d = distribution(range(100))
    assert (d.tail_q, d.tail, d.count) == (90.0, 89, 100)
    d = distribution(list(range(100_000))[::-1])
    assert (d.tail_q, d.tail) == (99.99, 99_989)


def test_no_tail_when_even_p90_is_thin():
    d = distribution([3.0, 1.0, 2.0] * 5)
    assert d.p50 == 2.0
    assert d.tail_q is None and d.tail is None
    assert d.tail_label == "-"


def test_quantile_at_refuses_thin_support():
    assert quantile_at(range(1, 1001), 99.0) == 990
    with pytest.raises(ValueError):
        quantile_at(range(1, 1000), 99.0)


def test_distribution_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        distribution([])


# -- failed_frac accounting --------------------------------------------


def test_serve_failures_exclude_scheduled_404_probes():
    statuses = {200: 950, 404: 40}
    assert serve_failures(statuses, probe_404s=40) == 0
    # A 404 that was not a scheduled probe is a failure.
    assert serve_failures(statuses, probe_404s=30) == 10


def test_serve_failures_count_errors_and_gave_up_throttled_once():
    # Requests the generator gave up on end in 429: counted once each.
    statuses = {200: 900, 404: 10, 429: 3, 500: 7, 503: 80}
    assert serve_failures(statuses, probe_404s=10) == 90


def test_serve_failures_refuse_more_probes_than_404s():
    with pytest.raises(ValueError):
        serve_failures({200: 10, 404: 1}, probe_404s=2)


def test_probe_urls_are_recognised():
    base = "https://serve.dissenter.local"
    assert is_probe_url(f"{base}/api/thread/missing-12")
    assert is_probe_url(f"{base}/api/summary/user/ghost-7")
    assert is_probe_url(
        f"{base}/api/url?url=https%3A%2F%2Fnowhere.example%2F3"
    )
    assert not is_probe_url(f"{base}/api/thread/0000001ffeed")
    assert not is_probe_url(f"{base}/api/user/user-000123")


def test_tally_failed_frac():
    tally = Tally()
    tally.add(1000, 0)
    tally.add(500, 15)
    assert tally.correct
    assert (tally.attempted, tally.failed_total) == (1500, 15)
    assert tally.failed_frac == pytest.approx(0.01)


def test_failed_correctness_gate_fails_the_whole_run():
    tally = Tally()
    tally.add(1000, 0)
    tally.fail_gate()
    tally.add(1000, 0)
    assert not tally.correct
    assert tally.failed_total == tally.attempted == 2000
    assert tally.failed_frac == 1.0


def test_tally_refuses_impossible_counts():
    with pytest.raises(ValueError):
        Tally().add(1, 2)


# -- serve endpoint tags -----------------------------------------------


def test_every_endpoint_path_maps_to_its_tag():
    paths = {
        "/api/thread/0001feed": "thread",
        "/api/user/user-000001": "user",
        "/api/summary/url/0001feed": "summary_url",
        "/api/summary/user/user-000001": "summary_user",
        "/api/url": "url_lookup",
        "/api/core": "core",
        "/api/core/user-000003": "core_member",
    }
    assert sorted(paths.values()) == sorted(SERVE_TAGS)
    for path, tag in paths.items():
        assert serve_tag(path) == tag
    assert serve_tag("/api/status") == "other"


# -- spans and self time -----------------------------------------------


def _spans():
    # root 0..10 > a 1..6 > b 2..3 ; root > c 7..9 ; b's sibling under a: d 4..5
    return [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 6.0, 0],
        ["b", 2.0, 3.0, 1],
        ["d", 4.0, 5.0, 1],
        ["c", 7.0, 9.0, 0],
    ]


def test_self_time_is_duration_minus_children():
    assert self_times(_spans()) == [3.0, 3.0, 1.0, 1.0, 2.0]


def test_by_name_counts_outermost_inclusive_time_once():
    spans = [
        ["f", 0.0, 10.0, -1],
        ["f", 1.0, 4.0, 0],        # recursion: inclusive not double counted
        ["g", 5.0, 6.0, 0],
    ]
    totals = by_name(spans)
    assert totals["f"] == {"calls": 2, "total_s": 10.0, "self_s": 9.0}
    assert totals["g"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}


def test_by_group_attributes_nested_spans_to_their_phase():
    spans = [
        ["crawl.a", 0.0, 10.0, -1],
        ["net.send", 1.0, 2.0, 0],
        ["ckpt.flush", 3.0, 6.0, 0],
        ["ckpt.write", 4.0, 5.0, 2],
        ["crawl.b", 11.0, 12.0, -1],
        ["net.send", 11.5, 11.75, 4],
        ["net.send", 13.0, 14.0, -1],   # outside any phase
    ]
    groups = by_group(
        spans, lambda n: n[6:] if n.startswith("crawl.") else None
    )
    assert groups["a"]["total_s"] == 10.0
    assert groups["a"]["calls"] == {"net.send": 1, "ckpt.flush": 1,
                                    "ckpt.write": 1}
    assert groups["a"]["inner_s"]["ckpt.flush"] == 3.0
    assert groups["b"]["calls"] == {"net.send": 1}
    assert set(groups) == {"a", "b"}


class _Target:
    def work(self, x):
        return x * 2

    def fail(self):
        raise RuntimeError("boom")


def test_patches_record_spans_and_restore_originals():
    original = _Target.work
    tracer = Tracer()
    patches = Patches()
    patches.replace(_Target, "work", tracer.wrapper("t.work"))
    patches.replace(_Target, "fail", tracer.wrapper("t.fail"))
    target = _Target()
    assert target.work(21) == 42
    with pytest.raises(RuntimeError):
        target.fail()
    patches.undo()
    assert _Target.work is original
    names = [span[0] for span in tracer.spans]
    assert names == ["t.work", "t.fail"]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_patching_an_inherited_method_leaves_the_base_alone():
    class Child(_Target):
        pass

    tracer = Tracer()
    patches = Patches()
    patches.replace(Child, "work", tracer.wrapper("child.work"))
    assert _Target().work(1) == 2 and not tracer.spans
    assert Child().work(1) == 2 and len(tracer.spans) == 1
    patches.undo()
    assert "work" not in vars(Child)


def test_generators_are_refused():
    class Gen:
        def items(self):
            yield 1

    with pytest.raises(TypeError):
        Patches().replace(Gen, "items", Tracer().wrapper("gen"))
