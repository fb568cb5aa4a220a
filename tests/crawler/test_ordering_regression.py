"""Ordering regressions: set order must never reach serialized output.

Raw ``set`` iteration order for strings depends on PYTHONHASHSEED, so
any set that leaks into a checkpoint or report byte-compares differently
between two processes running the *same* crawl.  These tests pin the
fixes at the three sites found by the DET003 set-ordering sweep.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.crawler.frontier import CrawlFrontier
from repro.crawler.social_crawl import SocialCrawlResult, induce_dissenter_graph

REPO_ROOT = Path(__file__).parents[2]

_FRONTIER_DUMP = textwrap.dedent(
    """
    import json
    from repro.crawler.frontier import CrawlFrontier

    frontier = CrawlFrontier(
        ["user-%03d" % i for i in range(50)], max_retries=2
    )
    for _ in range(20):
        frontier.pop()
    print(json.dumps(frontier.to_state(), sort_keys=True))
    """
)


def _dump_frontier_state(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", _FRONTIER_DUMP],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_frontier_state_is_byte_identical_across_hash_seeds():
    assert _dump_frontier_state("1") == _dump_frontier_state("2")


def test_frontier_seen_is_serialized_sorted():
    frontier = CrawlFrontier(["c", "a", "b"])
    state = frontier.to_state()
    assert state["seen"] == ["a", "b", "c"]
    # And the round trip keeps FIFO queue order untouched.
    restored = CrawlFrontier.from_state(state)
    assert [restored.pop() for _ in range(3)] == ["c", "a", "b"]


def test_frontier_state_json_round_trip_is_stable():
    frontier = CrawlFrontier(["x", "y"])
    frontier.pop()
    once = json.dumps(frontier.to_state(), sort_keys=True)
    again = json.dumps(
        CrawlFrontier.from_state(json.loads(once)).to_state(),
        sort_keys=True,
    )
    assert once == again


def test_dissenter_graph_node_order_ignores_insertion_order():
    crawl = SocialCrawlResult(
        followers={3: [1, 7], 1: [3]},
        following={7: [3]},
    )
    member_lists = ([7, 1, 9, 3], [3, 9, 1, 7], [9, 3, 7, 1])
    graphs = [
        induce_dissenter_graph(crawl, members) for members in member_lists
    ]
    node_lists = [list(g.nodes) for g in graphs]
    assert node_lists[0] == sorted(node_lists[0])
    assert node_lists.count(node_lists[0]) == len(node_lists)
    edge_sets = [set(g.edges) for g in graphs]
    assert edge_sets.count(edge_sets[0]) == len(edge_sets)
