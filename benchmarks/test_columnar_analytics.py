"""Columnar §4 analytics vs the dict-path oracle at 1M+ comments.

The columnar layer projects sealed segments into typed numpy arrays at
seal time; the §4 analyses then run as vectorized reductions over
those columns.  This bench builds a synthetic corpus above the
paper's scale (~1.05M comments), runs the growth / concentration /
flag-table group down both paths, asserts the results are identical,
and requires the columnar group to be at least 5x faster than the
dict-path oracle from ``tests/oracles/`` *with the store's shared
memoised indexes already warm* — the honest baseline, not the per-call
regrouping one.
"""

import datetime
import time

import numpy as np

from benchmarks._report import record, row
from repro.core.macro import (
    GabGrowthSeries,
    _parse_iso,
    analyze_gab_growth,
    comment_concentration,
    user_table,
)
from repro.crawler.records import (
    CrawledComment,
    CrawledGabAccount,
    CrawledUrl,
    CrawledUser,
)
from repro.stats.hypothesis_tests import rank_correlation
from repro.store import CorpusStore, columns_of

from tests.oracles import analyses as oracles

N_USERS = 120_000
N_URLS = 60_000
N_COMMENTS = 1_050_000
N_ACCOUNTS = 60_000
SEGMENT_RECORDS = 65_536
BASE_EPOCH = 1_483_228_800  # 2017-01-01T00:00:00Z
ROUNDS = 3


# ---------------------------------------------------------------------------
# Synthetic corpus generation (deterministic, no RNG).
# ---------------------------------------------------------------------------


def _users():
    for n in range(N_USERS):
        yield CrawledUser(
            username=f"user-{n:06d}",
            author_id=f"{n:08x}beef",
            display_name=f"User {n}",
            permissions={
                "comment": True,
                "vote": n % 3 != 0,
                "pro": n % 17 == 0,
            },
            view_filters={"nsfw": n % 5 == 0, "offensive": n % 11 == 0},
        )


def _urls():
    for n in range(N_URLS):
        yield CrawledUrl(
            commenturl_id=f"{n:08x}feed",
            url=f"https://example-{n % 500:03d}.com/page/{n}",
            title=f"Page {n}",
            description="",
            upvotes=(n * 7) % 93,
            downvotes=(n * 3) % 41,
        )


def _comments():
    for n in range(N_COMMENTS):
        yield CrawledComment(
            comment_id=f"{n:09x}cafe",
            # Quadratic residue skews comment volume across authors a
            # little, like a real corpus; still fully deterministic.
            author_id=f"{(n * n) % N_USERS:08x}beef",
            commenturl_id=f"{(n * 9973) % N_URLS:08x}feed",
            text=f"comment body {n % 2000}",
            parent_comment_id=f"{n - 1:09x}cafe" if n % 5 == 0 and n else None,
            created_at_epoch=BASE_EPOCH + n,
            shadow_label="nsfw" if n % 37 == 0 else None,
        )


def _accounts() -> list[CrawledGabAccount]:
    accounts = []
    for n in range(N_ACCOUNTS):
        stamp = datetime.datetime.fromtimestamp(
            BASE_EPOCH + n * 60, tz=datetime.timezone.utc
        ).strftime("%Y-%m-%dT%H:%M:%S") + ".000Z"
        # Every 1000th account gets a far-below-frontier reassigned ID.
        gab_id = (n // 3) + 1 if n and n % 1000 == 0 else n + 1
        accounts.append(
            CrawledGabAccount(
                gab_id=gab_id,
                username=f"gab-{n:06d}",
                display_name=f"Gab {n}",
                created_at_iso=stamp,
            )
        )
    return accounts


def _build_store(tmp_path) -> CorpusStore:
    store = CorpusStore(
        store_dir=tmp_path / "columns", segment_records=SEGMENT_RECORDS
    )
    for user in _users():
        store.add_user(user)
    for url in _urls():
        store.add_url(url)
    for comment in _comments():
        store.add_comment(comment)
    return store.seal()


# ---------------------------------------------------------------------------
# The dict-path growth baseline: the pre-columnar scalar parse loop.
# ---------------------------------------------------------------------------


def _growth_scalar(accounts: list[CrawledGabAccount]) -> GabGrowthSeries:
    times = np.asarray([_parse_iso(a.created_at_iso) for a in accounts])
    ids = np.asarray([a.gab_id for a in accounts])
    order = np.argsort(times)
    times, ids = times[order], ids[order]
    frontier = np.concatenate([[0], np.maximum.accumulate(ids)[:-1]])
    anomalous = int((ids < frontier * 0.5).sum())
    rho = rank_correlation(times, ids) if ids.size > 1 else 1.0
    return GabGrowthSeries(
        created_at=times,
        gab_ids=ids,
        anomalous_count=anomalous,
        spearman_rho=rho,
    )


def _best_of(fn, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_columnar_group_5x_and_identical(tmp_path):
    store = _build_store(tmp_path)
    accounts = _accounts()
    assert columns_of(store) is not None

    # -- Parity first (also warms views and memoised indexes). ----------
    growth_col = analyze_gab_growth(accounts)
    growth_dict = _growth_scalar(accounts)
    assert np.array_equal(growth_col.created_at, growth_dict.created_at)
    assert np.array_equal(growth_col.gab_ids, growth_dict.gab_ids)
    assert growth_col.anomalous_count == growth_dict.anomalous_count
    assert growth_col.spearman_rho == growth_dict.spearman_rho

    conc_col = comment_concentration(store)
    conc_dict = oracles.comment_concentration(store)
    assert np.array_equal(conc_col.counts, conc_dict.counts)
    assert conc_col.gini_like_top_shares == conc_dict.gini_like_top_shares

    table_col = user_table(store)
    table_dict = oracles.user_table(store)
    assert table_col.n_active == table_dict.n_active
    assert list(table_col.flag_counts.items()) == list(
        table_dict.flag_counts.items()
    )
    assert list(table_col.filter_counts.items()) == list(
        table_dict.filter_counts.items()
    )

    # -- Timing: the whole group down each path, best of ROUNDS. --------
    def group_dict():
        _growth_scalar(accounts)
        oracles.comment_concentration(store)
        oracles.user_table(store)

    def group_columnar():
        analyze_gab_growth(accounts)
        comment_concentration(store)
        user_table(store)

    dict_seconds = _best_of(group_dict)
    columnar_seconds = _best_of(group_columnar)
    speedup = dict_seconds / columnar_seconds

    stats = store.column_stats()
    lines = [
        row("corpus", "-",
            f"{N_COMMENTS} comments / {N_USERS} users / {N_URLS} urls"),
        row("growth+concentration+flag-table, dict path",
            "-", f"{dict_seconds * 1000:.0f} ms"),
        row("growth+concentration+flag-table, columnar",
            "-", f"{columnar_seconds * 1000:.0f} ms"),
        row("columnar speedup over warm dict path",
            ">= 5x", f"{speedup:.1f}x"),
    ]
    record(
        "columnar_analytics",
        "Columnar §4 analytics vs dict-path oracle (1M+ comments)",
        lines,
        context={"accounts": N_ACCOUNTS, **stats},
    )

    assert speedup >= 5.0, (
        f"columnar group only {speedup:.1f}x faster "
        f"({columnar_seconds * 1000:.0f} ms vs {dict_seconds * 1000:.0f} ms)"
    )
