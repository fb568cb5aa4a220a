"""Unit tests for the columnar projection layer (:mod:`repro.store.columns`).

Covers seal-time projection into hash-manifested ``.npz`` files, the
``ColumnView`` read surface and its revision-aware dedup, the kept
arrays being read-only in every store, the ``.npz`` files being
write-only (a spilled store's view never reads them back), restore-time
file reuse, the inline (no ``store_dir``) mode, and the view contract
(an unsealed store raises ``ValueError`` naming the cause).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.macro import comment_concentration
from repro.crawler.records import (
    CrawledComment,
    CrawledUrl,
    CrawledUser,
)
from repro.store import (
    PROJECTION_SPEC,
    CorpusStore,
    columns_of,
    columns_path,
    load_manifest,
)
from repro.store.columns import COLUMN_KEYS


def _user(n: int, **kwargs) -> CrawledUser:
    return CrawledUser(
        username=f"user-{n:03d}", author_id=f"{n:08x}aaaa", **kwargs
    )


def _url(n: int) -> CrawledUrl:
    return CrawledUrl(
        commenturl_id=f"{n:08x}bbbb", url=f"https://example-{n % 4}.com/{n}",
        title=f"t{n}", description="", upvotes=n, downvotes=n % 3,
    )


def _comment(n: int, author: int = 1, **kwargs) -> CrawledComment:
    return CrawledComment(
        comment_id=f"{n:08x}cccc", author_id=f"{author:08x}aaaa",
        commenturl_id=f"{n % 3:08x}bbbb", text=f"comment {n}", **kwargs
    )


def _fill(corpus, users: int = 6, urls: int = 3, comments: int = 25):
    for n in range(1, users + 1):
        corpus.add_user(
            _user(
                n,
                permissions={"comment": True, "flagged": n % 2 == 0},
                view_filters={"hide_nsfw": n % 3 == 0},
            )
        )
    for n in range(urls):
        corpus.add_url(_url(n))
    for n in range(comments):
        corpus.add_comment(
            _comment(
                n,
                author=1 + n % users,
                created_at_epoch=1_546_300_800 + n,
                parent_comment_id=f"{n - 1:08x}cccc" if n % 5 == 0 and n else None,
                shadow_label="nsfw" if n % 7 == 0 else None,
            )
        )
    return corpus


class TestSealTimeProjection:
    def test_every_sealed_segment_gets_a_manifested_npz(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path, segment_records=8))
        store.seal()
        refs = load_manifest(tmp_path)["segments"]
        assert refs, "expected spilled segments"
        for ref in refs:
            assert ref.columns_sha256 is not None
            path = columns_path(tmp_path, ref.name)
            assert path.exists()
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == ref.columns_sha256

    def test_projection_spec_matches_produced_columns(self):
        # The spec is the lint contract (CHK003); the record columns it
        # promises must all exist in the produced arrays.
        assert set(PROJECTION_SPEC) == {
            "CrawledComment", "CrawledUrl", "CrawledUser"
        }
        store = _fill(CorpusStore())
        store.seal()
        chunks = store.column_chunks()
        assert all(set(chunk) == set(COLUMN_KEYS) for chunk in chunks)


class TestColumnView:
    def test_view_matches_dict_tables(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path, segment_records=8))
        store.seal()
        view = store.column_view()
        comments = view.comments
        records = list(store.comments.values())
        assert comments.n == len(records)
        comment_ids = view.tables.comment_ids.values
        assert [comment_ids[i] for i in comments.key.tolist()] == [
            r.comment_id for r in records
        ]
        assert comments.epoch.tolist() == [
            r.created_at_epoch for r in records
        ]
        assert comments.reply.astype(bool).tolist() == [
            r.is_reply for r in records
        ]
        urls = view.urls
        url_records = list(store.urls.values())
        assert urls.net.tolist() == [r.net_votes for r in url_records]
        url_strings = view.tables.url_strings.values
        assert [url_strings[i] for i in urls.str_ord.tolist()] == [
            r.url for r in url_records
        ]

    def test_dedup_keeps_final_revision_in_first_insertion_order(self):
        store = _fill(CorpusStore())
        # Revise a user (re-append) and a comment (shadow re-add): the
        # view must show the final values at the original positions.
        user = store.users["user-002"]
        user.language = "de"
        store.touch_user(user)
        comment = store.comments[f"{3:08x}cccc"]
        comment.shadow_label = "offensive"
        store.add_comment(comment)
        store.seal()
        view = store.column_view()
        usernames = view.tables.usernames.values
        assert [usernames[i] for i in view.users.key.tolist()] == list(
            store.users
        )
        shadow_names = view.tables.shadow_labels.values
        labels = [
            shadow_names[i] or None for i in view.comments.shadow.tolist()
        ]
        assert labels == [
            r.shadow_label for r in store.comments.values()
        ]

    def test_unsealed_tail_rows_are_included(self):
        store = CorpusStore(segment_records=4)
        for n in range(1, 7):   # 6 comments: one sealed segment + tail
            store.add_user(_user(n))
        store.seal()
        view = store.column_view()
        assert view.users.n == 6

    def test_view_is_memoised_and_counted(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path, segment_records=8))
        store.seal()
        first = store.column_view()
        assert store.column_view() is first
        assert store.column_stats()["view_cache_hits"] == 1


class TestColumnFiles:
    def test_view_never_reads_column_files(self, tmp_path):
        # The .npz files are output only: with every one gone, a spilled
        # store's view still equals its inline twin's, and none reappears.
        spilled = _fill(CorpusStore(store_dir=tmp_path, segment_records=8))
        spilled.seal()
        inline = _fill(CorpusStore(segment_records=8))
        inline.seal()
        files = sorted(tmp_path.glob("*.columns.npz"))
        assert len(files) == len(spilled.segment_refs) > 0
        for path in files:
            path.unlink()
        got, want = spilled.column_view(), inline.column_view()
        for table in ("comments", "urls", "users"):
            got_cols, want_cols = getattr(got, table), getattr(want, table)
            for field in vars(want_cols):
                np.testing.assert_array_equal(
                    getattr(got_cols, field), getattr(want_cols, field)
                )
        assert list(tmp_path.glob("*.columns.npz")) == []

    def test_sealed_segment_arrays_are_read_only(self, tmp_path):
        for store in (
            CorpusStore(segment_records=8),
            CorpusStore(store_dir=tmp_path, segment_records=8),
        ):
            _fill(store).seal()
            sealed = store.column_chunks()[:-1]
            assert len(sealed) == len(store.segment_refs) > 0
            for arrays in sealed:
                for key, array in arrays.items():
                    assert not array.flags.writeable, key


class TestFallbacks:
    def test_restore_reuses_identical_files(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path, segment_records=8))
        store.seal()
        snapshot = store.snapshot()
        restored = CorpusStore(store_dir=tmp_path, segment_records=8)
        restored.restore_payload(snapshot)
        stats = restored.column_stats()
        assert stats["reused"] == stats["segments"] > 0
        assert restored.snapshot() == snapshot


class TestDispatch:
    def test_unsealed_store_has_no_view(self):
        store = _fill(CorpusStore())
        with pytest.raises(ValueError, match="not sealed"):
            store.column_view()
        with pytest.raises(ValueError, match="not sealed"):
            columns_of(store)

    def test_analysis_on_unsealed_store_raises(self):
        with pytest.raises(ValueError, match="not sealed"):
            comment_concentration(_fill(CorpusStore()))

    def test_inline_store_projects_without_files(self):
        store = _fill(CorpusStore(segment_records=8))
        store.seal()
        view = store.column_view()
        assert view is not None
        assert view.comments.n == len(store.comments)
        assert store.column_stats()["projected"] > 0


def test_url_projection_does_not_import_the_analyses():
    # The projector derives TLD and domain through repro.net.http; the
    # whole repro.core pipeline must not load on the first add_url.
    script = (
        "import sys\n"
        "import repro.store\n"
        "from repro.crawler.records import CrawledUrl\n"
        "store = repro.store.CorpusStore()\n"
        "store.add_url(CrawledUrl('a' * 24, 'https://news.bbc.co.uk/x?a=1&b=2',\n"
        "                         'title', '', 0, 0))\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.core')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
