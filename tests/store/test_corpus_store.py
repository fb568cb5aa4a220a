"""Unit tests for the segmented corpus store (:mod:`repro.store`).

Covers the append-log write path (upsert parity with plain dict
upserts), the seal contract (memoised indexes, loud rejection of
post-seal writes), disk spill with manifest + hash verification, the
snapshot/restore round trip in every direction (inline → inline,
inline → disk, disk → disk), rejection of the legacy v2 corpus payload,
and the codec error contract.
"""

import hashlib
import json

import pytest

from repro.crawler.checkpoint import result_to_payload
from repro.crawler.records import (
    CrawledComment,
    CrawledUrl,
    CrawledUser,
)
from repro.store import (
    CorpusStore,
    SealedCorpusError,
    decode_line,
    encode_record,
    encode_user,
    load_manifest,
    segment_path,
)
from tests.oracles import codecs as oracle


def _user(n: int, **kwargs) -> CrawledUser:
    return CrawledUser(
        username=f"user-{n:03d}", author_id=f"{n:08x}aaaa", **kwargs
    )


def _url(n: int) -> CrawledUrl:
    return CrawledUrl(
        commenturl_id=f"{n:08x}bbbb", url=f"https://example.com/{n}",
        title=f"t{n}", description="", upvotes=n, downvotes=0,
    )


def _comment(n: int, author: int = 1, **kwargs) -> CrawledComment:
    return CrawledComment(
        comment_id=f"{n:08x}cccc", author_id=f"{author:08x}aaaa",
        commenturl_id=f"{n % 3:08x}bbbb", text=f"comment {n}", **kwargs
    )


class _DictCorpus:
    """Plain dict upserts: the semantics the store's log must reproduce."""

    def __init__(self):
        self.users, self.urls, self.comments = {}, {}, {}

    def add_user(self, user):
        self.users[user.username] = user

    touch_user = add_user

    def add_url(self, url):
        self.urls[url.commenturl_id] = url

    def add_comment(self, comment):
        self.comments[comment.comment_id] = comment


def _fill(corpus, users: int = 4, urls: int = 3, comments: int = 10):
    for n in range(1, users + 1):
        corpus.add_user(_user(n))
    for n in range(urls):
        corpus.add_url(_url(n))
    for n in range(comments):
        corpus.add_comment(_comment(n, author=1 + n % users))
    return corpus


class TestWritePath:
    def test_upserts_match_legacy_crawl_result(self):
        store, legacy = _fill(CorpusStore()), _fill(_DictCorpus())
        # Mutation-by-revision on the store vs in-place on the legacy
        # dict must land on the same corpus payload.
        for corpus in (store, legacy):
            user = corpus.users["user-001"]
            user.language = "en"
            corpus.touch_user(user)
        assert result_to_payload(store) == result_to_payload(legacy)
        assert list(store.users) == list(legacy.users)
        assert list(store.comments) == list(legacy.comments)

    def test_upsert_keeps_first_insertion_position(self):
        store = _fill(CorpusStore())
        first_order = list(store.users)
        store.touch_user(store.users["user-002"])
        assert list(store.users) == first_order

    def test_log_counts_sealed_plus_tail(self):
        store = _fill(CorpusStore(segment_records=5))
        assert store.tail_records == 2
        assert [ref.count for ref in store.segment_refs] == [5, 5, 5]

    def test_texts_streams_in_corpus_order(self):
        store = _fill(CorpusStore())
        view = store.texts()
        assert not isinstance(view, list)
        assert list(view) == [f"comment {n}" for n in range(10)]


class TestSealContract:
    def test_post_seal_write_raises_and_leaks_nothing(self):
        store = _fill(CorpusStore()).seal()
        before = result_to_payload(store)
        with pytest.raises(SealedCorpusError):
            store.add_user(_user(99))
        with pytest.raises(SealedCorpusError):
            store.add_url(_url(99))
        with pytest.raises(SealedCorpusError):
            store.add_comment(_comment(99))
        # The rejected records must not have leaked into the dicts.
        assert result_to_payload(store) == before

    def test_sealed_indexes_are_memoised_and_built_once(self):
        store = _fill(CorpusStore()).seal()
        assert store.index_builds == 0
        views = [
            (store.users_by_author_id, store.users_by_author_id()),
            (store.comments_by_url, store.comments_by_url()),
            (store.comments_by_author, store.comments_by_author()),
            (store.active_author_ids, store.active_author_ids()),
            (store.active_users, store.active_users()),
        ]
        # active_users() builds active_author_ids() on demand; every
        # view is built exactly once overall.
        assert store.index_builds == len(views)
        for method, first in views:
            assert method() is first
        assert store.index_builds == len(views)

    def test_unsealed_indexes_rebuild_per_call(self):
        store = _fill(CorpusStore())
        assert store.comments_by_url() is not store.comments_by_url()
        assert store.index_builds == 0

    def test_restore_into_sealed_store_raises(self):
        store = _fill(CorpusStore())
        snapshot = store.snapshot()
        with pytest.raises(SealedCorpusError):
            CorpusStore().seal().restore_payload(snapshot)


class TestSnapshotRestore:
    def test_inline_round_trip_is_idempotent(self):
        store = _fill(CorpusStore(segment_records=4))
        snapshot = store.snapshot()
        restored = CorpusStore()
        restored.restore_payload(snapshot)
        assert result_to_payload(restored) == result_to_payload(store)
        assert restored.snapshot() == snapshot

    def test_restore_adopts_snapshot_segment_size(self):
        store = _fill(CorpusStore(segment_records=4))
        restored = CorpusStore(segment_records=100)
        restored.restore_payload(store.snapshot())
        assert restored.segment_records == 4
        # Continued writes seal at the same boundaries as an
        # uninterrupted run would.
        for n in range(20, 24):
            restored.add_comment(_comment(n))
            store.add_comment(_comment(n))
        assert restored.snapshot() == store.snapshot()

    def test_disk_round_trip_verifies_hashes(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path / "a", segment_records=4))
        snapshot = store.snapshot()
        for entry in snapshot["sealed"]:
            assert "lines" not in entry     # on disk, referenced by hash
        restored = CorpusStore(store_dir=tmp_path / "a")
        restored.restore_payload(snapshot)
        assert result_to_payload(restored) == result_to_payload(store)

    def test_corrupted_segment_is_detected(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path / "a", segment_records=4))
        snapshot = store.snapshot()
        victim = segment_path(tmp_path / "a", snapshot["sealed"][0]["name"])
        victim.write_text(
            victim.read_text(encoding="utf-8").replace("comment", "tampered"),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="hash mismatch"):
            CorpusStore(store_dir=tmp_path / "a").restore_payload(snapshot)

    def test_inline_snapshot_adopted_into_store_dir(self, tmp_path):
        store = _fill(CorpusStore(segment_records=4))
        restored = CorpusStore(store_dir=tmp_path / "spill")
        restored.restore_payload(store.snapshot())
        manifest = load_manifest(tmp_path / "spill")
        assert [ref.count for ref in manifest["segments"]] == [4, 4, 4, 4]
        assert result_to_payload(restored) == result_to_payload(store)

    def test_manifest_totals_match_log(self, tmp_path):
        store = _fill(CorpusStore(store_dir=tmp_path / "a", segment_records=4))
        manifest = json.loads(
            (tmp_path / "a" / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest["total_records"] == sum(
            ref.count for ref in store.segment_refs
        )

    def test_legacy_result_payload_replays(self):
        """A bare ``result_to_payload`` document (the v2 corpus shape) no
        longer replays: it is rejected by shape, leaving the store empty."""
        legacy = _fill(CorpusStore())
        store = CorpusStore()
        with pytest.raises(ValueError, match="result_to_payload"):
            store.restore_payload(result_to_payload(legacy))
        assert not store.users and not store.comments
        assert store.tail_records == 0 and not store.segment_refs

    def test_unknown_version_raises(self):
        with pytest.raises(ValueError, match="version"):
            CorpusStore().restore_payload({"version": 99, "sealed": []})


class TestCodecs:
    def test_round_trip_every_record_kind(self):
        records = [
            _user(1, language="en", permissions={"comment": True}),
            _url(2),
            _comment(3, parent_comment_id="p", shadow_label="nsfw"),
        ]
        for record in records:
            kind, decoded = decode_line(encode_record(record))
            assert decoded == record

    def test_lines_are_canonical_json(self):
        line = encode_user(_user(1))
        assert line == json.dumps(
            json.loads(line), separators=(",", ":"), ensure_ascii=True
        )

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1]",
            '{"kind": "martian"}',
            '{"kind": "user"}',
        ],
    )
    def test_malformed_lines_raise_value_error(self, line):
        with pytest.raises(ValueError):
            decode_line(line)

    def test_unknown_record_type_raises(self):
        with pytest.raises(TypeError):
            encode_record(object())

    def test_comment_revision_supersedes_in_replay(self):
        store = CorpusStore()
        store.add_comment(_comment(1))
        labeled = _comment(1, shadow_label="offensive")
        store.add_comment(labeled)
        restored = CorpusStore()
        restored.restore_payload(store.snapshot())
        (only,) = restored.comments.values()
        assert only.shadow_label == "offensive"


class TestMutateThenReAdd:
    """The crawl mutates a stored record in place and adds it again (the
    shadow pass sets ``shadow_label``; the metadata crawl fills a user's
    flags and calls ``touch_user``).  Each add must log the record as it
    is at that add: every line, and every segment's hash and bytes, equal
    the dict encoder's output taken at each add."""

    @pytest.mark.parametrize("spilled", [False, True], ids=["inline", "spilled"])
    def test_revision_lines_and_segments_match_the_oracle(self, tmp_path, spilled):
        store = CorpusStore(store_dir=tmp_path if spilled else None,
                            segment_records=3)
        expected = []
        user, comment = _user(1), _comment(1)
        store.add_user(user)
        expected.append(oracle.encode_user(user))
        store.add_comment(comment)
        expected.append(oracle.encode_comment(comment))
        comment.shadow_label = "nsfw"
        store.add_comment(comment)
        expected.append(oracle.encode_comment(comment))
        user.language = "en"
        user.permissions["comment"] = True
        user.view_filters.update(nsfw=False, offensive=True)
        user.commented_url_ids.append(comment.commenturl_id)
        store.touch_user(user)
        expected.append(oracle.encode_user(user))
        comment.shadow_label = "offensive"
        store.add_comment(comment)
        expected.append(oracle.encode_comment(comment))

        assert len(set(expected)) == len(expected)
        assert store.snapshot()["tail"] == expected[3:]
        (ref,) = store.segment_refs
        body = "".join(line + "\n" for line in expected[:3]).encode("utf-8")
        assert ref.sha256 == hashlib.sha256(body).hexdigest()
        if spilled:
            assert segment_path(tmp_path, ref.name).read_bytes() == body
        assert store.comments[comment.comment_id].shadow_label == "offensive"
        # The snapshot names no directory: a spilled segment is read from
        # the restoring store's own, and a store without one cannot.
        restored = CorpusStore(store_dir=tmp_path if spilled else None)
        restored.restore_payload(store.snapshot())
        assert restored.users == {user.username: user}
        assert restored.comments == {comment.comment_id: comment}
        if spilled:
            with pytest.raises(ValueError, match="--store-dir"):
                CorpusStore().restore_payload(store.snapshot())
