"""Columnar projection of sealed segments (§4 analytics layer).

Every sealed segment gets a derived, typed column file: at seal time the
:class:`ColumnProjector` — which has observed every log line exactly once
— drains its row buffer into fixed-order numpy arrays that are written
next to the segment JSONL as ``<name>.columns.npz``.  The file's SHA-256
joins the segment's manifest entry (``columns_sha256``), so column bytes
are covered by the same determinism contract as the log itself: byte-
identical across PYTHONHASHSEED values and kill→resume chains.

Strings never ride in the hot columns.  Identifiers (comment ids, author
ids, URL ids, URL strings, usernames) are interned into append-only
:class:`StringTable`\\ s whose ordinals *are* the column values; the
small derived vocabularies (TLDs, domains, schemes, permission-flag and
view-filter names, shadow labels) additionally spill per-segment deltas
into the ``.npz`` so the ordinal space is reconstructable from column
files alone.  Interning order is first log appearance, which makes
ordinals a pure function of the log — the property every bit-identity
guarantee below leans on.

Reads go through :class:`ColumnView`: per-segment arrays are loaded with
zero-copy memory maps into the npz members (falling back to an eager
``np.load`` if the zip layout is surprising), verified against the
manifested hash first, and concatenated lazily per column.  A column
file that is missing or fails verification is *re-projected* from the
hash-verified segment JSONL — lookup-only interning reproduces the
original ordinals — and healed back to disk when the recomputed bytes
match the manifest.

The columnar reductions are the only production path for the §4
analyses.  They reach the view through :func:`columns_of`, which raises
a ``ValueError`` naming the cause on an unsealed store.  The record-dict
implementations they replaced live in ``tests/oracles/``, where the
parity tests assert every columnar analysis bit-identical against them.
"""

from __future__ import annotations

import hashlib
import io
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.crawler.records import CrawledComment, CrawledUrl, CrawledUser
from repro.net.http import split_domains, split_url
from repro.store.codecs import decode_line
from repro.store.segments import SegmentRef, columns_path

if TYPE_CHECKING:
    from repro.store.corpus import CorpusStore

__all__ = [
    "COLUMN_KEYS",
    "PROJECTION_SPEC",
    "ColumnProjector",
    "ColumnView",
    "StringTable",
    "adopt_columns",
    "columns_of",
    "heal_columns",
    "load_columns",
    "serialize_columns",
]

#: Which codec fields each record kind projects into columns.  Every
#: name listed here must appear in the matching ``encode_*``/``decode_*``
#: pair in :mod:`repro.store.codecs` — the CHK003 project checker in
#: :mod:`repro.analysis` enforces that at lint time, exactly as CHK002
#: ties record dataclasses to their codecs.
PROJECTION_SPEC = {
    "CrawledComment": (
        "comment_id",
        "author_id",
        "commenturl_id",
        "parent_comment_id",
        "created_at_epoch",
        "shadow_label",
    ),
    "CrawledUrl": ("commenturl_id", "url", "upvotes", "downvotes"),
    "CrawledUser": ("username", "author_id", "permissions", "view_filters"),
}

# Per-log-row column dtypes, in canonical npz member order.  Ordinal and
# count columns are int64; booleans are uint8; flag/filter bitmasks are
# uint64 (at most 64 distinct names each, enforced at intern time).
_RECORD_DTYPES = {
    "comment_key": np.int64,        # ordinal into comment_ids
    "comment_author": np.int64,     # ordinal into authors
    "comment_url": np.int64,        # ordinal into url_ids
    "comment_epoch": np.int64,      # created_at_epoch
    "comment_reply": np.uint8,      # has a parent_comment_id
    "comment_shadow": np.int64,     # ordinal into shadow_labels ("" = none)
    "url_key": np.int64,            # ordinal into url_ids
    "url_str": np.int64,            # ordinal into url_strings
    "url_up": np.int64,
    "url_down": np.int64,
    "url_tld": np.int64,            # ordinal into tlds, -1 = none
    "url_domain": np.int64,         # ordinal into domains, -1 = none
    "url_scheme": np.int64,         # ordinal into schemes
    "url_multi": np.uint8,          # has >= 2 GET parameters
    "user_key": np.int64,           # ordinal into usernames
    "user_author": np.int64,        # ordinal into authors
    "user_has_perms": np.uint8,     # permissions dict is non-empty
    "user_perm_mask": np.uint64,    # truthy permission flags, bit = ordinal
    "user_filter_mask": np.uint64,  # truthy view filters, bit = ordinal
}

# Small derived vocabularies whose per-segment deltas spill into the npz
# (the big identifier tables are recoverable from the JSONL directly).
_DELTA_TABLES = ("tlds", "domains", "schemes", "flags", "filters", "shadow_labels")

#: Canonical npz member order; savez preserves kwargs order, so this
#: tuple *is* the byte layout contract of a column file.
COLUMN_KEYS = tuple(_RECORD_DTYPES) + tuple(
    "delta_" + table for table in _DELTA_TABLES
)

_MASK_BITS = 64


class StringTable:
    """Append-only intern table; first-appearance order defines ordinals."""

    __slots__ = ("_index", "values")

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self.values: list[str] = []

    def __len__(self) -> int:
        return len(self.values)

    def intern(self, value: str) -> int:
        ordinal = self._index.get(value)
        if ordinal is None:
            ordinal = len(self.values)
            self._index[value] = ordinal
            self.values.append(value)
        return ordinal

    def lookup(self, value: str) -> int | None:
        """The ordinal of ``value``, or None — never interns.

        The read-only counterpart of :meth:`intern` for serving-side
        lookups: resolving a request's identifier must not grow the
        table (ordinals are a pure function of the corpus log).
        """
        return self._index.get(value)


def _empty_buffers() -> dict[str, list]:
    return {key: [] for key in _RECORD_DTYPES}


class ColumnProjector:
    """Observes every log line once and emits per-segment column arrays.

    The projector's buffer mirrors the store's unsealed tail: the store
    calls :meth:`observe` for each appended line and :meth:`take_segment`
    when the tail seals, so rows land in exactly one segment.  Per-
    segment watermarks into the delta vocabularies are recorded at every
    seal, which is what lets :meth:`project_lines` re-project a sealed
    segment byte-for-byte long after later segments grew the tables.
    """

    def __init__(self) -> None:
        self.comment_ids = StringTable()
        self.authors = StringTable()
        self.url_ids = StringTable()
        self.url_strings = StringTable()
        self.usernames = StringTable()
        self.tlds = StringTable()
        self.domains = StringTable()
        self.schemes = StringTable()
        self.flags = StringTable()
        self.filters = StringTable()
        self.shadow_labels = StringTable()
        # Derived per-url-string metadata, indexed by url_strings ordinal:
        # (tld, domain, scheme, multi_param) — computed once per distinct
        # URL string, never per record.
        self._url_meta: list[tuple[int, int, int, int]] = []
        self._buffers = _empty_buffers()
        self._pending = 0
        self._marks = {table: 0 for table in _DELTA_TABLES}
        #: per-segment (start, end) vocabulary watermarks, in seal order
        self.segment_marks: list[dict[str, tuple[int, int]]] = []

    # ------------------------------------------------------------------
    # Observation (write path).
    # ------------------------------------------------------------------

    def observe(self, kind: str, record: object) -> None:
        """Project one decoded log line into the row buffer."""
        if isinstance(record, CrawledUser):
            self.observe_user(record)
        elif isinstance(record, CrawledUrl):
            self.observe_url(record)
        elif isinstance(record, CrawledComment):
            self.observe_comment(record)
        else:
            raise TypeError(
                f"no column projection for {kind!r} record "
                f"{type(record).__name__}"
            )

    def observe_user(self, user: CrawledUser) -> None:
        perm_mask = 0
        for name, value in user.permissions.items():
            bit = self.flags.intern(name)
            if value:
                perm_mask |= 1 << bit
        filter_mask = 0
        for name, value in user.view_filters.items():
            bit = self.filters.intern(name)
            if value:
                filter_mask |= 1 << bit
        if len(self.flags) > _MASK_BITS or len(self.filters) > _MASK_BITS:
            raise ValueError(
                "column bitmasks support at most 64 distinct flag names"
            )
        buffers = self._buffers
        buffers["user_key"].append(self.usernames.intern(user.username))
        buffers["user_author"].append(self.authors.intern(user.author_id))
        buffers["user_has_perms"].append(1 if user.permissions else 0)
        buffers["user_perm_mask"].append(perm_mask)
        buffers["user_filter_mask"].append(filter_mask)
        self._pending += 1

    def observe_url(self, url: CrawledUrl) -> None:
        str_ord = self.url_strings.intern(url.url)
        if str_ord == len(self._url_meta):
            self._url_meta.append(self._derive_url_meta(url.url))
        tld, domain, scheme, multi = self._url_meta[str_ord]
        buffers = self._buffers
        buffers["url_key"].append(self.url_ids.intern(url.commenturl_id))
        buffers["url_str"].append(str_ord)
        buffers["url_up"].append(url.upvotes)
        buffers["url_down"].append(url.downvotes)
        buffers["url_tld"].append(tld)
        buffers["url_domain"].append(domain)
        buffers["url_scheme"].append(scheme)
        buffers["url_multi"].append(multi)
        self._pending += 1

    def observe_comment(self, comment: CrawledComment) -> None:
        buffers = self._buffers
        buffers["comment_key"].append(
            self.comment_ids.intern(comment.comment_id)
        )
        buffers["comment_author"].append(self.authors.intern(comment.author_id))
        buffers["comment_url"].append(self.url_ids.intern(comment.commenturl_id))
        buffers["comment_epoch"].append(comment.created_at_epoch)
        buffers["comment_reply"].append(1 if comment.parent_comment_id else 0)
        buffers["comment_shadow"].append(
            self.shadow_labels.intern(comment.shadow_label or "")
        )
        self._pending += 1

    def _derive_url_meta(self, url: str) -> tuple[int, int, int, int]:
        parts = split_url(url)
        tld, domain = split_domains(parts)
        scheme = url.split(":", 1)[0].lower() if ":" in url else "unknown"
        query = parts.query if "://" in url else ""
        return (
            self.tlds.intern(tld) if tld is not None else -1,
            self.domains.intern(domain) if domain is not None else -1,
            self.schemes.intern(scheme),
            1 if query.count("&") >= 1 else 0,
        )

    # ------------------------------------------------------------------
    # Segment boundaries.
    # ------------------------------------------------------------------

    def take_segment(self, expected: int) -> dict[str, np.ndarray]:
        """Drain the row buffer into one sealed segment's arrays."""
        if self._pending != expected:
            raise RuntimeError(
                f"column projector buffered {self._pending} rows but the "
                f"sealing segment holds {expected} records"
            )
        arrays = self._record_arrays(self._buffers)
        marks: dict[str, tuple[int, int]] = {}
        for table in _DELTA_TABLES:
            start = self._marks[table]
            end = len(getattr(self, table))
            marks[table] = (start, end)
            self._marks[table] = end
        self.segment_marks.append(marks)
        arrays.update(self._delta_arrays(marks))
        self._buffers = _empty_buffers()
        self._pending = 0
        return arrays

    def peek_tail(self) -> dict[str, np.ndarray]:
        """Arrays for the unsealed tail (buffer is left untouched)."""
        arrays = self._record_arrays(self._buffers)
        marks = {
            table: (self._marks[table], len(getattr(self, table)))
            for table in _DELTA_TABLES
        }
        arrays.update(self._delta_arrays(marks))
        return arrays

    def project_lines(
        self, lines: list[str], segment_index: int
    ) -> dict[str, np.ndarray]:
        """Re-project one sealed segment from its verified JSONL.

        Every string in a sealed segment is already interned (the
        projector replayed the whole log), so observation here is
        lookup-only and reproduces the original ordinals — and the
        recorded watermarks reproduce the original vocabulary deltas —
        byte-for-byte.
        """
        saved_buffers, saved_pending = self._buffers, self._pending
        self._buffers, self._pending = _empty_buffers(), 0
        try:
            for line in lines:
                kind, record = decode_line(line)
                self.observe(kind, record)
            arrays = self._record_arrays(self._buffers)
        finally:
            self._buffers, self._pending = saved_buffers, saved_pending
        arrays.update(self._delta_arrays(self.segment_marks[segment_index]))
        return arrays

    def _record_arrays(self, buffers: dict[str, list]) -> dict[str, np.ndarray]:
        return {
            key: np.asarray(buffers[key], dtype=dtype)
            for key, dtype in _RECORD_DTYPES.items()
        }

    def _delta_arrays(
        self, marks: dict[str, tuple[int, int]]
    ) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for table, (start, end) in marks.items():
            values = getattr(self, table).values[start:end]
            out["delta_" + table] = np.asarray(values, dtype=np.str_)
        return out


# ---------------------------------------------------------------------------
# On-disk column files.
# ---------------------------------------------------------------------------


def serialize_columns(arrays: dict[str, np.ndarray]) -> bytes:
    """Canonical npz bytes for one segment's arrays.

    ``np.savez`` stores members uncompressed with a fixed zip timestamp
    and preserves kwargs order, so these bytes are a pure function of
    the arrays — the property the sha256 manifest entry relies on.
    """
    buffer = io.BytesIO()
    np.savez(buffer, **{key: arrays[key] for key in COLUMN_KEYS})
    return buffer.getvalue()


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def adopt_columns(
    store_dir: Path, name: str, arrays: dict[str, np.ndarray]
) -> tuple[str, bool]:
    """Write a column file unless identical bytes already exist.

    Returns ``(sha256, reused)`` — ``reused`` is the cache hit a resume
    leg scores when the killed leg already spilled the same projection.
    """
    store_dir = Path(store_dir)
    data = serialize_columns(arrays)
    digest = hashlib.sha256(data).hexdigest()
    path = columns_path(store_dir, name)
    try:
        existing = path.read_bytes()
    except OSError:
        existing = None
    if existing == data:
        return digest, True
    store_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write_bytes(path, data)
    return digest, False


def heal_columns(
    store_dir: Path,
    name: str,
    arrays: dict[str, np.ndarray],
    expected_sha: str,
) -> bool:
    """Rewrite a failed column file from re-projected arrays.

    Returns True when the recomputed bytes match the manifested hash
    (the heal is then durable); False leaves the bad file untouched so
    the mismatch stays visible.
    """
    data = serialize_columns(arrays)
    if hashlib.sha256(data).hexdigest() != expected_sha:
        return False
    _atomic_write_bytes(columns_path(Path(store_dir), name), data)
    return True


def load_columns(
    store_dir: Path, ref: SegmentRef
) -> dict[str, np.ndarray] | None:
    """Load one segment's verified column arrays, or None.

    The file's bytes are hashed against ``ref.columns_sha256`` before
    anything is parsed; a missing, unmanifested, or corrupt file returns
    None so the caller can fall back to re-projection from the JSONL.
    Members are memory-mapped in place when the zip layout allows it.
    """
    if ref.columns_sha256 is None:
        return None
    path = columns_path(Path(store_dir), ref.name)
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
    except OSError:
        return None
    if digest.hexdigest() != ref.columns_sha256:
        return None
    try:
        arrays = _mmap_members(path)
    except Exception:
        # Unexpected zip layout (compressed members, fortran order, …):
        # the bytes are verified, so an eager load is still correct.
        try:
            with np.load(path) as bundle:
                arrays = {key: bundle[key] for key in bundle.files}
        except Exception:
            return None
    if any(key not in arrays for key in COLUMN_KEYS):
        return None
    return arrays


def _mmap_members(path: Path) -> dict[str, np.ndarray]:
    """Zero-copy views into an uncompressed npz's members."""
    from numpy.lib import format as npformat

    out: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as bundle, open(path, "rb") as raw:
        for info in bundle.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError("compressed npz member")
            with bundle.open(info) as member:
                version = npformat.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = npformat.read_array_header_1_0(member)
                elif version == (2, 0):
                    shape, fortran, dtype = npformat.read_array_header_2_0(member)
                else:
                    raise ValueError(f"unsupported npy version {version}")
                consumed = member.tell()
            if fortran or len(shape) != 1:
                raise ValueError("unexpected member layout")
            # The zip local header precedes the member payload; its name
            # and extra-field lengths live at fixed offsets 26 and 28.
            raw.seek(info.header_offset)
            local = raw.read(30)
            if local[:4] != b"PK\x03\x04":
                raise ValueError("bad local file header")
            name_len = int.from_bytes(local[26:28], "little")
            extra_len = int.from_bytes(local[28:30], "little")
            offset = info.header_offset + 30 + name_len + extra_len + consumed
            key = info.filename.removesuffix(".npy")
            if shape[0] == 0:
                out[key] = np.empty(shape, dtype=dtype)
            else:
                out[key] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=shape
                )
    return out


# ---------------------------------------------------------------------------
# Read surface.
# ---------------------------------------------------------------------------


@dataclass
class CommentColumns:
    """Deduplicated per-comment columns, in corpus (dict) order."""

    key: np.ndarray        # ordinal into comment_ids
    author: np.ndarray     # ordinal into authors
    url: np.ndarray        # ordinal into url_ids
    epoch: np.ndarray
    reply: np.ndarray
    shadow: np.ndarray     # ordinal into shadow_labels

    @property
    def n(self) -> int:
        return int(self.key.size)


@dataclass
class UrlColumns:
    """Deduplicated per-URL columns, in corpus (dict) order."""

    key: np.ndarray        # ordinal into url_ids
    str_ord: np.ndarray    # ordinal into url_strings
    up: np.ndarray
    down: np.ndarray
    net: np.ndarray        # up - down
    tld: np.ndarray        # ordinal into tlds, -1 = none
    domain: np.ndarray     # ordinal into domains, -1 = none
    scheme: np.ndarray     # ordinal into schemes
    multi: np.ndarray

    @property
    def n(self) -> int:
        return int(self.key.size)


@dataclass
class UserColumns:
    """Deduplicated per-user columns, in corpus (dict) order."""

    key: np.ndarray          # ordinal into usernames
    author: np.ndarray       # ordinal into authors
    has_perms: np.ndarray
    perm_mask: np.ndarray
    filter_mask: np.ndarray

    @property
    def n(self) -> int:
        return int(self.key.size)


class ColumnView:
    """Lazy, memoised columnar read surface over a sealed store.

    Log-level columns concatenate per-segment (memory-mapped) arrays
    plus the unsealed tail on first touch, per column.  Record-level
    views (:attr:`comments` / :attr:`urls` / :attr:`users`) deduplicate
    revision re-appends: for each key ordinal the *last* log row wins
    (final field values) while rows are ordered by *first* appearance,
    reproducing the store dicts' first-insertion order exactly.
    """

    def __init__(self, store: "CorpusStore") -> None:
        self._store = store
        self._chunks: list[dict] | None = None
        self._columns: dict[str, np.ndarray] = {}
        self._memo_comments: CommentColumns | None = None
        self._memo_urls: UrlColumns | None = None
        self._memo_users: UserColumns | None = None
        self._memo_per_author: np.ndarray | None = None
        self._memo_per_url: np.ndarray | None = None
        self._memo_url_groups: tuple[np.ndarray, np.ndarray] | None = None
        self._memo_author_groups: tuple[np.ndarray, np.ndarray] | None = None
        self._memo_score_rows: list | None = None
        self._memo_scores: dict[str, np.ndarray] = {}

    @property
    def tables(self) -> ColumnProjector:
        """The projector owning every intern table (read-only use)."""
        return self._store.projector

    # -- log-level columns ---------------------------------------------

    def column(self, key: str) -> np.ndarray:
        """One concatenated log-order column (memoised)."""
        arr = self._columns.get(key)
        if arr is None:
            if self._chunks is None:
                self._chunks = self._store.column_chunks()
            parts = [chunk[key] for chunk in self._chunks if chunk[key].size]
            if not parts:
                arr = np.asarray([], dtype=_RECORD_DTYPES.get(key, np.str_))
            elif len(parts) == 1:
                arr = np.asarray(parts[0])
            else:
                arr = np.concatenate(parts)
            self._columns[key] = arr
        return arr

    # -- deduplicated record views -------------------------------------

    def _dedup(
        self, key_column: str, table_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ordinals in first-appearance order, last log row per ordinal)."""
        key = self.column(key_column)
        if key.size == 0:
            empty = np.asarray([], dtype=np.int64)
            return empty, empty
        rows = np.arange(key.size, dtype=np.int64)
        last = np.zeros(table_size, dtype=np.int64)
        last[key] = rows
        first = np.zeros(table_size, dtype=np.int64)
        first[key[::-1]] = rows[::-1]
        present = np.zeros(table_size, dtype=bool)
        present[key] = True
        ordinals = np.nonzero(present)[0]
        order = ordinals[np.argsort(first[ordinals], kind="stable")]
        return order, last[order]

    @property
    def comments(self) -> CommentColumns:
        memo = self._memo_comments
        if memo is None:
            order, rows = self._dedup(
                "comment_key", len(self.tables.comment_ids)
            )
            memo = CommentColumns(
                key=order,
                author=self.column("comment_author")[rows],
                url=self.column("comment_url")[rows],
                epoch=self.column("comment_epoch")[rows],
                reply=self.column("comment_reply")[rows],
                shadow=self.column("comment_shadow")[rows],
            )
            self._memo_comments = memo
        return memo

    @property
    def urls(self) -> UrlColumns:
        memo = self._memo_urls
        if memo is None:
            order, rows = self._dedup("url_key", len(self.tables.url_ids))
            up = self.column("url_up")[rows]
            down = self.column("url_down")[rows]
            memo = UrlColumns(
                key=order,
                str_ord=self.column("url_str")[rows],
                up=up,
                down=down,
                net=up - down,
                tld=self.column("url_tld")[rows],
                domain=self.column("url_domain")[rows],
                scheme=self.column("url_scheme")[rows],
                multi=self.column("url_multi")[rows],
            )
            self._memo_urls = memo
        return memo

    @property
    def users(self) -> UserColumns:
        memo = self._memo_users
        if memo is None:
            order, rows = self._dedup("user_key", len(self.tables.usernames))
            memo = UserColumns(
                key=order,
                author=self.column("user_author")[rows],
                has_perms=self.column("user_has_perms")[rows],
                perm_mask=self.column("user_perm_mask")[rows],
                filter_mask=self.column("user_filter_mask")[rows],
            )
            self._memo_users = memo
        return memo

    # -- shared reductions ---------------------------------------------

    def comments_per_author(self) -> np.ndarray:
        """Comment count per author ordinal (deduplicated comments)."""
        memo = self._memo_per_author
        if memo is None:
            memo = np.bincount(
                self.comments.author, minlength=len(self.tables.authors)
            )
            self._memo_per_author = memo
        return memo

    def comments_per_url_id(self) -> np.ndarray:
        """Comment count per url-id ordinal (deduplicated comments)."""
        memo = self._memo_per_url
        if memo is None:
            memo = np.bincount(
                self.comments.url, minlength=len(self.tables.url_ids)
            )
            self._memo_per_url = memo
        return memo

    def active_author_mask(self) -> np.ndarray:
        """Author ordinals with at least one crawled comment."""
        return self.comments_per_author() > 0

    def url_comment_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(stable comment order grouped by url ordinal, group offsets).

        ``order[offsets[u]:offsets[u + 1]]`` indexes this view's
        deduplicated comments for url ordinal ``u``, preserving corpus
        order within the group.
        """
        memo = self._memo_url_groups
        if memo is None:
            order = np.argsort(self.comments.url, kind="stable")
            counts = self.comments_per_url_id()
            offsets = np.concatenate(
                [[0], np.cumsum(counts, dtype=np.int64)]
            )
            memo = (order, offsets)
            self._memo_url_groups = memo
        return memo

    def author_comment_order(self) -> tuple[np.ndarray, np.ndarray]:
        """(stable comment order grouped by author ordinal, group offsets).

        ``order[offsets[a]:offsets[a + 1]]`` indexes this view's
        deduplicated comments for author ordinal ``a``, preserving
        corpus order within the group — the author-side mirror of
        :meth:`url_comment_order`.
        """
        memo = self._memo_author_groups
        if memo is None:
            order = np.argsort(self.comments.author, kind="stable")
            counts = self.comments_per_author()
            offsets = np.concatenate(
                [[0], np.cumsum(counts, dtype=np.int64)]
            )
            memo = (order, offsets)
            self._memo_author_groups = memo
        return memo

    # -- score columns -------------------------------------------------

    def score_rows(self, score_store: Any) -> list:
        """Perspective score rows for every comment, in corpus order.

        The rows are the score store's own cached dicts (scoring is a
        pure function of the text), memoised once per view so repeated
        analyses share one pass.
        """
        rows = self._memo_score_rows
        if rows is None:
            rows = list(score_store.score_many(list(self._store.texts())))
            self._memo_score_rows = rows
        return rows

    def attribute_scores(self, score_store: Any, attribute: str) -> np.ndarray:
        """One attribute's scores as a float64 column, in corpus order."""
        arr = self._memo_scores.get(attribute)
        if arr is None:
            rows = self.score_rows(score_store)
            arr = np.asarray([row[attribute] for row in rows], dtype=float)
            self._memo_scores[attribute] = arr
        return arr


def columns_of(corpus: "CorpusStore") -> ColumnView:
    """The sealed store's column view (what every §4 analysis reads).

    Raises:
        ValueError: the store is not sealed yet.
    """
    return corpus.column_view()
