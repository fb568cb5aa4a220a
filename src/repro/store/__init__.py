"""repro.store — the segmented, append-only corpus store.

Public surface:

* :class:`CorpusStore` — the crawl/score/analyze corpus interface
  (append log, size-bounded segments, optional spill-to-disk, memoised
  post-seal indexes, streaming views, checkpoint snapshots).
* the columnar projection (:class:`ColumnView`, :func:`columns_of`,
  :data:`PROJECTION_SPEC`) that the vectorized §4 analyses read.
* the canonical JSONL codecs and segment/manifest helpers.
"""

from __future__ import annotations

from repro.store.codecs import (
    decode_comment,
    decode_line,
    decode_url,
    decode_user,
    encode_comment,
    encode_record,
    encode_url,
    encode_user,
)
from repro.store.columns import (
    PROJECTION_SPEC,
    ColumnProjector,
    ColumnView,
    columns_of,
)
from repro.store.corpus import (
    STORE_FORMAT_VERSION,
    CorpusStore,
    SealedCorpusError,
)
from repro.store.segments import (
    MANIFEST_NAME,
    SegmentRef,
    columns_path,
    hash_lines,
    load_manifest,
    read_segment,
    segment_name,
    segment_path,
    write_manifest,
    write_segment,
)

__all__ = [
    "ColumnProjector",
    "ColumnView",
    "CorpusStore",
    "MANIFEST_NAME",
    "PROJECTION_SPEC",
    "STORE_FORMAT_VERSION",
    "SealedCorpusError",
    "SegmentRef",
    "columns_of",
    "columns_path",
    "decode_comment",
    "decode_line",
    "decode_url",
    "decode_user",
    "encode_comment",
    "encode_record",
    "encode_url",
    "encode_user",
    "hash_lines",
    "load_manifest",
    "read_segment",
    "segment_name",
    "segment_path",
    "write_manifest",
    "write_segment",
]
