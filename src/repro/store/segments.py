"""Segment files and the store manifest.

A sealed segment is an immutable JSONL file of exactly ``count`` encoded
records whose bytes are covered by a SHA-256 content hash; the manifest
lists every sealed segment in order.  Checkpoint format v3 records only
these (name, count, hash) references plus the unsealed tail, so the
store's share of a checkpoint tick is bounded by the tail, not the corpus.

A segment may additionally carry a columnar projection — a ``.npz``
sibling file (:mod:`repro.store.columns`) whose SHA-256 travels in the
same reference as ``columns_sha256``.  The column file is derived data:
when it is missing or fails verification the store re-projects it from
the hash-verified JSONL, so older manifests without the field stay
loadable.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

from repro.crawler.checkpoint import atomic_write_bytes, atomic_write_json

__all__ = [
    "MANIFEST_NAME",
    "SegmentRef",
    "columns_path",
    "hash_lines",
    "load_manifest",
    "read_segment",
    "segment_name",
    "segment_path",
    "write_manifest",
    "write_segment",
]

MANIFEST_NAME = "manifest.json"
_MANIFEST_VERSION = 1

# Segment names are generated, never user input — but refs round-trip
# through checkpoint documents, so reject anything that could traverse
# out of the store directory when resolved back to a path.
_NAME_RE = re.compile(r"^segment-\d{6}$")


def segment_name(ordinal: int) -> str:
    """The canonical name of the ``ordinal``-th sealed segment (1-based)."""
    return f"segment-{ordinal:06d}"


def segment_path(store_dir: Path, name: str) -> Path:
    return Path(store_dir) / f"{name}.jsonl"


def columns_path(store_dir: Path, name: str) -> Path:
    """Where a segment's columnar projection (``.npz``) lives on disk."""
    return Path(store_dir) / f"{name}.columns.npz"


def _segment_bytes(lines: list[str]) -> bytes:
    """A segment's exact on-disk bytes: every line, newline-terminated."""
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def hash_lines(lines: list[str]) -> str:
    """SHA-256 over the segment's exact on-disk bytes."""
    return hashlib.sha256(_segment_bytes(lines)).hexdigest()


@dataclass(frozen=True)
class SegmentRef:
    """One sealed segment: its name, record count, and content hashes.

    ``columns_sha256`` covers the segment's derived ``.npz`` column file
    when one has been spilled to disk; ``None`` means no columnar
    projection is manifested (inline store, columns disabled, or a
    pre-columnar manifest).
    """

    name: str
    count: int
    sha256: str
    columns_sha256: str | None = None

    def to_payload(self) -> dict:
        payload = {
            "name": self.name, "count": self.count, "sha256": self.sha256,
        }
        if self.columns_sha256 is not None:
            payload["columns_sha256"] = self.columns_sha256
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SegmentRef":
        """Parse a segment reference.

        Raises:
            ValueError: malformed payload or unsafe segment name.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"segment ref must be an object, got {type(payload).__name__}"
            )
        try:
            columns = payload.get("columns_sha256")
            ref = cls(
                name=str(payload["name"]),
                count=int(payload["count"]),
                sha256=str(payload["sha256"]),
                columns_sha256=str(columns) if columns is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed segment ref: {exc!r}") from exc
        if not _NAME_RE.match(ref.name):
            raise ValueError(f"invalid segment name {ref.name!r}")
        if ref.count < 0:
            raise ValueError(f"negative segment count {ref.count}")
        return ref


def write_segment(store_dir: Path, name: str, lines: list[str]) -> SegmentRef:
    """Write one sealed segment atomically; returns its reference.

    The body is joined and encoded once; the hash covers the bytes
    written.
    """
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    data = _segment_bytes(lines)
    atomic_write_bytes(segment_path(store_dir, name), data)
    return SegmentRef(
        name=name, count=len(lines), sha256=hashlib.sha256(data).hexdigest()
    )


def read_segment(store_dir: Path, ref: SegmentRef) -> list[str]:
    """Read a sealed segment back, verifying count and content hash.

    Raises:
        ValueError: the file is missing, truncated, or its bytes do not
            match the reference hash (a torn or tampered segment must
            never be silently replayed into a resumed corpus).
    """
    path = segment_path(Path(store_dir), ref.name)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"unreadable segment {ref.name}: {exc}") from exc
    lines = text.splitlines()
    if len(lines) != ref.count:
        raise ValueError(
            f"segment {ref.name} holds {len(lines)} records, "
            f"reference says {ref.count}"
        )
    digest = hash_lines(lines)
    if digest != ref.sha256:
        raise ValueError(
            f"segment {ref.name} content hash mismatch "
            f"(expected {ref.sha256}, got {digest})"
        )
    return lines


def write_manifest(
    store_dir: Path, segment_records: int, refs: list[SegmentRef]
) -> None:
    """Write the store manifest atomically (one entry per sealed segment)."""
    store_dir = Path(store_dir)
    store_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(
        store_dir / MANIFEST_NAME,
        {
            "version": _MANIFEST_VERSION,
            "segment_records": segment_records,
            "total_records": sum(ref.count for ref in refs),
            "segments": [ref.to_payload() for ref in refs],
        },
    )


def load_manifest(store_dir: Path) -> dict:
    """Read and validate the store manifest.

    Returns the manifest payload with ``segments`` parsed into
    :class:`SegmentRef` instances.

    Raises:
        ValueError: missing, unparsable, or wrong-version manifest.
    """
    import json

    path = Path(store_dir) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"unreadable manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("manifest must be a JSON object")
    if payload.get("version") != _MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest version {payload.get('version')!r}"
        )
    refs = [SegmentRef.from_payload(entry) for entry in payload.get("segments", [])]
    return {**payload, "segments": refs}
