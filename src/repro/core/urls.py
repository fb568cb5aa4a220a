"""URL analysis (§4.2.1, Table 2).

TLD and second-level-domain ranking, scheme census (HTTPS/HTTP/file/
browser), the protocol-only and trailing-slash duplicate counts, GET-
parameter over-counting, and the per-URL comment-volume ranking that
surfaces fringe domains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np

from repro.store import CorpusStore, columns_of

__all__ = ["UrlTableStats", "analyze_urls", "second_level_domain", "tld_of"]

# Multi-label suffixes treated as a single effective TLD, as Table 2 does
# (bbc.co.uk counts toward .uk).
_COMPOSITE_SUFFIXES = (".co.uk", ".org.uk", ".ac.uk", ".co.nz", ".com.au")


def tld_of(url: str) -> str | None:
    """Effective TLD of a URL (None for non-network schemes)."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        return None
    host = parts.netloc.lower().rsplit(":", 1)[0]
    if "." not in host:
        return None
    return "." + host.rsplit(".", 1)[1]


def second_level_domain(url: str) -> str | None:
    """Registrable domain, respecting composite public suffixes."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        return None
    host = parts.netloc.lower().rsplit(":", 1)[0]
    for suffix in _COMPOSITE_SUFFIXES:
        if host.endswith(suffix):
            stem = host[: -len(suffix)]
            if not stem:
                return None
            return stem.rsplit(".", 1)[-1] + suffix
    if host.count(".") == 0:
        return None
    pieces = host.rsplit(".", 2)
    return ".".join(pieces[-2:])


@dataclass
class UrlTableStats:
    """Table 2 plus the §4.2.1 anomaly census."""

    total_urls: int
    tld_counts: dict[str, int] = field(default_factory=dict)
    domain_counts: dict[str, int] = field(default_factory=dict)
    scheme_counts: dict[str, int] = field(default_factory=dict)
    protocol_duplicates: int = 0
    trailing_slash_duplicates: int = 0
    multi_param_urls: int = 0
    median_volume_by_domain: dict[str, float] = field(default_factory=dict)
    top_volume_urls: list[tuple[int, str]] = field(default_factory=list)

    def top_tlds(self, k: int = 10) -> list[tuple[str, int]]:
        return sorted(self.tld_counts.items(), key=lambda x: -x[1])[:k]

    def top_domains(self, k: int = 10) -> list[tuple[str, int]]:
        return sorted(self.domain_counts.items(), key=lambda x: -x[1])[:k]

    def tld_fraction(self, tld: str) -> float:
        return self.tld_counts.get(tld, 0) / self.total_urls if self.total_urls else 0.0

    def domain_fraction(self, domain: str) -> float:
        return (
            self.domain_counts.get(domain, 0) / self.total_urls
            if self.total_urls
            else 0.0
        )


def _ordered_counts(values: np.ndarray, n_names: int) -> list[tuple[int, int]]:
    """Occurrence counts per ordinal as (ordinal, count) pairs.

    Pairs come in first-appearance order over ``values`` (negative
    ordinals meaning "no value" are skipped), so the count dicts keep
    the corpus's first-appearance order.
    """
    valid = values[values >= 0]
    if valid.size == 0:
        return []
    counts = np.bincount(valid, minlength=n_names)
    first = np.full(n_names, -1, dtype=np.int64)
    first[valid[::-1]] = np.arange(valid.size - 1, -1, -1, dtype=np.int64)
    present = np.nonzero(counts)[0]
    order = present[np.argsort(first[present], kind="stable")]
    return [(int(ordinal), int(counts[ordinal])) for ordinal in order]


def analyze_urls(result: CorpusStore) -> UrlTableStats:
    """Run the §4.2.1 census over the crawled URL set."""
    view = columns_of(result)
    urls = view.urls
    tables = view.tables
    stats = UrlTableStats(total_urls=urls.n)

    scheme_names = tables.schemes.values
    for ordinal, count in _ordered_counts(urls.scheme, len(scheme_names)):
        stats.scheme_counts[scheme_names[ordinal]] = count
    tld_names = tables.tlds.values
    for ordinal, count in _ordered_counts(urls.tld, len(tld_names)):
        stats.tld_counts[tld_names[ordinal]] = count
    domain_names = tables.domains.values
    domain_pairs = _ordered_counts(urls.domain, len(domain_names))
    for ordinal, count in domain_pairs:
        stats.domain_counts[domain_names[ordinal]] = count
    stats.multi_param_urls = int(urls.multi.sum())

    # Duplicate censuses need the URL strings; flag each *distinct*
    # string once, then weight by per-record occurrence.
    url_names = tables.url_strings.values
    distinct = np.unique(urls.str_ord)
    distinct_strs = [url_names[ordinal] for ordinal in distinct.tolist()]
    https_set = {
        s[len("https://"):] for s in distinct_strs if s.startswith("https://")
    }
    all_urls = set(distinct_strs)
    protocol_dup = np.zeros(len(url_names), dtype=bool)
    trailing_dup = np.zeros(len(url_names), dtype=bool)
    for ordinal, text in zip(distinct.tolist(), distinct_strs):
        if text.startswith("http://") and text[len("http://"):] in https_set:
            protocol_dup[ordinal] = True
        if text.endswith("/") and text[:-1] in all_urls:
            trailing_dup[ordinal] = True
    stats.protocol_duplicates = int(protocol_dup[urls.str_ord].sum())
    stats.trailing_slash_duplicates = int(trailing_dup[urls.str_ord].sum())

    # Per-URL comment volume: top-20 by (count, url) descending, and the
    # per-domain medians keyed in first-appearance order.
    volumes = view.comments_per_url_id()[urls.key]
    url_arr = np.asarray(url_names, dtype=np.str_)[urls.str_ord]
    ranked = np.lexsort((url_arr, volumes))[::-1][:20]
    stats.top_volume_urls = [
        (int(volumes[i]), str(url_arr[i])) for i in ranked
    ]
    with_domain = urls.domain >= 0
    domains = urls.domain[with_domain]
    domain_volumes = volumes[with_domain]
    grouped = domain_volumes[np.argsort(domains, kind="stable")]
    group_counts = np.bincount(domains, minlength=len(domain_names))
    offsets = np.concatenate([[0], np.cumsum(group_counts, dtype=np.int64)])
    for ordinal, _ in domain_pairs:
        start, end = offsets[ordinal], offsets[ordinal + 1]
        stats.median_volume_by_domain[domain_names[ordinal]] = float(
            np.median(grouped[start:end])
        )
    return stats
