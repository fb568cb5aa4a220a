"""Crawl validation (§3.2's accuracy and completeness checks).

Three independent verifications:

1. **Internal consistency** — timestamps decoded from the undocumented
   12-byte IDs must agree with the page-reported timestamps and fall
   inside the study window; every comment must reference a crawled URL;
   every reply's parent must exist.
2. **Completeness** — pages that timed out are re-requested until the
   failure list drains (bounded by a retry budget).
3. **Shadow-label verification** — a random sample of NSFW/offensive
   comments is manually re-checked with and without the authenticated
   view settings (the paper verified 100 and found all correctly
   labelled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import TYPE_CHECKING

from repro.crawler.shadow import ShadowCrawler
from repro.stats.sampling import reservoir_sample

if TYPE_CHECKING:   # runtime import would cycle through the crawler package
    from repro.store.corpus import CorpusStore

__all__ = ["CrawlValidator", "ValidationReport"]


@dataclass
class ValidationReport:
    """Aggregated validation outcome."""

    comments_checked: int = 0
    timestamp_mismatches: int = 0
    dangling_url_refs: int = 0
    dangling_parent_refs: int = 0
    ids_outside_window: int = 0
    shadow_sample_size: int = 0
    shadow_verified: int = 0
    issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            self.timestamp_mismatches == 0
            and self.dangling_url_refs == 0
            and self.dangling_parent_refs == 0
            and self.ids_outside_window == 0
            and self.shadow_verified == self.shadow_sample_size
        )


class CrawlValidator:
    """Runs the §3.2 validation protocol over a crawl result."""

    def __init__(
        self,
        window_start: float,
        window_end: float,
        timestamp_tolerance: float = 2.0,
    ):
        if window_start >= window_end:
            raise ValueError("window_start must precede window_end")
        self._window = (window_start, window_end)
        self._tolerance = timestamp_tolerance

    def check_consistency(self, result: CorpusStore) -> ValidationReport:
        """Run the internal-consistency checks."""
        report = ValidationReport()
        lo, hi = self._window
        for comment in result.comments.values():
            report.comments_checked += 1
            id_time = comment.created_at
            if abs(id_time - comment.created_at_epoch) > self._tolerance:
                report.timestamp_mismatches += 1
                report.issues.append(
                    f"comment {comment.comment_id}: id-time {id_time} != "
                    f"page-time {comment.created_at_epoch}"
                )
            if not lo <= id_time <= hi:
                report.ids_outside_window += 1
                report.issues.append(
                    f"comment {comment.comment_id}: created {id_time} "
                    f"outside study window"
                )
            if comment.commenturl_id not in result.urls:
                report.dangling_url_refs += 1
                report.issues.append(
                    f"comment {comment.comment_id}: unknown URL "
                    f"{comment.commenturl_id}"
                )
            if (
                comment.parent_comment_id is not None
                and comment.parent_comment_id not in result.comments
            ):
                report.dangling_parent_refs += 1
                report.issues.append(
                    f"comment {comment.comment_id}: missing parent "
                    f"{comment.parent_comment_id}"
                )
        return report

    def verify_shadow_sample(
        self,
        result: CorpusStore,
        shadow_crawler: ShadowCrawler,
        sample_size: int = 100,
        seed: int = 0,
        report: ValidationReport | None = None,
    ) -> ValidationReport:
        """Manually verify a sample of shadow-labelled comments."""
        report = report or ValidationReport()
        labelled = [
            c.comment_id
            for c in result.comments.values()
            if c.shadow_label is not None
        ]
        if not labelled:
            return report
        sample = reservoir_sample(
            labelled, min(sample_size, len(labelled)), seed=seed
        )
        outcomes = shadow_crawler.verify_sample(result, sample)
        report.shadow_sample_size = len(sample)
        report.shadow_verified = sum(1 for ok in outcomes.values() if ok)
        for comment_id, ok in outcomes.items():
            if not ok:
                report.issues.append(
                    f"shadow comment {comment_id} failed manual verification"
                )
        return report
