"""API-shaped client for the Perspective models.

Mirrors the real AnalyzeComment contract closely enough that analysis code
reads like it would against Google's endpoint: requests carry a comment
and a set of requested attributes, responses carry per-attribute summary
scores, and a daily quota is enforced (the real API meters queries per
second and per day; the paper scored 1.68M comments through it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.perspective.models import ATTRIBUTES, PerspectiveModels

__all__ = ["AnalyzeRequest", "AnalyzeResponse", "PerspectiveClient", "QuotaExceeded"]


class QuotaExceeded(Exception):
    """The client's configured quota has been exhausted."""

    def __init__(self, quota: int):
        super().__init__(f"Perspective quota of {quota} requests exhausted")
        self.quota = quota


@dataclass(frozen=True)
class AnalyzeRequest:
    """One comment-analysis request."""

    text: str
    requested_attributes: tuple[str, ...] = ATTRIBUTES

    def __post_init__(self) -> None:
        unknown = set(self.requested_attributes) - set(ATTRIBUTES)
        if unknown:
            raise ValueError(f"unknown attributes: {sorted(unknown)}")


@dataclass(frozen=True)
class AnalyzeResponse:
    """Per-attribute summary scores for one comment."""

    attribute_scores: dict[str, float] = field(default_factory=dict)

    def score(self, attribute: str) -> float:
        return self.attribute_scores[attribute]


class PerspectiveClient:
    """Quota-accounted client over the local models.

    Args:
        quota: maximum number of analyze calls (None = unlimited).
        models: shared model instance; a new one is created when omitted.
    """

    def __init__(
        self,
        quota: int | None = None,
        models: PerspectiveModels | None = None,
    ):
        self._models = models or PerspectiveModels()
        self._quota = quota
        self.requests_made = 0

    @property
    def remaining_quota(self) -> int | None:
        if self._quota is None:
            return None
        return max(0, self._quota - self.requests_made)

    def analyze(self, request: AnalyzeRequest) -> AnalyzeResponse:
        """Score one comment.

        Raises:
            QuotaExceeded: the configured quota is spent.
        """
        if self._quota is not None and self.requests_made >= self._quota:
            raise QuotaExceeded(self._quota)
        self.requests_made += 1
        all_scores = self._models.score(request.text)
        return AnalyzeResponse(
            attribute_scores={
                name: all_scores[name] for name in request.requested_attributes
            }
        )

    def analyze_batch(
        self, texts: Sequence[str], attributes: Iterable[str] = ATTRIBUTES
    ) -> list[AnalyzeResponse]:
        """Score a batch of comments in request order."""
        requested = tuple(attributes)
        return [
            self.analyze(AnalyzeRequest(text=text, requested_attributes=requested))
            for text in texts
        ]
