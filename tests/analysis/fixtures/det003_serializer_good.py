"""DET003 good fixture: serializers emit deterministically ordered lists."""

from dataclasses import dataclass, field


@dataclass
class PartialCrawl:
    ids: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        deduped = sorted(dict.fromkeys(self.ids))
        return {
            "ids": deduped,
            "labels": sorted(dict.fromkeys(self.labels)),
        }
