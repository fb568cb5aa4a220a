"""DET003 bad fixture: sets built inside a serializer and iterated by list()."""

from dataclasses import dataclass, field


@dataclass
class PartialCrawl:
    ids: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "ids": list({i.lower() for i in self.ids}),     # line 13: set comp
            "labels": list(set(self.labels)),               # line 14: set()
        }
