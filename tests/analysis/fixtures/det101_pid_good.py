"""DET101 good twin of det101_pid_bad: payloads keyed by a stable shard id."""

from dataclasses import dataclass


@dataclass
class ShardState:
    owner: int = 0


def claim(state: ShardState, shard_id: int) -> None:
    state.owner = shard_id


def to_payload(state: ShardState) -> dict:
    return {"owner": state.owner}
