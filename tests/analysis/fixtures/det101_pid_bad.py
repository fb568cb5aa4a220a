"""DET101 bad fixture: a pid parked in a dataclass field, then serialized.

No per-file checker sees ``os.getpid()``; here the pid is stashed in
``ShardState.owner`` during setup (line 18) and only serialized later
(line 22), so the bytes differ on every run.
"""

import os
from dataclasses import dataclass


@dataclass
class ShardState:
    owner: int = 0


def claim(state: ShardState) -> None:
    state.owner = os.getpid()               # line 18: pid into the field


def to_payload(state: ShardState) -> dict:
    return {"owner": state.owner}           # line 22: field into the bytes
