"""DET002 bad fixture: unseeded / global-state randomness and OS entropy."""

import os
import random
import secrets
import uuid

import numpy as np


def jitter() -> float:
    return random.random()              # line 12: global stdlib RNG


def make_rng() -> random.Random:
    return random.Random()              # line 16: unseeded Random()


def entropy_rng() -> np.random.Generator:
    return np.random.default_rng()      # line 20: unseeded default_rng


def shuffle_in_place(items: list) -> None:
    np.random.shuffle(items)            # line 24: numpy global state


def request_id() -> str:
    return str(uuid.uuid4())            # line 28: random uuid


def node_id() -> str:
    return str(uuid.uuid1())            # line 32: host time + clock_seq


def salt() -> bytes:
    return os.urandom(8)                # line 36: OS entropy


def token() -> str:
    return secrets.token_hex(8)         # line 40: secrets module
