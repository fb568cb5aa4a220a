"""DET002 good fixture: every generator descends from an explicit seed."""

import random
import uuid

import numpy as np


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def make_np_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def spawn_streams(seed: int, n: int) -> list[np.random.Generator]:
    master = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in master.spawn(n)]


def draw(rng: np.random.Generator) -> float:
    return float(rng.uniform())


def stable_id(url: str) -> str:
    return str(uuid.uuid5(uuid.NAMESPACE_URL, url))   # name-based: no entropy
