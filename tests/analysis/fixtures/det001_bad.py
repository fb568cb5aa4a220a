"""DET001 bad fixture: wall-clock reads."""

import time
from datetime import datetime
from time import monotonic


def stamp_crawl_page() -> float:
    return time.time()                  # line 9: time.time


def wait_politely() -> None:
    time.sleep(1.0)                     # line 13: time.sleep


def profile_window() -> float:
    return monotonic()                  # line 17: from-imported monotonic


def checkpoint_written_at() -> str:
    return datetime.now().isoformat()   # line 21: argless datetime.now
