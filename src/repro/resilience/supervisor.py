"""Pool supervision: crash-storm detection across worker-pool rebuilds.

The trial runner heals a broken process pool by rebuilding it -- correct for
the occasional OOM-killed worker, but a *systematically* crashing payload
(a native extension segfaulting on one input, a cgroup limit) turns that
healing into a livelock: rebuild, resubmit, crash, rebuild, ...  The
:class:`PoolSupervisor` watches the rebuild rate; once ``threshold``
rebuilds land inside ``window_seconds`` it declares a **crash storm**, at
which point the runner quarantines the payloads implicated in repeated
crashes and degrades the rest of the sweep to inline serial execution.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque

__all__ = ["PoolSupervisor"]


class PoolSupervisor:
    """Counts pool rebuilds inside a sliding time window.

    Parameters
    ----------
    threshold:
        Rebuilds within the window that constitute a storm.
    window_seconds:
        Width of the sliding window.
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        threshold: int,
        window_seconds: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if window_seconds <= 0:
            raise ValueError(
                f"window_seconds must be positive, got {window_seconds}"
            )
        self.threshold = threshold
        self.window_seconds = window_seconds
        self._clock = clock
        self._recent: Deque[float] = deque()
        #: Total rebuilds recorded over the supervisor's lifetime.
        self.rebuilds = 0

    def _evict(self, now: float) -> None:
        while self._recent and now - self._recent[0] > self.window_seconds:
            self._recent.popleft()

    def record_rebuild(self) -> bool:
        """Record one pool rebuild; ``True`` when the storm threshold is
        reached (``threshold`` rebuilds inside the window)."""
        now = self._clock()
        self._recent.append(now)
        self.rebuilds += 1
        self._evict(now)
        return len(self._recent) >= self.threshold
