"""Grouping sweep trials into same-shape batches.

A trial batch is a set of trial indices whose payloads share a *shape
key* -- everything that must be equal for their per-trial state to stack
along a leading batch axis (for the capacity sweeps: the grid point
``n``; parameters, scheme and build kwargs are constant within one
sweep).  :class:`BatchedTrialPlan` partitions a payload list into
:class:`TrialBatch` chunks of at most ``batch_trials`` members, keeping
trial-index order inside every batch so the batched runner hands each
member exactly the seed its serial counterpart would use.

Payloads whose shape key is ``None`` are declared unbatchable and get a
singleton batch each (the batched trial function degrades to the serial
per-trial path for width-1 batches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence, Tuple

__all__ = ["TrialBatch", "BatchedTrialPlan"]


@dataclass(frozen=True)
class TrialBatch:
    """One group of same-shape trials executed as a unit."""

    #: The shared shape key (``None`` for an unbatchable singleton).
    shape_key: Optional[Hashable]
    #: Trial indices of the members, in ascending trial-index order.
    indices: Tuple[int, ...]

    @property
    def width(self) -> int:
        """Number of member trials."""
        return len(self.indices)


@dataclass(frozen=True)
class BatchedTrialPlan:
    """A partition of a payload list into same-shape batches."""

    batch_trials: int
    batches: Tuple[TrialBatch, ...]

    @classmethod
    def group(
        cls,
        payloads: Sequence[Any],
        shape_key: Callable[[Any], Optional[Hashable]],
        batch_trials: int,
    ) -> "BatchedTrialPlan":
        """Group ``payloads`` by ``shape_key`` into batches of at most
        ``batch_trials`` members.

        Batches appear in first-occurrence order of their key and members
        keep ascending trial-index order, so the plan -- and therefore the
        batched execution -- is a pure function of the payload list.
        """
        if batch_trials < 1:
            raise ValueError(f"batch_trials must be >= 1, got {batch_trials}")
        grouped: dict = {}
        order: list = []
        batches: list = []
        for index, payload in enumerate(payloads):
            key = shape_key(payload)
            if key is None:
                batches.append((index, TrialBatch(None, (index,))))
                continue
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(index)
        for key in order:
            indices = grouped[key]
            for lo in range(0, len(indices), batch_trials):
                chunk = tuple(indices[lo : lo + batch_trials])
                batches.append((chunk[0], TrialBatch(key, chunk)))
        batches.sort(key=lambda item: item[0])
        return cls(
            batch_trials=batch_trials,
            batches=tuple(batch for _first, batch in batches),
        )

    @property
    def trial_count(self) -> int:
        """Total trials covered by the plan."""
        return sum(batch.width for batch in self.batches)

    @property
    def max_width(self) -> int:
        """Widest batch in the plan (0 for an empty plan)."""
        return max((batch.width for batch in self.batches), default=0)

    def covers(self, count: int) -> bool:
        """Whether the plan partitions exactly the indices ``0..count-1``."""
        seen = sorted(
            index for batch in self.batches for index in batch.indices
        )
        return seen == list(range(count))
