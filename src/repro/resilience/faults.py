"""Deterministic fault injection: the ``FaultPlan`` and its spec grammar.

Chaos testing a Monte-Carlo sweep only proves something if the chaos is
**reproducible**: the same faults must hit the same trials on the same
attempts every run, at any worker count.  A :class:`FaultPlan` is therefore
keyed purely by ``(trial index, attempt)`` -- no wall clock, no randomness
-- and travels as plain data, so the parent can both inject the fault into
the right worker and emit a ``fault_injected`` telemetry event for it.

Spec grammar (the CLI ``--inject-faults`` argument)::

    SPEC    := CLAUSE ("," CLAUSE)*
    CLAUSE  := KIND "@" SELECT ["x" COUNT]
    KIND    := "raise" | "hang" | "kill" | "nan" | "io"
    SELECT  := "*" | INDEX | START "-" STOP [":" STEP]    (STOP inclusive)
    COUNT   := positive int -- the fault fires on attempts 1..COUNT
               (default 1, so a single retry heals it)

Examples::

    kill@0                 SIGKILL the worker running trial 0 (first attempt)
    raise@2-5              trials 2..5 raise on their first attempt
    nan@0-10:2x2           even trials 0..10 return NaN on attempts 1 and 2
    kill@*x99              every trial kills its worker on every attempt
                           (a crash storm -- exercises pool quarantine)
    io@1                   trial 1's journal append fails with an OSError

Fault kinds:

- ``raise``: the trial raises ``RuntimeError`` instead of running.
- ``hang``: the trial sleeps past its deadline (requires a runner
  ``timeout``; surfaced as ``kind="timeout"``).
- ``kill``: the worker process SIGKILLs itself (``kind="worker-crash"``;
  downgraded to ``raise`` in inline mode, where there is no worker to kill).
- ``nan``: the trial returns ``float("nan")`` without running, which the
  result-validation boundary turns into ``kind="invalid_result"``.
- ``io``: the parent-side journal append (``cache.put``) raises an
  ``OSError``; the trial's value survives in memory, durability degrades.

The first matching clause wins when several select the same trial.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultClause",
    "FaultPlan",
    "FaultSpecError",
]

#: Recognised fault kinds, in documentation order.
FAULT_KINDS = ("raise", "hang", "kill", "nan", "io")


class FaultSpecError(ValueError):
    """Raised for a malformed ``--inject-faults`` spec."""


_CLAUSE_RE = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<select>\*|\d+(?:-\d+(?::\d+)?)?)"
    r"(?:x(?P<count>\d+))?$"
)


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause: a fault kind plus the trial indices it targets.

    ``start is None`` encodes the ``*`` wildcard; otherwise the clause
    covers ``start..stop`` inclusive with stride ``step``.  ``attempts`` is
    the number of leading attempts the fault fires on.
    """

    kind: str
    start: Optional[int]
    stop: Optional[int]
    step: int = 1
    attempts: int = 1

    def matches(self, index: int) -> bool:
        """Whether this clause targets trial ``index``."""
        if self.start is None:
            return True
        if index < self.start or index > self.stop:
            return False
        return (index - self.start) % self.step == 0

    def describe(self) -> str:
        """Round-trip the clause back to spec text."""
        if self.start is None:
            select = "*"
        elif self.stop == self.start:
            select = str(self.start)
        else:
            select = f"{self.start}-{self.stop}"
            if self.step != 1:
                select += f":{self.step}"
        suffix = f"x{self.attempts}" if self.attempts != 1 else ""
        return f"{self.kind}@{select}{suffix}"


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of :class:`FaultClause` (first match wins)."""

    clauses: Tuple[FaultClause, ...]

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--inject-faults`` spec string (see module docs)."""
        if not spec or not spec.strip():
            raise FaultSpecError("empty fault spec")
        clauses = []
        for raw in spec.split(","):
            raw = raw.strip()
            match = _CLAUSE_RE.match(raw)
            if match is None:
                raise FaultSpecError(
                    f"malformed fault clause {raw!r} (expected KIND@SELECT[xN], "
                    f"e.g. 'kill@0', 'raise@2-5', 'nan@0-10:2x2', 'kill@*x99')"
                )
            kind = match.group("kind")
            if kind not in FAULT_KINDS:
                raise FaultSpecError(
                    f"unknown fault kind {kind!r} in {raw!r}; "
                    f"choose from {', '.join(FAULT_KINDS)}"
                )
            select = match.group("select")
            if select == "*":
                start = stop = None
                step = 1
            else:
                step = 1
                if ":" in select:
                    select, step_text = select.split(":")
                    step = int(step_text)
                    if step < 1:
                        raise FaultSpecError(
                            f"stride must be >= 1 in {raw!r}"
                        )
                if "-" in select:
                    start_text, stop_text = select.split("-")
                    start, stop = int(start_text), int(stop_text)
                    if stop < start:
                        raise FaultSpecError(
                            f"descending range {start}-{stop} in {raw!r}"
                        )
                else:
                    start = stop = int(select)
            count = int(match.group("count") or 1)
            if count < 1:
                raise FaultSpecError(f"attempt count must be >= 1 in {raw!r}")
            clauses.append(
                FaultClause(
                    kind=kind, start=start, stop=stop, step=step, attempts=count
                )
            )
        return cls(clauses=tuple(clauses))

    def fault_for(self, index: int, attempt: int) -> Optional[str]:
        """The fault kind to inject into attempt ``attempt`` of trial
        ``index``, or ``None`` (first matching clause wins)."""
        for clause in self.clauses:
            if clause.matches(index) and attempt <= clause.attempts:
                return clause.kind
        return None

    @property
    def has_hang(self) -> bool:
        """Whether any clause injects a hang (which needs a timeout)."""
        return any(clause.kind == "hang" for clause in self.clauses)

    def describe(self) -> str:
        """The plan as spec text (parse/describe round-trips)."""
        return ",".join(clause.describe() for clause in self.clauses)
