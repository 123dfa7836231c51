"""``FabricExecutor``: the distributed ``SweepExecutor`` implementation.

Drives one :class:`~repro.fabric.coordinator.FabricCoordinator` per
:meth:`run` call on the sweep's own thread.  The runner's shared prologue
has already served the cache hits and derived the seeds; the executor
partitions the job's remaining trials into content-addressed shards,
leases them out and absorbs streamed members first-wins through the job's
validation + journal path, and the runner's shared epilogue builds
``runner.last_stats`` -- so a fabric sweep's digest is bit-identical to a
serial one.

Graceful degradation (the robustness core):

- No agent registers within ``wait_seconds`` -> log a warning, emit
  ``fabric_degraded(reason="no_agents")`` and run everything locally
  through the runner's own pool/inline machinery.
- Every agent dies mid-sweep -> emit ``fabric_degraded(reason=
  "agents_lost")`` and finish the unfinished, non-quarantined trials
  locally.  Trials an agent already streamed are kept (first wins).
- A shard that failed on ``quarantine_failures`` distinct agents is
  quarantined: its unfinished trials surface as ``kind="quarantined"``
  errors (never re-executed locally -- it killed two agents; the parent
  is not volunteering), and the sweep completes ``status="partial"``.

Batches wider than one trial are not distributed: they are an
intra-process vectorization, so such a job logs once and runs locally.
"""

from __future__ import annotations

import time
from typing import Optional

from ..observability import events as _events
from ..observability.log import get_logger
from ..parallel.executor import SweepExecutor
from ..parallel.runner import TrialError, _failed
from .coordinator import DEFAULT_PORT, FabricCoordinator
from .shards import DEFAULT_SHARD_SIZE, partition_shards
from .wire import decode_payload, to_ref

__all__ = ["FabricExecutor"]

_log = get_logger(__name__)


class FabricExecutor(SweepExecutor):
    """Lease trial shards to worker agents; rebalance on failure.

    Parameters
    ----------
    host, port:
        Listen address for the embedded coordinator (agents connect here).
    shard_size:
        Trials per shard (the lease granularity).
    wait_seconds:
        How long to wait for the first agent before degrading to local
        execution.
    min_agents:
        Fleet warm-up floor: keep waiting (up to ``wait_seconds``) until
        this many agents registered before leasing starts.  The sweep
        still proceeds with however many showed up -- only a count of
        zero degrades to local execution.
    lease_ttl / agent_ttl:
        Seconds before a silent lease / heartbeat is declared dead.
    poll_interval:
        Drive-loop cadence in seconds.
    """

    name = "fabric"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        shard_size: int = DEFAULT_SHARD_SIZE,
        wait_seconds: float = 10.0,
        min_agents: int = 1,
        lease_ttl: float = 15.0,
        agent_ttl: float = 10.0,
        poll_interval: float = 0.02,
    ):
        if min_agents < 1:
            raise ValueError(f"min_agents must be >= 1, got {min_agents}")
        self._host = host
        self._port = port
        self._shard_size = shard_size
        self._wait_seconds = wait_seconds
        self._min_agents = min_agents
        self._lease_ttl = lease_ttl
        self._agent_ttl = agent_ttl
        self._poll_interval = poll_interval
        self._last_coordinator: Optional[FabricCoordinator] = None

    @property
    def last_coordinator(self) -> Optional[FabricCoordinator]:
        """The coordinator of the most recent run (tests inspect leases)."""
        return self._last_coordinator

    # ------------------------------------------------------------------
    def run(self, job) -> None:
        if job.plan is not None and job.plan.max_width > 1:
            _log.warning(
                "batched execution is an intra-process vectorization; "
                "--fabric does not distribute it -- running the batches "
                "locally"
            )
            job.run_local(job.items)
            return
        if job.seed is None:
            raise ValueError(
                "seed_seqs override is an agent-side mechanism; the fabric "
                "coordinator derives seeds from the sweep master seed"
            )
        # shard membership is deterministic by construction: submission
        # order only permutes local pool submission, so it is moot here
        remaining = sorted(index for members in job.items for index in members)
        runner = job.runner
        coordinator = FabricCoordinator(
            host=self._host,
            port=self._port,
            lease_ttl=self._lease_ttl,
            agent_ttl=self._agent_ttl,
            telemetry=job.emitter._sink,
        )
        coordinator.configure(runner.retry_policy, runner._fault_plan)
        self._last_coordinator = coordinator
        coordinator.start()
        try:
            alive = coordinator.wait_for_agents(
                self._wait_seconds, self._min_agents
            )
            if alive == 0:
                _log.warning(
                    "no fabric agents registered on %s:%d within "
                    "%.0f s; degrading to local in-process execution "
                    "of %d trial(s)",
                    self._host,
                    coordinator.port,
                    self._wait_seconds,
                    len(remaining),
                )
                self._degrade(job, "no_agents", job.items)
            else:
                self._run_fabric(job, coordinator, remaining)
        finally:
            coordinator.stop()
        self._quarantine_unfinished(coordinator, job)

    # ------------------------------------------------------------------
    def _run_fabric(self, job, coordinator, remaining) -> None:
        """Lease/absorb until done, or degrade once every agent is gone."""
        runner = job.runner
        validator_ref = (
            to_ref(runner._validator)
            if runner._validator is not None
            else None
        )
        shards = partition_shards(
            job.payloads,
            remaining,
            job.keys,
            int(job.seed),
            to_ref(runner._trial_fn),
            validator_ref,
            shard_size=self._shard_size,
        )
        coordinator.submit(shards)
        _log.info(
            "fabric sweep: %d trial(s) in %d shard(s) of <= %d, "
            "%d agent(s) connected",
            len(remaining),
            len(shards),
            self._shard_size,
            len(coordinator.table.alive_agents()),
        )
        while True:
            fresh, stalled = coordinator.pump()
            for member in fresh:
                self._absorb(job, member)
            if coordinator.outstanding() == 0:
                fresh, _stalled = coordinator.pump()
                for member in fresh:
                    self._absorb(job, member)
                return
            if stalled:
                quarantined = set(coordinator.quarantined_indices())
                left = [
                    (index,)
                    for index in remaining
                    if job.results[index] is None and index not in quarantined
                ]
                _log.warning(
                    "every fabric agent is gone; degrading %d remaining "
                    "trial(s) to local in-process execution",
                    len(left),
                )
                self._degrade(job, "agents_lost", left)
                return
            time.sleep(self._poll_interval)

    @staticmethod
    def _degrade(job, reason: str, items) -> None:
        """Run ``items`` locally through the runner's own machinery."""
        job.degraded = True
        if job.emitter._enabled:
            job.emitter._sink.emit(
                _events.FabricDegraded(reason=reason, trials=len(items))
            )
        if items:
            job.run_local(items)

    @staticmethod
    def _absorb(job, member) -> None:
        """Merge one streamed member (first wins) through validation and
        the journal, exactly as the in-process path would."""
        index = int(member["index"])
        if job.results[index] is not None:
            return
        attempts = int(member.get("attempts") or 0)
        job.emitter.started(index, max(attempts, 1))
        if member.get("ok"):
            error = job.accept(
                index,
                decode_payload(member["value"]),
                attempts,
                float(member.get("duration") or 0.0),
                0.0,
            )
        else:
            failure = member.get("error") or {}
            error = TrialError(
                trial_index=index,
                kind=str(failure.get("kind", "exception")),
                message=str(failure.get("message", "agent-side failure")),
                attempts=int(failure.get("attempts", attempts) or attempts),
            )
        if error is not None:
            job.complete(_failed(error))

    @staticmethod
    def _quarantine_unfinished(coordinator, job) -> None:
        """Fail every index buried in a quarantined shard (and any index
        the fabric somehow lost) as ``kind="quarantined"``."""
        quarantined = set(coordinator.quarantined_indices())
        for index, result in enumerate(job.results):
            if result is not None:
                continue
            reason = (
                "shard failed on two distinct agents (poison shard)"
                if index in quarantined
                else "trial unaccounted for after fabric shutdown"
            )
            job.complete(
                _failed(
                    TrialError(
                        trial_index=index,
                        kind="quarantined",
                        message=reason,
                        attempts=0,
                    )
                )
            )
