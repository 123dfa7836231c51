"""The executor seam between sweep drivers and trial execution substrates.

:class:`~repro.parallel.runner.TrialRunner` owns the *semantics* of a sweep
-- deterministic per-trial seeding, retries, validation, caching, telemetry
-- while a :class:`SweepExecutor` owns *where* the trials actually execute.
``TrialRunner.run`` and ``TrialRunner.run_batched`` share one prologue
(validation, seeding, cache hits) and one epilogue (``TrialStats``); in
between they hand the executor one *job*: the batches still to execute,
each a tuple of member trial indices (a ``run`` call is batches of one).
The batch is the only unit of execution and retry on every executor.

- :class:`InProcessExecutor` (the default) executes the batches through
  the job's own machinery: inline in this process, or fanned out over a
  ``ProcessPoolExecutor``.
- :class:`repro.fabric.FabricExecutor` leases content-addressed trial
  shards to registered worker *agents* over localhost sockets, rebalances
  on agent failure, and falls back to local execution when no agents are
  reachable or the batches are wider than one trial.

The contract every executor must keep (verified by the fabric chaos tests
against the in-process reference): every unfinished trial of the job ends
with a result, per-trial seeds are the job's (derived from
``SeedSequence(seed).spawn(count)`` by index, or the caller's), and fresh
values are validated and journaled as they complete -- so a sweep's digest
is bit-identical no matter which executor ran it.
"""

from __future__ import annotations

__all__ = ["InProcessExecutor", "SweepExecutor"]


class SweepExecutor:
    """Where a runner's trials execute (see module docs).

    The job an executor receives carries the calling runner (its retry
    policy, validator, fault plan and worker count) and the execution
    helpers -- the runner and its executors are one subsystem split along
    the local/distributed seam.
    """

    #: Short stable name for logs, manifests and telemetry.
    name: str = "executor"

    def run(self, job) -> None:
        """Execute ``job.items``, filling ``job.results``."""
        raise NotImplementedError


class InProcessExecutor(SweepExecutor):
    """The default substrate: this process's pool (or inline execution).

    Stateless; one shared instance (:data:`IN_PROCESS`) serves every
    runner without a configured executor.
    """

    name = "in-process"

    def run(self, job) -> None:
        job.run_local(job.items)


#: The shared default executor (stateless, so one instance is enough).
IN_PROCESS = InProcessExecutor()
