"""Persistent experiment store: content-addressed trial cache and provenance.

Every empirical artifact of the reproduction is a Monte-Carlo sweep over the
exponent family ``(alpha, M, R, K, phi)``; this subsystem makes those sweeps
**durable and resumable**.  Completed trials are journaled to an append-only
JSONL store keyed by a content hash of
``(NetworkParameters, scheme, n, trial seed, schema version)``, so a repeated
or interrupted sweep replays its cached trials and only executes the missing
ones -- with the final results bit-identical to an uninterrupted cold run at
any worker count (the cache stores exactly what the trial returned, and the
per-trial seeds are content-addressed, not submission-order-addressed).

Layers:

- :mod:`repro.store.serialize` -- schema-versioned, tagged JSON round-trip of
  trial payloads and values (ndarrays, Fractions, ``NetworkParameters``,
  ``FlowResult``, registered result dataclasses);
- :mod:`repro.store.keys` -- explicit :class:`TrialSeed` and the
  content-hash :func:`trial_key`;
- :mod:`repro.store.runstore` -- the on-disk :class:`RunStore` (JSONL trial
  journal with atomic appends + run manifests) consumed by
  :class:`repro.parallel.TrialRunner` as its trial cache; one directory
  is one store, with one writer, and a command opens at most one;
- :mod:`repro.store.provenance` -- git SHA / package / interpreter
  fingerprint recorded in every run manifest.
"""

from .keys import TrialSeed, canonical_json, content_digest, trial_key
from .provenance import collect_provenance
from .runstore import (
    CachedTrial,
    GCStats,
    RunStore,
    UnserializableValue,
    manifest_sort_key,
    open_store,
)
from .serialize import (
    SCHEMA_VERSION,
    from_jsonable,
    register_payload,
    schema_fingerprint,
    to_jsonable,
)

__all__ = [
    "SCHEMA_VERSION",
    "CachedTrial",
    "GCStats",
    "RunStore",
    "TrialSeed",
    "UnserializableValue",
    "canonical_json",
    "collect_provenance",
    "content_digest",
    "from_jsonable",
    "manifest_sort_key",
    "open_store",
    "register_payload",
    "schema_fingerprint",
    "to_jsonable",
    "trial_key",
]
