"""Content-addressed cache keys and explicit trial seeds.

A cached trial is only reusable if its key captures *everything* that
determines its value: the parameter family, the scheme, the network size,
the trial's random seed and the payload schema version.  The key is the
SHA-256 of the canonical JSON of exactly those ingredients -- nothing about
submission order, worker count or wall-clock time enters it, which is what
makes a resumed sweep bit-identical to a cold one.

:class:`TrialSeed` makes the per-trial randomness explicit: a payload
carries it, and the trial builds its generator from it alone.
``TrialSeed(entropy, spawn_index)`` is the stream
``SeedSequence(entropy).spawn(n)[spawn_index]`` -- that and
``SeedSequence(e, spawn_key=(i,))`` construct identical sequences -- so
trials journaled when the generator was derived from list position keep
their values, and payloads, cache keys and run manifests carry the seed as
data.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from .serialize import SCHEMA_VERSION, to_jsonable

__all__ = ["TrialSeed", "canonical_json", "content_digest", "trial_key"]


@dataclass(frozen=True)
class TrialSeed:
    """The explicit seed of one Monte-Carlo trial.

    ``rng()`` builds the generator of spawn child ``spawn_index`` of master
    seed ``entropy``, i.e. ``SeedSequence(entropy).spawn(n)[spawn_index]``
    (verified bit-for-bit by ``tests/test_store_integration.py``).
    """

    entropy: int
    spawn_index: int

    def seed_sequence(self) -> np.random.SeedSequence:
        """The named spawn child as a :class:`numpy.random.SeedSequence`."""
        return np.random.SeedSequence(self.entropy, spawn_key=(self.spawn_index,))

    def rng(self) -> np.random.Generator:
        """A fresh generator on this trial's stream."""
        return np.random.default_rng(self.seed_sequence())

    def as_jsonable(self) -> list:
        """Compact ``[entropy, spawn_index]`` form used inside cache keys."""
        return [int(self.entropy), int(self.spawn_index)]


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text of ``obj`` (sorted keys, no whitespace).

    Uses the store encoding for non-JSON types, so e.g. two structurally
    equal ``NetworkParameters`` always canonicalise to the same text.
    """
    return json.dumps(
        to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def trial_key(
    parameters: Any,
    scheme: Optional[str],
    n: Optional[int],
    trial_seed: TrialSeed,
    extra: Optional[dict] = None,
) -> str:
    """Content hash identifying one trial's result.

    ``parameters`` is usually a :class:`~repro.core.regimes.NetworkParameters`
    but any store-serializable description works.  ``extra`` carries
    experiment-specific knobs that change the value (``build_kwargs``, the
    generic-rate flag, grid sides, slot counts, ...).  ``SCHEMA_VERSION`` is
    folded in so a schema bump cold-starts the cache instead of decoding
    stale shapes.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "parameters": parameters,
        "scheme": scheme,
        "n": n,
        "trial_seed": trial_seed.as_jsonable(),
        "extra": extra or {},
    }
    return content_digest(payload)
