"""Float-precision backends of the sweep's flow kernels.

A backend names the float dtype the scheme B and C kernels compute
distances in (the ``dtype`` argument of
:meth:`~repro.routing.scheme_b.SchemeB.zone_access_vector` and
:func:`~repro.geometry.neighbors.masked_nearest`).  Two exist:

``numpy64``
    float64 -- the *canonical* backend.  Results feed the same content
    digests and trial-cache keys as every other canonical run.

``numpy32``
    float32 -- tolerance-gated.  Results agree with ``numpy64`` within
    the per-kernel ``rtol`` map and are *excluded* from the canonical
    digest (the backend name is folded into cache keys and sweep digests
    so they can never collide with canonical results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "available_backends",
    "default_backend",
    "get_backend",
    "resolve_backend",
]

#: Fallback relative tolerance for kernels a backend does not list.
DEFAULT_RTOL = 1e-4


@dataclass(frozen=True)
class ArrayBackend:
    """One float dtype plus its tolerance contract.

    ``float_dtype`` is the dtype the kernels compute distances in;
    ``canonical`` marks the single backend whose results are
    digest-eligible; ``rtol`` maps kernel names (``"torus_distance"``,
    ``"contact_probability"``, ``"scheme_rate"``) to the relative
    tolerance within which this backend must agree with ``numpy64``.
    """

    name: str
    float_dtype: Any
    canonical: bool = False
    rtol: Mapping[str, float] = field(default_factory=dict)

    def tolerance(self, kernel: str) -> float:
        """The declared ``rtol`` gate for ``kernel`` on this backend.

        The canonical backend is exact (0.0); others fall back to
        :data:`DEFAULT_RTOL` for kernels they do not list.
        """
        if self.canonical:
            return 0.0
        return float(self.rtol.get(kernel, DEFAULT_RTOL))


_BACKENDS = {
    backend.name: backend
    for backend in (
        ArrayBackend(name="numpy64", float_dtype=np.float64, canonical=True),
        ArrayBackend(
            name="numpy32",
            float_dtype=np.float32,
            rtol={
                "torus_distance": 1e-5,
                "contact_probability": 1e-4,
                "scheme_rate": 1e-3,
            },
        ),
    )
}


def get_backend(name: str) -> ArrayBackend:
    """The backend called ``name``.

    Raises ``KeyError`` naming the available backends when ``name`` is
    unknown.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise KeyError(
            f"unknown array backend {name!r}; available: {known}"
        ) from None


def available_backends() -> Tuple[str, ...]:
    """Names of every backend, sorted."""
    return tuple(sorted(_BACKENDS))


def default_backend() -> ArrayBackend:
    """The canonical ``numpy64`` backend."""
    return _BACKENDS["numpy64"]


def resolve_backend(backend: Optional[object]) -> ArrayBackend:
    """Normalise ``backend`` (None | name | instance) to an instance;
    ``None`` is ``numpy64``."""
    if backend is None:
        return default_backend()
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(str(backend))
