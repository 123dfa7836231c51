"""Schema-versioned JSON round-trip for trial payloads and values.

The trial journal must outlive any single process, so everything written to
it goes through an explicit, tagged encoding rather than pickle: a journal
written today must be readable (or cleanly rejected) by tomorrow's code.
Values are encoded to plain JSON-compatible structures with ``__repro__``
tags for the non-JSON types:

- ``numpy`` arrays (dtype + shape preserved, float64 exact via repr),
- ``fractions.Fraction`` (the exact-exponent currency of :mod:`repro.core`),
- ``NetworkParameters`` (decoded with ``validate=False`` so families built
  that way -- e.g. the Table-I trivial row -- round-trip),
- the package's mobility shapes and ``BackboneTopology`` members, which a
  sweep's ``build_kwargs`` may carry into its cache keys,
- registered result dataclasses (``FlowResult``, ``Figure1Panel``, ...).

``SCHEMA_VERSION`` stamps every journal line and is part of every cache key:
changing the shape of any registered payload class without bumping it would
silently decode stale journal entries into the new shape, so
``tests/test_store_schema.py`` pins :func:`schema_fingerprint` and fails
when the registered dataclasses change while ``SCHEMA_VERSION`` does not.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Any, Dict, Type

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "from_jsonable",
    "register_payload",
    "schema_fingerprint",
    "to_jsonable",
]

#: Version of the on-disk trial payload schema.  Bump whenever the fields of
#: any registered payload dataclass (or the tagged encodings below) change;
#: entries written under a different version are ignored by the cache.
SCHEMA_VERSION = 1

_TAG = "__repro__"

#: Registered dataclasses, keyed by their stable wire name.
_PAYLOAD_REGISTRY: Dict[str, Type] = {}


def register_payload(cls: Type) -> Type:
    """Register a dataclass for tagged round-trip encoding.

    The wire name is the class ``__qualname__``; re-registering the same
    name with a different class is an error (it would make old journals
    decode into the wrong type).  Usable as a decorator.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    name = cls.__qualname__
    existing = _PAYLOAD_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(f"payload name {name!r} already registered to {existing!r}")
    _PAYLOAD_REGISTRY[name] = cls
    return cls


_BUILTINS_REGISTERED = False


def _register_builtins() -> None:
    """Register the package's own result dataclasses (lazy: avoids import
    cycles -- the experiment modules import this module for keys)."""
    global _BUILTINS_REGISTERED
    if _BUILTINS_REGISTERED:
        return
    _BUILTINS_REGISTERED = True
    from ..core.density import DensityField
    from ..experiments.figure1 import Figure1Panel
    from ..experiments.figure2 import SchemeBTrace
    from ..experiments.figure3 import SpotCheck
    from ..routing.base import FlowResult
    from ..simulation.metrics import SimulationMetrics

    for cls in (
        DensityField,
        Figure1Panel,
        SchemeBTrace,
        SpotCheck,
        FlowResult,
        SimulationMetrics,
    ):
        register_payload(cls)


def _shape_classes() -> Dict[str, Type]:
    """Name -> class of the mobility shapes the store can encode."""
    from ..mobility import shapes

    names = [name for name in shapes.__all__ if name != "MobilityShape"]
    return {name: getattr(shapes, name) for name in names}


def _encode_float(value: float) -> Any:
    # JSON has no nan/inf; tag them so ``json.dumps(..., allow_nan=False)``
    # stays safe everywhere (mean delays are nan when nothing is delivered).
    if math.isfinite(value):
        return value
    return {_TAG: "float", "value": repr(float(value))}


def to_jsonable(obj: Any) -> Any:
    """Encode ``obj`` into JSON-compatible structures (see module docs)."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _encode_float(obj)
    if isinstance(obj, Fraction):
        return {_TAG: "fraction", "value": f"{obj.numerator}/{obj.denominator}"}
    if isinstance(obj, np.ndarray):
        return {
            _TAG: "ndarray",
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
            # recurse so non-finite floats inside the array get tagged too
            "data": to_jsonable(obj.ravel().tolist()),
        }
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "items": [to_jsonable(item) for item in obj]}
    if isinstance(obj, list):
        return [to_jsonable(item) for item in obj]
    if isinstance(obj, dict):
        if all(isinstance(key, str) for key in obj):
            return {key: to_jsonable(value) for key, value in obj.items()}
        return {
            _TAG: "dict",
            "items": [[to_jsonable(k), to_jsonable(v)] for k, v in obj.items()],
        }
    # NetworkParameters is handled before the generic dataclass branch: its
    # __init__ takes ``validate`` (not a field) and must not re-validate.
    from ..core.regimes import NetworkParameters

    if isinstance(obj, NetworkParameters):
        return {
            _TAG: "NetworkParameters",
            "alpha": to_jsonable(obj.alpha),
            "cluster_exponent": to_jsonable(obj.cluster_exponent),
            "cluster_radius_exponent": to_jsonable(obj.cluster_radius_exponent),
            "bs_exponent": to_jsonable(obj.bs_exponent),
            "backbone_exponent": to_jsonable(obj.backbone_exponent),
        }
    from ..infrastructure.backbone import BackboneTopology

    if isinstance(obj, BackboneTopology):
        return {_TAG: "BackboneTopology", "value": obj.value}
    # Shapes are dataclasses too, but build inputs rather than registered
    # payloads: tagged by class name, so a custom subclass stays unserializable.
    if type(obj) in _shape_classes().values():
        fields = {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {_TAG: "MobilityShape", "type": type(obj).__name__, "fields": fields}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _register_builtins()
        name = type(obj).__qualname__
        if name not in _PAYLOAD_REGISTRY:
            raise TypeError(
                f"dataclass {name} is not registered for the store; call "
                f"repro.store.register_payload({name}) first"
            )
        fields = {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {_TAG: "dataclass", "type": name, "fields": fields}
    raise TypeError(f"cannot serialize {type(obj).__name__} for the store: {obj!r}")


def from_jsonable(obj: Any) -> Any:
    """Decode the output of :func:`to_jsonable` back into live objects."""
    if isinstance(obj, list):
        return [from_jsonable(item) for item in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get(_TAG)
    if tag is None:
        return {key: from_jsonable(value) for key, value in obj.items()}
    if tag == "float":
        return float(obj["value"])
    if tag == "fraction":
        return Fraction(obj["value"])
    if tag == "ndarray":
        data = from_jsonable(obj["data"])
        return np.asarray(data, dtype=np.dtype(obj["dtype"])).reshape(obj["shape"])
    if tag == "tuple":
        return tuple(from_jsonable(item) for item in obj["items"])
    if tag == "dict":
        return {from_jsonable(k): from_jsonable(v) for k, v in obj["items"]}
    if tag == "NetworkParameters":
        from ..core.regimes import NetworkParameters

        bs_exponent = from_jsonable(obj["bs_exponent"])
        return NetworkParameters(
            alpha=from_jsonable(obj["alpha"]),
            cluster_exponent=from_jsonable(obj["cluster_exponent"]),
            cluster_radius_exponent=from_jsonable(obj["cluster_radius_exponent"]),
            bs_exponent=bs_exponent,
            backbone_exponent=from_jsonable(obj["backbone_exponent"]),
            # constraints were checked when the original was built; families
            # constructed with validate=False must round-trip unchanged
            validate=False,
        )
    if tag == "BackboneTopology":
        from ..infrastructure.backbone import BackboneTopology

        return BackboneTopology(obj["value"])
    if tag == "MobilityShape":
        fields = {key: from_jsonable(value) for key, value in obj["fields"].items()}
        return _shape_classes()[obj["type"]](**fields)
    if tag == "dataclass":
        _register_builtins()
        name = obj["type"]
        cls = _PAYLOAD_REGISTRY.get(name)
        if cls is None:
            raise TypeError(f"unknown stored payload dataclass {name!r}")
        fields = {key: from_jsonable(value) for key, value in obj["fields"].items()}
        return cls(**fields)
    raise TypeError(f"unknown store tag {tag!r}")


def schema_fingerprint() -> str:
    """Stable hash of the registered payload shapes under ``SCHEMA_VERSION``.

    Covers every registered dataclass's wire name and ordered
    ``(field name, declared type)`` pairs plus ``NetworkParameters`` (which
    has a custom encoding).  ``tests/test_store_schema.py`` pins this value:
    if it drifts while ``SCHEMA_VERSION`` stays the same, that test fails,
    forcing a conscious version bump (which invalidates stale cache
    entries) whenever the on-disk payload shape changes.
    """
    import hashlib

    from ..core.regimes import NetworkParameters

    _register_builtins()
    parts = [f"schema={SCHEMA_VERSION}"]
    classes = dict(_PAYLOAD_REGISTRY)
    classes["NetworkParameters"] = NetworkParameters
    for name in sorted(classes):
        fields = dataclasses.fields(classes[name])
        signature = ",".join(f"{field.name}:{field.type}" for field in fields)
        parts.append(f"{name}({signature})")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()
