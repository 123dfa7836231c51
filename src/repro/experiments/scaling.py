"""Capacity-scaling sweeps: measure ``lambda(n)`` and fit exponents.

The central empirical methodology of the reproduction: realise a parameter
family at a geometric grid of ``n``, measure the flow-level sustainable rate
of a chosen scheme (median over independent trials), and fit the
``log lambda`` vs ``log n`` slope for comparison with the closed-form
exponent of :mod:`repro.core.capacity`.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..backend import resolve_backend
from ..core.capacity import (
    infrastructure_capacity,
    mobility_capacity,
    per_node_capacity,
)
from ..core.order import Order
from ..core.regimes import NetworkParameters
from ..observability.events import (
    BackendSelected,
    BatchDegradedToSerial,
    get_telemetry,
)
from ..observability.log import get_logger
from ..observability.timing import span
from ..parallel import BatchedTrialPlan, TrialRunner, TrialStats
from ..resilience import ResilienceConfig, check_min_success, validate_rate
from ..routing.base import FlowResult
from ..routing.batched import (
    batched_scheme_c_attach,
    batched_zone_access,
    scheme_b_flow,
)
from ..routing.scheme_c import SchemeC
from ..simulation.network import HybridNetwork
from ..store import TrialSeed, content_digest, open_store, trial_key
from ..utils.fitting import PowerLawFit, fit_power_law

_log = get_logger(__name__)

__all__ = [
    "SweepResult",
    "measure_rate",
    "sweep_capacity",
    "sweep_trial_payloads",
    "theory_order",
    "SCHEME_SELECTORS",
]


def _rate_optimal(net: HybridNetwork) -> FlowResult:
    return net.sustainable_rate(net.sample_traffic())


def _rate_scheme_a(net: HybridNetwork) -> FlowResult:
    return net.scheme_a().sustainable_rate(net.sample_traffic())


def _rate_scheme_b(net: HybridNetwork) -> FlowResult:
    return net.scheme_b().sustainable_rate(net.sample_traffic())


def _rate_scheme_c(net: HybridNetwork) -> FlowResult:
    return net.scheme_c().sustainable_rate(net.sample_traffic())


def _rate_static(net: HybridNetwork) -> FlowResult:
    return net.static_baseline().sustainable_rate(net.sample_traffic())


SCHEME_SELECTORS = {
    "optimal": _rate_optimal,
    "A": _rate_scheme_a,
    "B": _rate_scheme_b,
    "C": _rate_scheme_c,
    "static": _rate_static,
}


def theory_order(parameters: NetworkParameters, scheme: str) -> Order:
    """Closed-form capacity order of one scheme for one family.

    ``optimal`` follows Table I; ``A`` achieves ``Theta(1/f)``; ``B`` and
    ``C`` achieve the infrastructure term; ``static`` achieves the no-BS
    rate ``Theta(1/(n R_T))`` at the connectivity-critical range.
    """
    if scheme == "optimal":
        return per_node_capacity(parameters)
    if scheme == "A":
        return mobility_capacity(parameters)
    if scheme in ("B", "C"):
        return infrastructure_capacity(parameters)
    if scheme == "static":
        # every regime, strong mobility included, pays the enlarged-range
        # price when forced to route statically at R_T = sqrt(gamma)
        return (Order(1) * parameters.gamma.sqrt()).reciprocal()
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class SweepResult:
    """Measured capacity curve for one parameter family."""

    parameters: NetworkParameters
    scheme: str
    n_values: np.ndarray
    rates: np.ndarray  # median over trials, per n
    trials: int
    theory_exponent: float
    fit: Optional[PowerLawFit]
    #: Throughput counters of the trial fan-out (None for legacy results).
    stats: Optional["TrialStats"] = None
    #: Master seed of the sweep (None for legacy results).
    seed: Optional[int] = None
    #: Explicit per-trial seeds, aligned with the payload list (trial ``i``
    #: ran on ``trial_seeds[i]`` regardless of submission order or caching).
    trial_seeds: Optional[Tuple[TrialSeed, ...]] = None
    #: Array backend the rates came from -- ``None`` for the canonical
    #: ``numpy64`` path (bit-identical to serial, digest-compatible with
    #: legacy results); the backend name for tolerance-gated backends,
    #: which fold into :meth:`digest` so their rates never collide with
    #: canonical ones.
    backend: Optional[str] = None

    @property
    def exponent_error(self) -> float:
        """``|measured - theory|`` slope gap (inf when the fit failed)."""
        if self.fit is None:
            return float("inf")
        return abs(self.fit.exponent - self.theory_exponent)

    def digest(self) -> str:
        """Content hash of the sweep's identity and measured rates.

        Two sweeps with the same digest measured the same family, grid and
        seeds and obtained bit-identical rates -- the equality checked by
        the resume tests and the CI cache job (a resumed or re-worker-ed
        run must reproduce a cold run's digest exactly).
        """
        identity = {
            "parameters": self.parameters,
            "scheme": self.scheme,
            "n_values": [int(n) for n in self.n_values],
            "trials": self.trials,
            "seed": self.seed,
            "rates": [float(rate) for rate in self.rates],
        }
        if self.backend is not None:
            # non-canonical backends are tolerance-gated, not bit-exact:
            # keep their digests disjoint from the canonical namespace
            identity["backend"] = self.backend
        return content_digest(identity)

    def row(self) -> list:
        """Values for a result table row."""
        measured = "fail" if self.fit is None else f"{self.fit.exponent:+.3f}"
        return [
            self.scheme,
            f"{self.theory_exponent:+.3f}",
            measured,
            f"{self.rates[-1]:.2e}",
        ]


def measure_rate(
    parameters: NetworkParameters,
    n: int,
    rng: np.random.Generator,
    scheme: str = "optimal",
    **build_kwargs,
) -> FlowResult:
    """Flow-level rate of one realised network under the chosen scheme.

    ``scheme`` is one of ``optimal`` (the regime-appropriate scheme, summing
    A+B in the strong regime), ``A``, ``B``, ``C`` or ``static``.
    """
    if scheme not in SCHEME_SELECTORS:
        raise ValueError(f"scheme must be one of {sorted(SCHEME_SELECTORS)}, got {scheme!r}")
    net = HybridNetwork.build(parameters, n, rng, **build_kwargs)
    return SCHEME_SELECTORS[scheme](net)


def _sweep_trial(rng: np.random.Generator, payload: tuple) -> float:
    """One sweep trial (module-level so it pickles into pool workers).

    Payloads carry an explicit :class:`TrialSeed`; the generator is rebuilt
    from it (bit-identical to the runner's index-spawned stream), so the
    trial's value is fully determined by the payload itself -- the property
    the content-addressed cache keys rely on.
    """
    parameters, n, scheme, build_kwargs, generic, seed = payload
    result = measure_rate(parameters, n, seed.rng(), scheme, **build_kwargs)
    return _payload_rate(result, generic)


def _payload_rate(result: FlowResult, generic: bool) -> float:
    """The scalar a sweep trial reports for one flow result."""
    if generic:
        return float(result.details.get("generic_rate", result.per_node_rate))
    return float(result.per_node_rate)


def _batched_sweep_trial(seed_seqs, payloads, backend: str = "numpy64") -> List[float]:
    """Execute one same-shape batch of scheme B or C sweep trials
    (module-level, picklable).

    Every member's network is still built serially with its own payload
    seed (construction consumes RNG in a fixed order that must match the
    serial trial exactly); the *flow analysis* -- the hot part -- is then
    batched: one :func:`batched_zone_access` call for scheme B, one
    :func:`batched_scheme_c_attach` call for scheme C.  Width-1 batches
    and batches whose realisations disagree on stacked shapes (a
    degenerate draw changed ``k``) run each member's serial scheme
    instead, so the returned values are always exactly the serial ones on
    the canonical backend.
    """
    parameters, n, scheme, build_kwargs, generic, _seed = payloads[0]
    nets = [
        HybridNetwork.build(parameters, int(n), payload[5].rng(), **build_kwargs)
        for payload in payloads
    ]
    traffics = [net.sample_traffic() for net in nets]
    if (
        len(nets) == 1
        or any(net.bs_positions is None for net in nets)
        or len({net.bs_positions.shape for net in nets}) != 1
    ):
        serial = HybridNetwork.scheme_b if scheme == "B" else HybridNetwork.scheme_c
        return [
            _payload_rate(serial(net).sustainable_rate(traffic), generic)
            for net, traffic in zip(nets, traffics)
        ]
    if scheme == "B":
        zones = [net.scheme_b_zones() for net in nets]
        access = batched_zone_access(
            np.stack([net.home_model.points for net in nets]),
            np.stack([net.bs_positions for net in nets]),
            np.stack([ms_zone for ms_zone, _bs_zone in zones]),
            np.stack([bs_zone for _ms_zone, bs_zone in zones]),
            nets[0].shape,
            nets[0].realized.f,
            nets[0].access_transmission_range(),
            backend=backend,
        )
        values = []
        for member, net in enumerate(nets):
            per_node, generic_rate = scheme_b_flow(
                access[member],
                zones[member][0],
                zones[member][1],
                net.backbone,
                traffics[member].destination,
            )
            values.append(float(generic_rate if generic else per_node))
        return values
    cell, distance = batched_scheme_c_attach(
        np.stack([net.process.positions() for net in nets]),
        np.stack([net.bs_positions for net in nets]),
        np.stack([net.home_model.assignment for net in nets]),
        np.stack([net._bs_cluster_assignment() for net in nets]),
        chunk_size=SchemeC._CHUNK,
        backend=backend,
    )
    values = []
    for member, net in enumerate(nets):
        scheme_c = SchemeC(
            ms_positions=net.process.positions(),
            bs_positions=net.bs_positions,
            ms_cluster=net.home_model.assignment,
            bs_cluster=net._bs_cluster_assignment(),
            backbone=net.backbone,
            delta=net.delta,
            attach=(cell[member], distance[member]),
        )
        result = scheme_c.sustainable_rate(traffics[member])
        values.append(_payload_rate(result, generic))
    return values


def sweep_trial_payloads(
    parameters: NetworkParameters,
    n_values: Sequence[int],
    scheme: str,
    trials: int,
    build_kwargs: Optional[dict] = None,
    generic: bool = False,
    seed: int = 0,
) -> list:
    """The flat (n-major, trial-minor) payload list one sweep fans out.

    Trial ``index`` always maps to the same ``(n, trial)`` slot, and each
    payload carries ``TrialSeed(seed, index)`` explicitly -- the same stream
    :class:`TrialRunner` would spawn for that index -- which makes sweep
    results independent of worker count, scheduling order *and* submission
    order, and gives the cache keys a seed that lives in the payload rather
    than in list position.
    """
    build_kwargs = build_kwargs or {}
    flat = [
        (parameters, int(n), scheme, build_kwargs, generic)
        for n in sorted(n_values)
        for _ in range(trials)
    ]
    return [
        payload + (TrialSeed(seed, index),) for index, payload in enumerate(flat)
    ]


def _sweep_trial_keys(
    payloads: Sequence[tuple], backend: Optional[str] = None
) -> list:
    """Content-hash cache key of each sweep payload.

    ``backend`` (a non-canonical backend name) folds into the key so
    tolerance-gated values live in their own cache namespace and can
    never be replayed into a canonical sweep.
    """
    extra_backend = {} if backend is None else {"backend": backend}
    return [
        trial_key(
            parameters,
            scheme,
            n,
            seed,
            extra={
                "build_kwargs": build_kwargs,
                "generic": generic,
                **extra_backend,
            },
        )
        for parameters, n, scheme, build_kwargs, generic, seed in payloads
    ]


def sweep_capacity(
    parameters: NetworkParameters,
    n_values: Sequence[int],
    scheme: str = "optimal",
    trials: int = 3,
    seed: int = 0,
    build_kwargs: Optional[dict] = None,
    generic: bool = False,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
    batch_trials: Optional[int] = None,
    backend: Optional[str] = None,
) -> SweepResult:
    """Measure ``lambda(n)`` over a grid of ``n`` and fit the exponent.

    The per-``n`` estimate is the median across ``trials`` independent
    realisations (median is robust to the occasional degenerate draw, e.g. a
    zone left without base stations at small ``n``).  Zero medians are
    dropped before fitting; if fewer than two positive points survive, the
    fit is ``None``.

    ``generic=True`` fits the *generic-MS* rate reported by schemes B/C
    (``details['generic_rate']``) instead of the uniform (min-MS) rate: the
    paper's access results (Lemma 9) are statements about a generic node,
    and the strict minimum converges to its order only at ``n`` far beyond
    simulation reach (see EXPERIMENTS.md).

    ``workers`` fans the trials out over a process pool
    (:class:`repro.parallel.TrialRunner`).  Per-trial seeds are spawned by
    trial index from the master ``seed``, so any worker count -- including
    the inline default ``None`` -- produces bit-identical rates.

    ``store`` (a :class:`repro.store.RunStore` or a directory path) makes
    the sweep durable and resumable: completed trials already journaled
    under the same content key are replayed from disk, only the missing
    ones execute (and are journaled as they finish), and a run manifest
    with full provenance is recorded.  The resulting rates -- and therefore
    :meth:`SweepResult.digest` -- are bit-identical with or without the
    cache, at any worker count.

    ``resilience`` (a :class:`repro.resilience.ResilienceConfig`) governs
    failure handling: the retry policy, deterministic fault injection, the
    crash-storm degradation threshold, and ``min_success_fraction`` --
    with a fraction below 1.0 the sweep tolerates failed trials, taking
    per-``n`` medians over the surviving ones (an ``n`` with no survivors
    contributes a zero rate, dropped by the positive filter before
    fitting) and recording the manifest with ``status="partial"``.  Every
    fresh value passes the NaN/inf/negative validation boundary
    (:func:`repro.resilience.validate_rate`).  On SIGINT (or SIGTERM under
    :func:`repro.resilience.interruptible`) the sweep drains: completed
    trials are already journaled, a ``status="interrupted"`` manifest is
    recorded, and the interrupt propagates -- re-invoking the same sweep
    resumes from the journal and reproduces the uninterrupted digest.

    ``batch_trials`` (``>= 2``) groups same-``n`` trials into batches of
    at most that width and drives the batched flow kernels
    (:mod:`repro.routing.batched`) instead of one full scheme object per
    trial.  On the default canonical backend the batched rates -- and the
    sweep digest -- are bit-identical to the per-trial path at any worker
    count.  ``backend`` selects a registered array backend
    (:func:`repro.backend.available_backends`); non-canonical backends
    (``numpy32``) are tolerance-gated, require
    ``batch_trials`` (only the batched kernels are backend-aware), fold
    into the trial cache keys, and stamp :attr:`SweepResult.backend` so
    their digests never collide with canonical results.
    """
    if scheme not in SCHEME_SELECTORS:
        raise ValueError(
            f"scheme must be one of {sorted(SCHEME_SELECTORS)}, got {scheme!r}"
        )
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if batch_trials is not None and batch_trials < 2:
        raise ValueError(
            f"batch_trials must be >= 2 (or None for per-trial execution), "
            f"got {batch_trials}"
        )
    resolved_backend = resolve_backend(backend)
    if not resolved_backend.canonical and batch_trials is None:
        raise ValueError(
            f"backend {resolved_backend.name!r} is only used by the batched "
            "kernels; pass batch_trials >= 2 (the per-trial path is always "
            "canonical numpy64)"
        )
    store = open_store(store)
    n_values = np.asarray(sorted(n_values), dtype=int)
    payloads = sweep_trial_payloads(
        parameters, n_values, scheme, trials, build_kwargs, generic, seed=seed
    )
    key_backend = None if resolved_backend.canonical else resolved_backend.name
    keys = (
        _sweep_trial_keys(payloads, backend=key_backend)
        if store is not None
        else None
    )
    sink = get_telemetry()
    if sink.enabled:
        sink.emit(
            BackendSelected(
                backend=resolved_backend.name,
                canonical=resolved_backend.canonical,
                batch_trials=batch_trials or 0,
            )
        )
    _log.info(
        "sweep_capacity: scheme=%s grid=%s trials=%d seed=%d workers=%s "
        "store=%s batch_trials=%s backend=%s",
        scheme, [int(n) for n in n_values], trials, seed, workers,
        getattr(store, "root", None), batch_trials, resolved_backend.name,
    )
    resilience = resilience if resilience is not None else ResilienceConfig()
    batched = batch_trials is not None and scheme in ("B", "C")
    if batch_trials is not None and not batched:
        # only schemes B and C have batched kernels: the user asked for
        # batching but every other scheme runs trial by trial.  Say so --
        # silently honouring the flag reads as a perf win that is not
        # happening.
        _log.warning(
            "scheme %r has no batched flow kernel; batch_trials=%d will "
            "execute its trials serially member-by-member (results are "
            "identical, the vectorisation speedup is not)",
            scheme,
            batch_trials,
        )
        if sink.enabled:
            sink.emit(
                BatchDegradedToSerial(
                    scheme=scheme,
                    batch_trials=batch_trials,
                    reason="no_batched_kernel",
                )
            )
    runner = TrialRunner(
        _sweep_trial,
        workers=workers,
        validator=validate_rate,
        **resilience.runner_kwargs(),
    )
    try:
        with span("sweep_capacity", logger=_log):
            if batched:
                plan = BatchedTrialPlan.group(
                    payloads,
                    shape_key=lambda payload: (int(payload[1]),),
                    batch_trials=batch_trials,
                )
                results = runner.run_batched(
                    payloads,
                    functools.partial(
                        _batched_sweep_trial, backend=resolved_backend.name
                    ),
                    plan,
                    seed=seed,
                    cache=store,
                    keys=keys,
                )
            else:
                results = runner.run(
                    payloads, seed=seed, cache=store, keys=keys
                )
    except KeyboardInterrupt:
        # graceful drain: every completed trial is already journaled; leave
        # a resumable manifest behind and let the interrupt propagate.
        if store is not None:
            store.close()
            store.record_run(
                command="sweep",
                config={
                    "scheme": scheme,
                    "n_values": [int(n) for n in n_values],
                    "trials": trials,
                    "seed": seed,
                    "build_kwargs": build_kwargs or {},
                    "generic": generic,
                    "workers": workers,
                    "batch_trials": batch_trials,
                    "backend": resolved_backend.name,
                },
                parameters=parameters,
                trial_keys=keys,
                status="interrupted",
            )
            _log.warning(
                "sweep interrupted; completed trials remain journaled in %s "
                "-- re-running the same sweep resumes from them",
                store.root,
            )
        raise
    failures = check_min_success(
        results, resilience.min_success_fraction, context="sweep_capacity"
    )
    matrix = np.asarray(
        [result.value if result.ok else np.nan for result in results],
        dtype=float,
    ).reshape(n_values.shape[0], trials)
    if failures:
        # partial results: median over the surviving trials per n; an n with
        # no survivors yields 0.0, dropped by the positive filter below.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rates = np.nanmedian(matrix, axis=1)
        rates = np.nan_to_num(rates, nan=0.0)
    else:
        # bit-compatible with the historical full-success path
        rates = np.median(matrix, axis=1)
    positive = rates > 0
    fit = None
    if int(positive.sum()) >= 2:
        fit = fit_power_law(n_values[positive], rates[positive])
    theory = float(theory_order(parameters, scheme).poly_exponent)
    sweep = SweepResult(
        parameters=parameters,
        scheme=scheme,
        n_values=n_values,
        rates=rates,
        trials=trials,
        theory_exponent=theory,
        fit=fit,
        stats=runner.last_stats,
        seed=seed,
        trial_seeds=tuple(payload[5] for payload in payloads),
        backend=key_backend,
    )
    if store is not None:
        store.record_run(
            command="sweep",
            config={
                "scheme": scheme,
                "n_values": [int(n) for n in n_values],
                "trials": trials,
                "seed": seed,
                "build_kwargs": build_kwargs or {},
                "generic": generic,
                "workers": workers,
                "batch_trials": batch_trials,
                "backend": resolved_backend.name,
            },
            parameters=parameters,
            trial_keys=keys,
            digest=sweep.digest(),
            durations=[trial_result.duration for trial_result in results],
            cached=[trial_result.cached for trial_result in results],
            stats=runner.last_stats,
            status="partial" if failures else "completed",
        )
    return sweep
