"""Capacity-scaling sweeps: measure ``lambda(n)`` and fit exponents.

The central empirical methodology of the reproduction: realise a parameter
family at a geometric grid of ``n``, measure the flow-level sustainable rate
of a chosen scheme (median over independent trials), and fit the
``log lambda`` vs ``log n`` slope for comparison with the closed-form
exponent of :mod:`repro.core.capacity`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.capacity import (
    infrastructure_capacity,
    mobility_capacity,
    per_node_capacity,
)
from ..core.order import Order
from ..core.regimes import NetworkParameters
from ..observability.events import BatchDegradedToSerial, get_telemetry
from ..observability.log import get_logger
from ..parallel import TrialStats
from ..resilience import ResilienceConfig, validate_rate
from ..routing.base import FlowResult
from ..routing.batched import (
    batched_scheme_c_attach,
    batched_zone_access,
    scheme_b_flow,
)
from ..routing.scheme_c import SchemeC
from ..simulation.network import HybridNetwork
from ..store import TrialSeed, content_digest, trial_key
from ..utils.fitting import PowerLawFit, fit_power_law
from .recorded import RecordedRun, run_recorded

_log = get_logger(__name__)

__all__ = [
    "SweepResult",
    "check_sweep_scheme",
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


def _sweep_trial(payload: tuple) -> float:
    """One sweep trial (module-level so it pickles into pool workers).

    Payloads carry an explicit :class:`TrialSeed` the generator is built
    from, so the trial's value is fully determined by the payload itself --
    the property the content-addressed cache keys rely on.
    """
    parameters, n, scheme, build_kwargs, generic, seed = payload
    result = measure_rate(parameters, n, seed.rng(), scheme, **build_kwargs)
    return _payload_rate(result, generic)


def _payload_rate(result: FlowResult, generic: bool) -> float:
    """The scalar a sweep trial reports for one flow result."""
    if generic:
        return float(result.details.get("generic_rate", result.per_node_rate))
    return float(result.per_node_rate)


def _batched_sweep_trial(payloads) -> List[float]:
    """Execute one same-``n`` batch of scheme B or C sweep trials
    (module-level, picklable).

    Every member's network is built with its own payload seed and its flow
    analysis runs the per-trial kernels: one :func:`batched_zone_access`
    call for scheme B, one :func:`batched_scheme_c_attach` call for
    scheme C.  A member's value is therefore exactly its per-trial value,
    whatever the batch width or the other members.
    """
    parameters, n, scheme, build_kwargs, generic, _seed = payloads[0]
    nets = [
        HybridNetwork.build(parameters, int(n), payload[5].rng(), **build_kwargs)
        for payload in payloads
    ]
    traffics = [net.sample_traffic() for net in nets]
    if scheme == "B":
        zones = [net.scheme_b_zones() for net in nets]
        access = batched_zone_access(
            [net.home_model.points for net in nets],
            [net.bs_positions for net in nets],
            [ms_zone for ms_zone, _bs_zone in zones],
            [bs_zone for _ms_zone, bs_zone in zones],
            nets[0].shape,
            nets[0].realized.f,
            [net.access_transmission_range() for net in nets],
        )
        return [
            _payload_rate(scheme_b_flow(vector, *zone, net.backbone, traffic), generic)
            for vector, zone, net, traffic in zip(access, zones, nets, traffics)
        ]
    attach = batched_scheme_c_attach(
        [net.process.positions() for net in nets],
        [net.bs_positions for net in nets],
        [net.home_model.assignment for net in nets],
        [net._bs_cluster_assignment() for net in nets],
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
            attach=attach[member],
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
    payload carries ``TrialSeed(seed, index)`` explicitly -- the trial's
    whole randomness -- which makes sweep results independent of worker
    count, scheduling order, batching and caching, and gives the cache keys
    a seed that lives in the payload rather than in list position.
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


def _sweep_trial_key(payload: tuple) -> str:
    """Content-hash cache key of one sweep payload."""
    parameters, n, scheme, build_kwargs, generic, seed = payload
    return trial_key(
        parameters,
        scheme,
        n,
        seed,
        extra={"build_kwargs": build_kwargs, "generic": generic},
    )


def median_rates(run: RecordedRun, rows: int) -> np.ndarray:
    """Per-``n`` median of a sweep's ``rows x trials`` trial values.

    With failed trials (tolerated under ``min_success_fraction``) the
    median runs over each row's survivors, and a row with none yields 0.0.
    """
    matrix = np.asarray(
        [result.value if result.ok else np.nan for result in run.results],
        dtype=float,
    ).reshape(rows, -1)
    if not run.failures:
        # bit-compatible with the historical full-success path
        return np.median(matrix, axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return np.nan_to_num(np.nanmedian(matrix, axis=1), nan=0.0)


def check_sweep_scheme(parameters: NetworkParameters, scheme: str) -> None:
    """Raise :class:`ValueError` unless ``scheme`` can run on ``parameters``.

    Schemes B and C route through base stations, so a family without
    infrastructure fails every one of their trials the same way; a sweep
    rejects it before any trial runs instead of retrying each one.
    """
    if scheme not in SCHEME_SELECTORS:
        raise ValueError(
            f"scheme must be one of {sorted(SCHEME_SELECTORS)}, got {scheme!r}"
        )
    if scheme in ("B", "C") and not parameters.has_infrastructure:
        raise ValueError(
            f"scheme {scheme} needs infrastructure (a base-station exponent)"
        )


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
    (:class:`repro.parallel.TrialRunner`).  Each payload carries its trial's
    seed, derived by trial index from the master ``seed``, so any worker
    count -- including the inline default ``None`` -- produces
    bit-identical rates.

    ``store`` (a :class:`repro.store.RunStore` or a directory path) and
    ``resilience`` (a :class:`repro.resilience.ResilienceConfig`) take the
    recorded-run path every driver shares
    (:func:`repro.experiments.recorded.run_recorded`): journaled trials
    replay from disk, fresh ones are journaled as they finish, and the run
    manifest is recorded -- ``status="interrupted"`` on SIGINT/SIGTERM,
    after which re-invoking the same sweep resumes from the journal.  The
    rates -- and therefore :meth:`SweepResult.digest` -- are bit-identical
    with or without the cache, at any worker count.  With
    ``min_success_fraction`` below 1.0 the sweep takes per-``n`` medians
    over the surviving trials (an ``n`` with no survivors contributes a
    zero rate, dropped by the positive filter before fitting) and records
    ``status="partial"``.  Every fresh value passes the NaN/inf/negative
    validation boundary (:func:`repro.resilience.validate_rate`).

    ``batch_trials`` (``>= 2``) groups same-``n`` scheme B or C trials
    into batches of at most that width: a batch is the unit the pool
    schedules, retries and fault-injects.  Each member still
    runs the per-trial kernels (:mod:`repro.routing.batched` calls them
    member by member), so its value -- and the sweep digest -- does not
    depend on the width or the worker count.
    """
    check_sweep_scheme(parameters, scheme)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if batch_trials is not None and batch_trials < 2:
        raise ValueError(
            f"batch_trials must be >= 2 (or None for per-trial execution), "
            f"got {batch_trials}"
        )
    n_values = np.asarray(sorted(n_values), dtype=int)
    payloads = sweep_trial_payloads(
        parameters, n_values, scheme, trials, build_kwargs, generic, seed=seed
    )
    config = {
        "scheme": scheme,
        "n_values": [int(n) for n in n_values],
        "trials": trials,
        "seed": seed,
        "build_kwargs": build_kwargs or {},
        "generic": generic,
        "workers": workers,
        "batch_trials": batch_trials,
    }
    batched = None
    if batch_trials is not None and scheme in ("B", "C"):
        # payloads are n-major: one row of ``trials`` indices per n
        batches = [
            tuple(range(lo, min(lo + batch_trials, row + trials)))
            for row in range(0, len(payloads), trials)
            for lo in range(row, row + trials, batch_trials)
        ]
        batched = (_batched_sweep_trial, batches)
    elif batch_trials is not None:
        # only schemes B and C have a batched path: the user asked for
        # batching but every other scheme runs trial by trial.  Say so
        # rather than silently ignore the flag.
        _log.warning(
            "scheme %r has no batched flow path; batch_trials=%d is ignored "
            "and its trials execute serially member-by-member (results are "
            "identical)",
            scheme,
            batch_trials,
        )
        sink = get_telemetry()
        if sink.enabled:
            sink.emit(
                BatchDegradedToSerial(
                    scheme=scheme,
                    batch_trials=batch_trials,
                    reason="no_batched_kernel",
                )
            )
    run = run_recorded(
        _sweep_trial,
        payloads,
        _sweep_trial_key,
        command="sweep",
        config=config,
        span_name="sweep_capacity",
        workers=workers,
        store=store,
        resilience=resilience,
        parameters=parameters,
        validator=validate_rate,
        batched=batched,
    )
    # partial results: an n with no surviving trial has a zero rate,
    # dropped by the positive filter below
    rates = median_rates(run, n_values.shape[0])
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
        stats=run.stats,
        seed=seed,
        trial_seeds=tuple(payload[5] for payload in payloads),
    )
    run.record(digest=sweep.digest())
    return sweep
