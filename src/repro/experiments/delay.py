"""Delay-capacity observations (extension).

The paper is a pure capacity analysis, but its related work (Sharma et al.,
Neely-Modiano, Li et al. [9]) frames each scheme's *delay* as the other axis
of the tradeoff:

- scheme A pays ``Theta(f)`` relay hops, each waiting for a squarelet
  contact -> delay grows with the network extension;
- the two-hop relay pays only 2 hops, but the relay must physically carry
  the packet to the destination -> delay dominated by mobility mixing time;
- scheme B crosses the network over the wired backbone -> delay is a few
  access contacts, independent of ``f`` (the constant-delay claim of [9]).

This module runs light-load packet simulations of the three disciplines on
one network realisation and reports delivered-packet delay statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.regimes import NetworkParameters
from ..mobility.processes import IIDAroundHome
from ..resilience import ResilienceConfig
from ..routing.scheme_b import SchemeB
from ..simulation.engine import SlottedSimulator
from ..simulation.network import HybridNetwork
from ..simulation.routers import SchemeARouter, SchemeBRouter, TwoHopRelayRouter
from ..simulation.traffic import permutation_traffic
from ..store import TrialSeed, content_digest, trial_key
from .recorded import run_recorded

__all__ = ["DelayComparison", "compare_delays"]

#: The three forwarding disciplines, in report order.
DELAY_SCHEMES = ("scheme-A", "two-hop", "scheme-B")


@dataclass(frozen=True)
class DelayComparison:
    """Delay and throughput of the three forwarding disciplines."""

    mean_delay: Dict[str, float]
    mean_hops: Dict[str, float]
    delivered: Dict[str, int]

    def lines(self):
        """Text rows for the benchmark report."""
        out = []
        for scheme in self.mean_delay:
            out.append(
                f"{scheme:10s} delay={self.mean_delay[scheme]:8.1f} slots  "
                f"hops={self.mean_hops[scheme]:5.2f}  "
                f"delivered={self.delivered[scheme]}"
            )
        return out


def _scheme_a_router(net):
    scheme = net.scheme_a()
    return SchemeARouter(
        scheme.tessellation, scheme.tessellation.cell_of(net.home_model.points)
    )


def _two_hop_router(net):
    return TwoHopRelayRouter(net.n)


def _scheme_b_router(net):
    if net.bs_positions is None:
        raise ValueError("scheme B needs infrastructure")
    ms_zone, bs_zone, _ = SchemeB.squarelet_zones(
        net.home_model.points, net.bs_positions, 2
    )
    return SchemeBRouter(ms_zone, bs_zone, net.backbone, net.rng)


#: label -> (router factory, whether BSs join the contact graph)
_DISCIPLINES = {
    "scheme-A": (_scheme_a_router, False),
    "two-hop": (_two_hop_router, False),
    "scheme-B": (_scheme_b_router, True),
}


def _delay_trial(payload: tuple) -> dict:
    """One forwarding discipline's packet simulation (module-level so it
    pickles into pool workers).

    Each discipline rebuilds the *same* realisation from the payload's seed
    (the comparison is on one network), so the trial is a pure function of
    the payload.  The
    payload carries only scalars and the parameters; the home-points and BS
    positions come from the rebuilt network.
    """
    label, parameters, n, seed, slots, arrival_prob = payload
    router_factory, include_bs = _DISCIPLINES[label]
    rng = np.random.default_rng(seed)
    net = HybridNetwork.build(parameters, n, rng)
    traffic = permutation_traffic(rng, n)
    process = IIDAroundHome(
        net.home_model.points, net.shape, 1.0 / net.realized.f, rng
    )
    static = net.bs_positions if include_bs else None
    scheduler = net.scheduler()
    router = router_factory(net)
    sim = SlottedSimulator(
        process, scheduler, router, traffic, arrival_prob, rng,
        static_positions=static,
    )
    metrics = sim.run(slots)
    return {
        "label": label,
        "mean_delay": metrics.mean_delay,
        "mean_hops": metrics.mean_hops,
        "delivered": metrics.delivered,
    }


def _delay_key(payload: tuple) -> str:
    """Content-hash cache key of one discipline's packet simulation."""
    label, parameters, n, seed, slots, arrival_prob = payload
    return trial_key(
        parameters,
        label,
        n,
        TrialSeed(seed, 0),
        extra={"experiment": "delay", "slots": slots, "arrival_prob": arrival_prob},
    )


def compare_delays(
    n: int,
    seed: int,
    slots: int = 4000,
    arrival_prob: float = 0.002,
    parameters: NetworkParameters = None,
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> DelayComparison:
    """Run scheme A, two-hop relay and scheme B at light load on one
    realisation and collect delay statistics.

    The three disciplines are independent trials (each rebuilds the same
    realisation from ``seed``), so ``workers`` fans them out over a process
    pool -- the PR-1 rollout skipped this module -- with results identical
    to the serial run.  ``store`` and ``resilience`` take the shared
    recorded-run path (:func:`repro.experiments.recorded.run_recorded`):
    journaled discipline runs replay, an interrupt leaves a resumable
    ``status="interrupted"`` manifest, and below ``min_success_fraction``
    1.0 a failed discipline is dropped from the comparison instead of
    aborting it.
    """
    if parameters is None:
        parameters = NetworkParameters(
            alpha="1/4", cluster_exponent=1, bs_exponent="7/8",
            backbone_exponent=1,
        )
    payloads = [
        (label, parameters, n, seed, slots, arrival_prob)
        for label in DELAY_SCHEMES
    ]
    run = run_recorded(
        _delay_trial,
        payloads,
        _delay_key,
        command="delay",
        config={
            "n": n,
            "seed": seed,
            "slots": slots,
            "arrival_prob": arrival_prob,
            "workers": workers,
        },
        span_name="delay.compare_delays",
        workers=workers,
        store=store,
        resilience=resilience,
        parameters=parameters,
    )
    outcomes = run.values
    mean_delay = {outcome["label"]: outcome["mean_delay"] for outcome in outcomes}
    mean_hops = {outcome["label"]: outcome["mean_hops"] for outcome in outcomes}
    delivered = {outcome["label"]: outcome["delivered"] for outcome in outcomes}
    # digest the statistics, not the raw values: values journaled by older
    # runs also carry a wall-clock ``elapsed_seconds`` key
    run.record(digest=content_digest([mean_delay, mean_hops, delivered]))
    return DelayComparison(mean_delay, mean_hops, delivered)
