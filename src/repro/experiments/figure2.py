"""Figure 2 reproduction: an annotated routing-scheme-B example.

Figure 2 of the paper illustrates the three phases of optimal routing scheme
B on a squarelet grid: the source MS relays to the BSs of its squarelet
(phase 1), those BSs exchange the data with the BSs of the destination
squarelet over the wired backbone (phase 2), which finally deliver to the
destination MS (phase 3).  We regenerate it as a concrete instance: a
realised network, one traced session with its per-phase relay sets, and the
feasibility numbers of each phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.regimes import NetworkParameters
from ..resilience import ResilienceConfig
from ..simulation.network import HybridNetwork
from ..simulation.traffic import permutation_traffic
from ..store import TrialSeed, trial_key
from .recorded import run_recorded

__all__ = ["SchemeBTrace", "trace_scheme_b", "trace_scheme_b_sessions"]

#: A strong-mobility, infrastructure-dominant family where scheme B carries
#: the traffic (matches the spirit of the paper's illustration).
FIGURE2_PARAMS = NetworkParameters(
    alpha="1/8", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=1
)


@dataclass(frozen=True)
class SchemeBTrace:
    """One traced session plus the network-wide phase feasibility numbers."""

    session: Dict[str, object]
    access_rate: float
    backbone_rate: float
    per_node_rate: float
    bottleneck: str

    def lines(self) -> List[str]:
        """Render the trace as text for the benchmark output."""
        session = self.session
        return [
            f"session: MS {session['source']} -> MS {session['destination']}",
            f"phase 1: source squarelet {session['source_zone']} "
            f"uploads to BSs {session['phase1_bs']}",
            f"phase 2: {session['backbone_wires']} backbone wires to "
            f"squarelet {session['destination_zone']}",
            f"phase 3: BSs {session['phase3_bs']} deliver to destination",
            f"rates: access={self.access_rate:.3e} backbone={self.backbone_rate:.3e} "
            f"=> lambda={self.per_node_rate:.3e} (bottleneck: {self.bottleneck})",
        ]


def trace_scheme_b(
    n: int,
    rng: np.random.Generator,
    parameters: NetworkParameters = FIGURE2_PARAMS,
    session_index: int = 0,
) -> SchemeBTrace:
    """Build a network, route one session through scheme B, and report."""
    net = HybridNetwork.build(parameters, n, rng)
    scheme = net.scheme_b()
    traffic = permutation_traffic(net.rng, n)
    result = scheme.sustainable_rate(traffic)
    source = session_index % n
    destination = int(traffic.destination[source])
    session = scheme.session_route(source, destination)
    backbone = result.details.get("backbone_rate", float("inf"))
    return SchemeBTrace(
        session=session,
        access_rate=result.details["access_rate"],
        backbone_rate=backbone,
        per_node_rate=result.per_node_rate,
        bottleneck=result.bottleneck,
    )


def _trace_trial(payload: tuple) -> SchemeBTrace:
    """One traced session (module-level so it pickles into pool workers).

    Every session of one figure shares the same network seed (the paper's
    figure annotates *one* realisation), so the generator is built from the
    payload's network seed -- which also makes the trace a pure function of
    the payload, as the cache keys require.
    """
    parameters, n, network_seed, session_index = payload
    return trace_scheme_b(
        n,
        np.random.default_rng(network_seed),
        parameters=parameters,
        session_index=session_index,
    )


def _trace_key(payload: tuple) -> str:
    """Content-hash cache key of one traced session (every session shares
    the network seed, so the session index tells them apart)."""
    parameters, n, network_seed, session_index = payload
    return trial_key(
        parameters,
        "B",
        n,
        TrialSeed(network_seed, 0),
        extra={"experiment": "figure2", "session_index": session_index},
    )


def trace_scheme_b_sessions(
    n: int,
    seed: int = 5,
    parameters: NetworkParameters = FIGURE2_PARAMS,
    session_indices: Sequence[int] = (0,),
    workers: Optional[int] = None,
    store=None,
    resilience: Optional[ResilienceConfig] = None,
) -> List[SchemeBTrace]:
    """Trace several sessions of one scheme-B realisation in parallel.

    The PR-1 :class:`TrialRunner` rollout skipped Figure 2; this is its
    parallel driver: each session index becomes one trial (``workers`` fans
    them out over a process pool), every trial rebuilds the *same* network
    from ``seed``, and ``trace_scheme_b_sessions(n, seed)[0]`` reproduces
    ``trace_scheme_b(n, default_rng(seed))`` exactly.  ``store`` and
    ``resilience`` take the shared recorded-run path
    (:func:`repro.experiments.recorded.run_recorded`): journaled traces
    replay, an interrupt leaves a resumable ``status="interrupted"``
    manifest, and below ``min_success_fraction`` 1.0 a failed trace is
    dropped instead of aborting the figure.
    """
    payloads = [
        (parameters, n, seed, int(session_index))
        for session_index in session_indices
    ]
    run = run_recorded(
        _trace_trial,
        payloads,
        _trace_key,
        command="figure2",
        config={
            "n": n,
            "seed": seed,
            "session_indices": [int(index) for index in session_indices],
            "workers": workers,
        },
        span_name="figure2.trace_sessions",
        workers=workers,
        store=store,
        resilience=resilience,
        parameters=parameters,
    )
    run.record()
    return run.values
