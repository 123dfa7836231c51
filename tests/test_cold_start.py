"""Cold start: the graph libraries load on first use, never on import.

``scipy.sparse`` (and its ``csgraph``) and ``networkx`` serve only the
static Gupta-Kumar baseline, scheme L, the non-mesh backbone ablations, the
connectivity helpers and the max-flow check; schemes A, B and C and the
packet simulator need neither.  Importing them at module level added about
130 ms and 35 MB to every ``import repro``.  Each test starts a fresh
interpreter, because this suite itself has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_LOADED = (
    "def loaded(*roots):\n"
    "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
)


def _run(script: str) -> str:
    """Run ``script`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + _LOADED + script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


_HOT_PATH = """
import json
import repro, repro.__main__, repro.experiments.scaling, repro.experiments.delay
import repro.serve, repro.store
stages = {"import": loaded("scipy", "networkx")}
from repro.experiments.delay import compare_delays
from repro.experiments.scaling import sweep_capacity
from repro.experiments.table1 import TABLE1_ROWS
rows = {row.label: row.parameters for row in TABLE1_ROWS}
for label, scheme, generic in (
    ("strong mobility, with BSs", "optimal", False),
    ("strong mobility, no BSs", "A", False),
    ("weak mobility, with BSs", "B", True),
    ("trivial mobility, with BSs", "C", True),
):
    sweep_capacity(rows[label], (200,), scheme=scheme, trials=1, seed=1,
                   generic=generic)
    stages[f"sweep {scheme}"] = loaded("scipy", "networkx")
compare_delays(200, seed=1, slots=20)
stages["compare_delays"] = loaded("scipy", "networkx")
print(json.dumps(stages))
"""


def test_hot_path_never_loads_scipy_or_networkx():
    stages = json.loads(_run(_HOT_PATH))
    assert len(stages) == 6
    assert {stage: mods for stage, mods in stages.items() if mods} == {}


#: (library root, imports of the module holding the lazy site, first use)
_LAZY_SITES = {
    "backbone-ring": (
        "networkx",
        "from repro.infrastructure.backbone import Backbone, BackboneTopology",
        "assert Backbone(8, 1.0, BackboneTopology.RING).route(0, 3) == [0, 1, 2, 3]",
    ),
    "backbone-grid": (
        "networkx",
        "from repro.infrastructure.backbone import Backbone, BackboneTopology",
        "assert len(Backbone(9, 1.0, BackboneTopology.GRID).route(0, 8)) == 5",
    ),
    "static-multihop": (
        "scipy",
        "import numpy as np\n"
        "from repro.routing.static_multihop import StaticMultihop\n"
        "from repro.simulation.traffic import permutation_traffic",
        "rng = np.random.default_rng(1)\n"
        "scheme = StaticMultihop(rng.random((60, 2)), 0.4)\n"
        "assert scheme.sustainable_rate(permutation_traffic(rng, 60)).per_node_rate > 0",
    ),
    "is-connected": (
        "scipy",
        "import numpy as np\n"
        "from repro.wireless.connectivity import is_connected",
        "assert is_connected(np.random.default_rng(1).random((60, 2)), 0.5)",
    ),
    "minimum-connecting-range": (
        "scipy",
        "import numpy as np\n"
        "from repro.wireless.connectivity import minimum_connecting_range",
        "assert minimum_connecting_range(np.random.default_rng(1).random((60, 2))) > 0",
    ),
    "session-max-flow": (
        "networkx",
        "import numpy as np\n"
        "from repro.mobility.shapes import UniformDiskShape\n"
        "from repro.simulation.maxflow import LinkCapacityGraph, session_max_flow",
        "homes = np.random.default_rng(1).random((30, 2))\n"
        "graph = LinkCapacityGraph(homes, UniformDiskShape(1.0), 2.0, c_t=0.5)\n"
        "assert session_max_flow(graph, [(0, 1)])[(0, 1)] > 0",
    ),
    "scheme-l": (
        "scipy",
        "import numpy as np\n"
        "from repro.infrastructure.backbone import Backbone\n"
        "from repro.routing.scheme_l import SchemeL",
        "rng = np.random.default_rng(1)\n"
        "scheme = SchemeL(rng.random((60, 2)), rng.random((4, 2)),\n"
        "                 np.zeros(60, int), np.zeros(4, int), Backbone(4, 1.0),\n"
        "                 transmission_range=0.2, max_hops=2)\n"
        "assert scheme.coverage > 0",
    ),
}


@pytest.mark.parametrize("site", _LAZY_SITES)
def test_lazy_site_loads_its_library_on_first_use(site):
    library, imports, first_use = _LAZY_SITES[site]
    script = (
        f"{imports}\n"
        f"before = loaded({library!r})\n"
        f"{first_use}\n"
        f"print(before == [] and {library!r} in loaded({library!r}))\n"
    )
    assert _run(script) == "True"
