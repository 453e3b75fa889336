"""repro — reproduction of *Local Mixing Time: Distributed Computation and
Applications* (Molla & Pandurangan, 2018).

The package provides, bottom-up:

* :mod:`repro.graphs` — CSR graph type + the paper's graph families
  (β-barbell of Figure 1, paths, expanders, …).
* :mod:`repro.spectral` — walk operators, stationary distributions, spectral
  gaps, conductance and weak conductance.
* :mod:`repro.walks` — exact walk distributions, mixing times, and the
  centralized **local mixing time** (Definition 2).
* :mod:`repro.engine` — the batched multi-source walk engine: block
  trajectories (one sparse mat-mat per step for all sources), a
  search-free lower-bound screen and exact verification of the flagged
  pairs behind ``τ(β,ε) = max_v τ_v(β,ε)``.
* :mod:`repro.parallel` — sharded multi-core execution: the graph's CSR
  arrays in shared memory, a persistent
  :class:`~repro.parallel.ShardExecutor` worker pool, and a sharded τ
  front door whose results are identical to the serial engine at any
  worker count (plus :func:`~repro.parallel.shard_map` for per-source
  sweeps).
* :mod:`repro.dynamic` — dynamic networks: a mutable
  :class:`~repro.dynamic.graph.DynamicGraph` overlay with structurally
  memoized snapshots, update-schedule generators (edge-Markovian churn,
  rewiring, bridge surgery, node join/leave), and the incremental
  :class:`~repro.dynamic.tracker.MixingTracker` whose per-snapshot results
  are identical to from-scratch batched recomputation.
* :mod:`repro.congest` — a synchronous CONGEST-model simulator with per-edge
  bandwidth accounting (the substrate the paper's algorithms run on).
* :mod:`repro.algorithms` — the paper's distributed algorithms: Algorithm 1
  (``ESTIMATE-RW-PROBABILITY``), Algorithm 2 (``LOCAL-MIXING-TIME``,
  2-approximation, Theorem 1), the exact §3.2 variant (Theorem 2), and the
  three baselines the paper compares against.
* :mod:`repro.gossip` — push–pull gossip, partial information spreading
  (Theorem 3) and its applications.
* :mod:`repro.analysis` — the experiment harness behind EXPERIMENTS.md.

Quickstart
----------
>>> import repro
>>> g = repro.beta_barbell(beta=4, clique_size=16)      # Figure 1 graph
>>> res = repro.local_mixing_time(g, source=0, beta=4)  # Definition 2
>>> res.time                                            # O(1) — §2.3(d)
1
"""

from repro.constants import DEFAULT_BETA, DEFAULT_C, DEFAULT_EPS
from repro.errors import (
    BipartiteGraphError,
    CongestViolationError,
    ConvergenceError,
    DisconnectedGraphError,
    GraphError,
    NotRegularError,
    ProtocolError,
    ReproError,
)
from repro.graphs import (
    Graph,
    beta_barbell,
    clique_chain_of_expanders,
    complete_graph,
    cycle_graph,
    dumbbell,
    hypercube,
    lollipop,
    margulis_expander,
    path_graph,
    random_regular,
    torus_2d,
)
from repro.spectral import (
    mixing_time_bounds_from_gap,
    set_conductance,
    spectral_gap,
    stationary_distribution,
    weak_conductance_exact,
)
from repro.walks import (
    LocalMixingResult,
    distribution_at,
    graph_local_mixing_time,
    graph_mixing_time,
    local_mixing_time,
    mixing_time,
    set_mixing_time,
)
from repro.engine import (
    BlockPropagator,
    batched_local_mixing_profiles,
    batched_local_mixing_spectra,
    batched_local_mixing_times,
    batched_mixing_times,
)
from repro.parallel import (
    ShardExecutor,
    parallel_local_mixing_times,
    shard_map,
)
from repro.dynamic import (
    DynamicGraph,
    GraphUpdate,
    MixingTracker,
    TrackingTrace,
    barbell_bridge_schedule,
    edge_markovian_churn,
    node_churn,
    random_rewiring,
    track_local_mixing,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # constants
    "DEFAULT_BETA",
    "DEFAULT_C",
    "DEFAULT_EPS",
    # errors
    "ReproError",
    "GraphError",
    "NotRegularError",
    "DisconnectedGraphError",
    "BipartiteGraphError",
    "ConvergenceError",
    "CongestViolationError",
    "ProtocolError",
    # graphs
    "Graph",
    "beta_barbell",
    "clique_chain_of_expanders",
    "complete_graph",
    "cycle_graph",
    "dumbbell",
    "hypercube",
    "lollipop",
    "margulis_expander",
    "path_graph",
    "random_regular",
    "torus_2d",
    # spectral
    "spectral_gap",
    "stationary_distribution",
    "set_conductance",
    "weak_conductance_exact",
    "mixing_time_bounds_from_gap",
    # walks
    "distribution_at",
    "mixing_time",
    "graph_mixing_time",
    "local_mixing_time",
    "graph_local_mixing_time",
    "set_mixing_time",
    "LocalMixingResult",
    # engine (batched multi-source)
    "BlockPropagator",
    "batched_local_mixing_times",
    "batched_local_mixing_spectra",
    "batched_local_mixing_profiles",
    "batched_mixing_times",
    # parallel (sharded multi-core)
    "ShardExecutor",
    "parallel_local_mixing_times",
    "shard_map",
    # dynamic networks
    "DynamicGraph",
    "GraphUpdate",
    "MixingTracker",
    "TrackingTrace",
    "track_local_mixing",
    "edge_markovian_churn",
    "random_rewiring",
    "barbell_bridge_schedule",
    "node_churn",
]
